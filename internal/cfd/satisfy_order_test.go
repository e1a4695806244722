package cfd

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/relation"
)

// Detect must emit violations in (Row, T1, T2, Attr) order regardless of
// the map-iteration order of the underlying index buckets.
func TestDetectDeterministicOrder(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	// Many violating LHS groups so bucket iteration order matters.
	for i := 0; i < 40; i++ {
		a := relation.Str(string(rune('a' + i%26)))
		in.MustInsert(a, relation.Str("x"))
		in.MustInsert(a, relation.Str("y"))
	}
	key := MustFD(s, []string{"A"}, []string{"B"})
	first := Detect(in, key)
	if len(first) == 0 {
		t.Fatal("expected violations")
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		if first[i].Row != first[j].Row {
			return first[i].Row < first[j].Row
		}
		if first[i].T1 != first[j].T1 {
			return first[i].T1 < first[j].T1
		}
		if first[i].T2 != first[j].T2 {
			return first[i].T2 < first[j].T2
		}
		return first[i].Attr < first[j].Attr
	}) {
		t.Fatal("Detect output is not sorted by (Row, T1, T2, Attr)")
	}
	for run := 0; run < 10; run++ {
		if again := Detect(in, key); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced a different order", run)
		}
	}
}

// DetectAll's comparator must break (T1, T2, Attr) ties on Row: a tuple
// clashing with two pattern rows of the same CFD yields two violations
// distinguishable only by Row.
func TestDetectAllOrdersByRow(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("c"))
	phi := MustNew(s, []string{"A"}, []string{"B"},
		Row([]Cell{Const(relation.Str("a"))}, []Cell{Const(relation.Str("b1"))}),
		Row([]Cell{Const(relation.Str("a"))}, []Cell{Const(relation.Str("b2"))}),
	)
	vs := DetectAll(in, []*CFD{phi})
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2 (one per pattern row)", len(vs))
	}
	if vs[0].Row != 0 || vs[1].Row != 1 {
		t.Fatalf("violations not ordered by Row: got rows %d, %d", vs[0].Row, vs[1].Row)
	}
}

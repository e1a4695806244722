package repair

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/denial"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/relation"
)

// The CFD-based hypergraph of Example 5.1 must agree with the
// denial-constraint path: n disjoint 2-cliques, hence 2^n X-repairs.
func TestBuildCFDHypergraphExample51(t *testing.T) {
	const n = 4
	in := gen.Example51(n)
	key := cfd.MustFD(in.Schema(), []string{"A"}, []string{"B"})
	h := BuildCFDHypergraph(in, []*cfd.CFD{key})
	if len(h.Vertices) != 2*n {
		t.Fatalf("vertices = %d, want %d", len(h.Vertices), 2*n)
	}
	if len(h.Edges) != n {
		t.Fatalf("edges = %d, want %d (one conflict pair per a_i)", len(h.Edges), n)
	}
	if got := h.CountXRepairs(0); got != 1<<n {
		t.Fatalf("X-repairs = %d, want %d", got, 1<<n)
	}

	db := relation.NewDatabase()
	db.Add(in)
	dcs, err := denial.Key(in.Schema(), []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	hd, err := BuildHypergraph(db, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if want := hd.CountXRepairs(0); want != h.CountXRepairs(0) {
		t.Fatalf("CFD path counts %d repairs, denial path %d", h.CountXRepairs(0), want)
	}
}

// A violating group of three tuples must become a triangle, not a path:
// representative-only pairs would miss the {t1, t2} edge and enumerate
// {t1, t2} as a "repair" that still violates the key.
func TestBuildCFDHypergraphExhaustivePairs(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("b1"))
	in.MustInsert(relation.Str("a"), relation.Str("b2"))
	in.MustInsert(relation.Str("a"), relation.Str("b3"))
	key := cfd.MustFD(s, []string{"A"}, []string{"B"})
	h := BuildCFDHypergraph(in, []*cfd.CFD{key})
	if len(h.Edges) != 3 {
		t.Fatalf("edges = %v, want the full triangle", h.Edges)
	}
	reps := h.EnumerateXRepairs(0)
	if len(reps) != 3 {
		t.Fatalf("got %d X-repairs, want 3 singletons", len(reps))
	}
	for _, kept := range reps {
		if len(kept) != 1 {
			t.Fatalf("repair %v keeps %d tuples, want 1", kept, len(kept))
		}
		sub := relation.NewInstance(s)
		tup, _ := in.Tuple(kept[0].TID)
		sub.MustInsert(tup...)
		if !cfd.SatisfiesAll(sub, []*cfd.CFD{key}) {
			t.Fatalf("enumerated repair %v violates the key", kept)
		}
	}
}

// BuildCFDHypergraphOn over a monitor's maintained snapshot must
// agree with the from-scratch path, across a mutation that the monitor
// absorbs incrementally.
func TestBuildCFDHypergraphOnMonitorSnapshot(t *testing.T) {
	in := gen.Customers(gen.CustomerConfig{N: 200, Seed: 31, ErrorRate: 0.1})
	s := in.Schema()
	sigma := []*cfd.CFD{
		cfd.MustFD(s, []string{"CC", "zip"}, []string{"street"}),
		cfd.MustFD(s, []string{"CC", "AC"}, []string{"city"}),
	}
	db := relation.NewDatabase()
	db.Add(in)
	m := detect.NewDBMonitor(nil, db, detect.WrapCFDs(sigma))
	check := func() {
		t.Helper()
		snap, _ := m.ShardSnapshots()[0].Snapshot(s.Name())
		got := BuildCFDHypergraphOn(snap, sigma)
		want := BuildCFDHypergraph(in, sigma)
		if len(got.Vertices) != len(want.Vertices) || len(got.Edges) != len(want.Edges) {
			t.Fatalf("hypergraph on monitor snapshot has %d vertices / %d edges, fresh build %d / %d",
				len(got.Vertices), len(got.Edges), len(want.Vertices), len(want.Edges))
		}
	}
	check()
	id := in.IDs()[0]
	tup, _ := in.Tuple(id)
	if _, _, err := m.Apply([]detect.DBOp{detect.UpdateIn(s.Name(), id, 4, relation.Str(tup[4].StrVal()+"-x"))}); err != nil {
		t.Fatal(err)
	}
	check()
}

// Single-tuple constant violations must become unary hyperedges: the only
// X-repair deletes every clashing tuple.
func TestBuildCFDHypergraphSingleTuple(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("ok"))
	in.MustInsert(relation.Str("a"), relation.Str("bad"))
	phi := cfd.MustNew(s, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("a"))}, []cfd.Cell{cfd.Const(relation.Str("ok"))}))
	h := BuildCFDHypergraph(in, []*cfd.CFD{phi})
	reps := h.EnumerateXRepairs(0)
	if len(reps) != 1 {
		t.Fatalf("got %d X-repairs, want 1", len(reps))
	}
	// The pair violation {t0, t1} and the unary edge {t1} force deleting
	// exactly t1.
	if len(reps[0]) != 1 || reps[0][0].TID != 0 {
		t.Fatalf("repair keeps %v, want just tuple 0", reps[0])
	}
}

package cfd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// fig1 rebuilds the Figure 1 instance locally (paperdata imports cfd, so
// tests here cannot use it without a cycle).
func fig1() *relation.Instance {
	s := relation.MustSchema("customer",
		relation.Attr("CC", relation.KindInt),
		relation.Attr("AC", relation.KindInt),
		relation.Attr("phn", relation.KindInt),
		relation.Attr("name", relation.KindString),
		relation.Attr("street", relation.KindString),
		relation.Attr("city", relation.KindString),
		relation.Attr("zip", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Int(44), relation.Int(131), relation.Int(1234567),
		relation.Str("Mike"), relation.Str("Mayfield"), relation.Str("NYC"), relation.Str("EH4 8LE"))
	in.MustInsert(relation.Int(44), relation.Int(131), relation.Int(3456789),
		relation.Str("Rick"), relation.Str("Crichton"), relation.Str("NYC"), relation.Str("EH4 8LE"))
	in.MustInsert(relation.Int(1), relation.Int(908), relation.Int(3456789),
		relation.Str("Joe"), relation.Str("Mtn Ave"), relation.Str("NYC"), relation.Str("07974"))
	return in
}

// snapDetect runs the snapshot path end to end for one CFD.
func snapDetect(in *relation.Instance, c *CFD) []Violation {
	snap := relation.NewSnapshot(in)
	return DetectWithSnapshot(snap, c, relation.BuildCodeIndex(snap, c.LHS()))
}

func TestSnapshotDetectMatchesLegacyOnFigure1(t *testing.T) {
	in := fig1()
	s := in.Schema()
	cases := []*CFD{
		MustFD(s, []string{"CC", "AC", "phn"}, []string{"street", "city", "zip"}),
		MustFD(s, []string{"CC", "AC"}, []string{"city"}),
		MustNew(s, []string{"CC", "zip"}, []string{"street"},
			Row([]Cell{Const(relation.Int(44)), Any()}, []Cell{Any()})),
		MustNew(s, []string{"CC", "AC", "phn"}, []string{"street", "city", "zip"},
			Row([]Cell{Any(), Any(), Any()}, []Cell{Any(), Any(), Any()}),
			Row([]Cell{Const(relation.Int(44)), Const(relation.Int(131)), Any()},
				[]Cell{Any(), Const(relation.Str("EDI")), Any()}),
			Row([]Cell{Const(relation.Int(1)), Const(relation.Int(908)), Any()},
				[]Cell{Any(), Const(relation.Str("MH")), Any()})),
	}
	for i, c := range cases {
		want := Detect(in, c)
		got := snapDetect(in, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: snapshot path diverges:\n got %v\nwant %v", i, got, want)
		}
		snap := relation.NewSnapshot(in)
		if s, l := SatisfiesWithSnapshot(snap, c, nil), Satisfies(in, c); s != l {
			t.Errorf("case %d: SatisfiesWithSnapshot = %v, legacy = %v", i, s, l)
		}
	}
}

// TestSnapshotDetectMissingLHSConstant covers the dictionary-miss prune:
// an LHS constant that never occurs in the column matches no tuple, so
// the pattern row contributes nothing on either path.
//
// The second input is the same miss across the numeric tower: the int
// constant 2^53+1 is not the float 2^53 (they differ, though a float64
// compare would equate them), so the row matches nothing there either.
func TestSnapshotDetectMissingLHSConstant(t *testing.T) {
	in := fig1()
	big := fig1()
	big.MustInsert(relation.Float(1<<53), relation.Int(131), relation.Int(1),
		relation.Str("Ann"), relation.Str("High St"), relation.Str("NYC"), relation.Str("EH4 8LE"))
	for _, tc := range []struct {
		in *relation.Instance
		c  *CFD
	}{
		{in, MustNew(in.Schema(), []string{"CC", "zip"}, []string{"street"},
			Row([]Cell{Const(relation.Int(999)), Any()}, []Cell{Any()}))},
		{big, MustNew(big.Schema(), []string{"CC"}, []string{"city"},
			Row([]Cell{Const(relation.Int(1<<53 + 1))}, []Cell{Const(relation.Str("EDI"))}))},
	} {
		if want, got := Detect(tc.in, tc.c), snapDetect(tc.in, tc.c); !reflect.DeepEqual(got, want) {
			t.Fatalf("missing-LHS-constant row: got %v, want %v", got, want)
		}
		if len(snapDetect(tc.in, tc.c)) != 0 {
			t.Fatal("a pattern row matching no tuple produced violations")
		}
	}
}

// TestSnapshotDetectMissingRHSConstant covers the other miss direction:
// an RHS constant absent from the column can never bind, so every
// LHS-matching tuple is a single-tuple violation.
func TestSnapshotDetectMissingRHSConstant(t *testing.T) {
	in := fig1()
	c := MustNew(in.Schema(), []string{"CC"}, []string{"city"},
		Row([]Cell{Const(relation.Int(44))}, []Cell{Const(relation.Str("EDI"))}))
	want := Detect(in, c)
	got := snapDetect(in, c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("missing-RHS-constant: got %v, want %v", got, want)
	}
	if len(got) != 2 { // t1 and t2 have CC=44, city=NYC ≠ EDI
		t.Fatalf("got %d violations, want 2: %v", len(got), got)
	}
}

func TestSnapshotDetectTouchedMatchesLegacy(t *testing.T) {
	in := fig1()
	s := in.Schema()
	c := MustFD(s, []string{"CC", "AC"}, []string{"street"})
	street := s.MustLookup("street")
	in.Update(0, street, relation.Str("Elsewhere"))
	for _, touched := range [][]relation.TID{{0}, {1}, {0, 1, 2}, {99}, nil} {
		want := DetectTouched(in, c, touched)
		snap := relation.NewSnapshot(in)
		got := DetectTouchedWithSnapshot(snap, c, relation.BuildCodeIndex(snap, c.LHS()), touched)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("touched %v: got %v, want %v", touched, got, want)
		}
	}
}

// TestSnapshotExhaustiveMatchesLegacy checks the quadratic pair mode the
// conflict hypergraph depends on.
func TestSnapshotExhaustiveMatchesLegacy(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("x"))
	in.MustInsert(relation.Str("a"), relation.Str("y"))
	in.MustInsert(relation.Str("a"), relation.Str("z"))
	in.MustInsert(relation.Str("b"), relation.Str("x"))
	c := MustFD(s, []string{"A"}, []string{"B"})
	want := DetectExhaustiveWithIndex(in, c, nil)
	snap := relation.NewSnapshot(in)
	got := DetectExhaustiveWithSnapshot(snap, c, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exhaustive pairs diverge:\n got %v\nwant %v", got, want)
	}
	if len(got) != 3 { // pairs (0,1), (0,2), (1,2) on B
		t.Fatalf("got %d pairs, want 3", len(got))
	}
}

// TestLhsCodeIndexRebuilds checks the validation mirror of lhsIndex: a
// nil, foreign-snapshot or wrong-position index is rebuilt, not misused.
func TestLhsCodeIndexRebuilds(t *testing.T) {
	in := fig1()
	c := MustFD(in.Schema(), []string{"CC", "AC"}, []string{"city"})
	snap := relation.NewSnapshot(in)
	wrong := relation.BuildCodeIndex(snap, []int{0, 6})
	other := relation.NewSnapshot(in)
	foreign := relation.BuildCodeIndex(other, c.LHS())
	want := Detect(in, c)
	for name, cx := range map[string]*relation.CodeIndex{"nil": nil, "wrongPos": wrong, "foreignSnap": foreign} {
		if got := DetectWithSnapshot(snap, c, cx); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
}

// kernelInstance builds a small random instance with dense LHS groups,
// integral floats mixed into the int column (they share codes with the
// equal ints), and deleted TIDs, so touched lists can name absent rows.
func kernelInstance(r *rand.Rand) *relation.Instance {
	s := relation.MustSchema("k",
		relation.Attr("A", relation.KindInt),
		relation.Attr("B", relation.KindInt),
		relation.Attr("C", relation.KindString),
	)
	in := relation.NewInstance(s)
	for i := 0; i < 80; i++ {
		a := relation.Int(int64(r.Intn(4)))
		if r.Intn(4) == 0 {
			a = relation.Float(float64(r.Intn(4)))
		}
		in.MustInsert(a, relation.Int(int64(r.Intn(3))), relation.Str([]string{"x", "y", "z"}[r.Intn(3)]))
	}
	for i := 0; i < 10; i++ {
		ids := in.IDs()
		in.Delete(ids[r.Intn(len(ids))])
	}
	return in
}

// randomTouched draws a touched list over [0, 90): present and deleted
// TIDs as well as TIDs never assigned.
func randomTouched(r *rand.Rand) []relation.TID {
	var out []relation.TID
	for _, id := range r.Perm(90)[:r.Intn(12)] {
		out = append(out, relation.TID(id))
	}
	return out
}

// TestKernelTouchedIsFilteredFull pins the contract of the one detection
// body: over a touched scope it reports exactly the full scope's
// violations witnessed by a touched tuple — single-tuple violations of
// touched tuples, pair violations in LHS groups holding a touched tuple
// — with and without forced hash collisions, across constants missing
// from the dictionary, NaN constants and NaN data.
func TestKernelTouchedIsFilteredFull(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 3 })()
			}
			r := rand.New(rand.NewSource(17))
			for round := 0; round < 20; round++ {
				in := kernelInstance(r)
				// A NaN LHS group whose RHS-NaN pair agrees on B but not
				// on C; the NaN pattern constant below matches it.
				in.MustInsert(relation.Float(math.NaN()), relation.Float(math.NaN()), relation.Str("y"))
				in.MustInsert(relation.Float(math.NaN()), relation.Float(math.NaN()), relation.Str("x"))
				s := in.Schema()
				cfds := []*CFD{
					MustFD(s, []string{"A"}, []string{"C"}),
					MustNew(s, []string{"A", "B"}, []string{"C"},
						Row([]Cell{Const(relation.Int(1)), Any()}, []Cell{Any()}),
						Row([]Cell{Any(), Const(relation.Int(2))}, []Cell{Const(relation.Str("x"))}),
						Row([]Cell{Const(relation.Int(99)), Any()}, []Cell{Any()}),
						Row([]Cell{Const(relation.Float(math.NaN())), Any()}, []Cell{Const(relation.Str("y"))})),
					MustNew(s, []string{"A"}, []string{"B", "C"},
						Row([]Cell{Any()}, []Cell{Const(relation.Int(1)), Any()})),
				}
				snap := relation.NewSnapshot(in)
				for ci, c := range cfds {
					full := DetectWithSnapshot(snap, c, nil)
					if legacy := Detect(in, c); !reflect.DeepEqual(full, legacy) {
						t.Fatalf("round %d cfd %d: full %v, legacy %v", round, ci, full, legacy)
					}
					for k := 0; k < 5; k++ {
						touched := randomTouched(r)
						groups := map[string]bool{}
						present := map[relation.TID]bool{}
						for _, id := range touched {
							if tu, ok := in.Tuple(id); ok {
								present[id] = true
								groups[tu.KeyOn(c.LHS())] = true
							}
						}
						var want []Violation
						for _, v := range full {
							t1, _ := in.Tuple(v.T1)
							if (v.Kind == SingleTuple && present[v.T1]) || (v.Kind == TuplePair && groups[t1.KeyOn(c.LHS())]) {
								want = append(want, v)
							}
						}
						got := DetectTouchedWithSnapshot(snap, c, relation.BuildCodeIndex(snap, c.LHS()), touched)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d cfd %d touched %v:\n got %v\nwant %v", round, ci, touched, got, want)
						}
					}
				}
			}
		})
	}
}

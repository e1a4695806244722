package ecfd_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/relation"
)

// benchSet builds a small mixed eCFD family over the customer schema:
// the paper's two shapes (an FD holding off a city set, a membership
// constraint on area codes for one city set) plus a row with both a
// constant-style singleton and a notin RHS cell.
func benchSet(s *relation.Schema) []*ecfd.ECFD {
	return []*ecfd.ECFD{
		ecfd.MustNew(s, []string{"city"}, []string{"zip"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Str("NYC"), relation.Str("MH"))}, RHS: []ecfd.Cell{ecfd.Any()}}),
		ecfd.MustNew(s, []string{"city"}, []string{"AC"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.In(relation.Str("EDI"), relation.Str("GLA"))},
				RHS: []ecfd.Cell{ecfd.In(relation.Int(131), relation.Int(141))}}),
		ecfd.MustNew(s, []string{"CC", "AC"}, []string{"city", "street"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.Const(relation.Int(44)), ecfd.Any()},
				RHS: []ecfd.Cell{ecfd.NotIn(relation.Str("MH")), ecfd.Any()}}),
		// A row whose ∈ constant never occurs: prunes to nothing on both paths.
		ecfd.MustNew(s, []string{"city"}, []string{"street"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.In(relation.Str("NOWHERE"))}, RHS: []ecfd.Cell{ecfd.Any()}}),
		// An ∈ member that is not the float 2^53 bigFloatCustomer plants,
		// though a float64 compare would equate the two.
		ecfd.MustNew(s, []string{"CC"}, []string{"city"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.In(relation.Int(1<<53 + 1))}, RHS: []ecfd.Cell{ecfd.In(relation.Str("EDI"))}}),
		// The NaN area codes nanCustomers plants: a pair that agrees on
		// its NaN RHS cells (they share a zip), and a NaN LHS constant
		// that matches NaN data.
		ecfd.MustNew(s, []string{"zip"}, []string{"AC"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.Any()}, RHS: []ecfd.Cell{ecfd.Any()}}),
		ecfd.MustNew(s, []string{"AC"}, []string{"city"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.In(relation.Float(math.NaN()))}, RHS: []ecfd.Cell{ecfd.In(relation.Str("EDI"))}}),
	}
}

// nanCustomers inserts two customers with a NaN area code and one zip,
// one of them outside EDI.
func nanCustomers(in *relation.Instance) {
	for i, city := range []string{"EDI", "GLA"} {
		in.MustInsert(relation.Int(44), relation.Float(math.NaN()), relation.Int(int64(1000001+i)), relation.Str("n"),
			relation.Str("st"), relation.Str(city), relation.Str("EH9 9NN"))
	}
}

// bigFloatCustomer inserts a customer whose CC is the float 2^53.
func bigFloatCustomer(in *relation.Instance) {
	in.MustInsert(relation.Float(1<<53), relation.Int(131), relation.Int(1000000), relation.Str("n"),
		relation.Str("st"), relation.Str("NYC"), relation.Str("EH1 1LE"))
}

// TestSnapshotMatchesLegacy drives randomized dirty customer instances,
// with mutation churn between rounds, through both detectors.
func TestSnapshotMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{2, 19, 53} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			in := gen.Customers(gen.CustomerConfig{N: 400, Seed: seed, ErrorRate: 0.1})
			bigFloatCustomer(in)
			nanCustomers(in)
			set := benchSet(in.Schema())
			for round := 0; round < 8; round++ {
				for i, e := range set {
					legacy := ecfd.Detect(in, e)
					snap := relation.SnapshotOf(in)
					got := ecfd.DetectWithSnapshot(snap, e, snap.CodeIndexOn(e.LHS()))
					if !reflect.DeepEqual(legacy, got) {
						t.Fatalf("seed %d round %d ecfd %d: legacy %d violations, snapshot %d:\nlegacy   %v\nsnapshot %v",
							seed, round, i, len(legacy), len(got), legacy, got)
					}
					if sg, sl := ecfd.SatisfiesWithSnapshot(snap, e, nil), ecfd.Satisfies(in, e); sg != sl {
						t.Fatalf("seed %d round %d ecfd %d: Satisfies disagree (snapshot %v legacy %v)", seed, round, i, sg, sl)
					}
				}
				// Churn: updates on LHS and RHS attributes, inserts, deletes.
				for i := 0; i < 12; i++ {
					ids := in.IDs()
					switch r.Intn(4) {
					case 0:
						in.MustInsert(relation.Int(44), relation.Int(int64(131+r.Intn(5))),
							relation.Int(int64(1000000+r.Intn(100))), relation.Str("n"),
							relation.Str(fmt.Sprintf("st%d", r.Intn(6))),
							relation.Str([]string{"EDI", "MH", "NYC", "GLA"}[r.Intn(4)]),
							relation.Str(fmt.Sprintf("EH%d 1LE", r.Intn(5))))
					case 1:
						if len(ids) > 0 {
							in.Delete(ids[r.Intn(len(ids))])
						}
					case 2:
						if len(ids) > 0 {
							in.Update(ids[r.Intn(len(ids))], 5,
								relation.Str([]string{"EDI", "MH", "NYC", "GLA", "LDN"}[r.Intn(5)]))
						}
					default:
						if len(ids) > 0 {
							in.Update(ids[r.Intn(len(ids))], 1, relation.Int(int64(131+r.Intn(12))))
						}
					}
				}
			}
		})
	}
}

// TestSnapshotForcedCollisions re-checks equivalence with every probe
// forced into one collision chain.
func TestSnapshotForcedCollisions(t *testing.T) {
	defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 7 })()
	in := gen.Customers(gen.CustomerConfig{N: 250, Seed: 9, ErrorRate: 0.15})
	for i, e := range benchSet(in.Schema()) {
		legacy := ecfd.Detect(in, e)
		snap := relation.NewSnapshot(in)
		got := ecfd.DetectWithSnapshot(snap, e, nil)
		if !reflect.DeepEqual(legacy, got) {
			t.Fatalf("ecfd %d under forced collisions: legacy %v, snapshot %v", i, legacy, got)
		}
	}
}

// TestDetectDeterministic pins the satellite: repeated Detect calls over
// the same instance yield identical slices (the group iteration used to
// ride map order).
func TestDetectDeterministic(t *testing.T) {
	in := gen.Customers(gen.CustomerConfig{N: 300, Seed: 4, ErrorRate: 0.2})
	for _, e := range benchSet(in.Schema()) {
		first := ecfd.Detect(in, e)
		for i := 0; i < 5; i++ {
			if again := ecfd.Detect(in, e); !reflect.DeepEqual(first, again) {
				t.Fatalf("Detect not deterministic: %v vs %v", first, again)
			}
		}
		// And it is in canonical (Row, T1, T2, Attr) order.
		for i := 1; i < len(first); i++ {
			a, b := first[i-1], first[i]
			if a.Row > b.Row || (a.Row == b.Row && (a.T1 > b.T1 ||
				(a.T1 == b.T1 && (a.T2 > b.T2 || (a.T2 == b.T2 && a.Attr > b.Attr))))) {
				t.Fatalf("Detect out of order at %d: %v before %v", i, a, b)
			}
		}
	}
}

// TestDetectTouchedRestriction checks the incremental entry point for
// single-tuple (membership) violations: restricted to touched TIDs it
// reports exactly the full detection's single-tuple violations on those
// TIDs, and pair checks cover the touched tuples' groups.
func TestDetectTouchedRestriction(t *testing.T) {
	in := gen.Customers(gen.CustomerConfig{N: 300, Seed: 8, ErrorRate: 0.2})
	e := benchSet(in.Schema())[1] // membership-only RHS: all single-tuple
	snap := relation.SnapshotOf(in)
	full := ecfd.DetectWithSnapshot(snap, e, nil)
	touched := []relation.TID{1, 2, 5, 8, 13, 999999}
	got := ecfd.DetectTouchedWithSnapshot(snap, e, nil, touched)
	inTouched := func(id relation.TID) bool {
		for _, t := range touched {
			if t == id {
				return true
			}
		}
		return false
	}
	var want []ecfd.Violation
	for _, v := range full {
		if inTouched(v.T1) {
			want = append(want, v)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectTouched = %v, want restriction %v", got, want)
	}
}

// TestKernelTouchedIsFilteredFull pins the contract of the one detection
// body: over a touched scope it reports exactly the full scope's
// violations witnessed by a touched tuple — single-tuple violations of
// touched tuples, pair violations in LHS groups holding a touched tuple
// — for random touched lists naming present, deleted and never-assigned
// TIDs, with and without forced hash collisions, across ∉ cells, ∈ sets
// that lose some or all members to dictionary misses, and NaN members.
func TestKernelTouchedIsFilteredFull(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 5 })()
			}
			r := rand.New(rand.NewSource(31))
			for round := 0; round < 10; round++ {
				in := gen.Customers(gen.CustomerConfig{N: 120, Seed: int64(round), ErrorRate: 0.2})
				for i := 0; i < 15; i++ {
					ids := in.IDs()
					in.Delete(ids[r.Intn(len(ids))])
				}
				nanCustomers(in)
				s := in.Schema()
				set := append(benchSet(s),
					ecfd.MustNew(s, []string{"CC", "city"}, []string{"zip", "AC"},
						ecfd.Row{LHS: []ecfd.Cell{ecfd.Any(), ecfd.In(relation.Str("EDI"), relation.Str("NOWHERE"))},
							RHS: []ecfd.Cell{ecfd.Any(), ecfd.NotIn(relation.Int(131), relation.Float(math.NaN()))}},
						ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Int(1)), ecfd.Any()},
							RHS: []ecfd.Cell{ecfd.Any(), ecfd.In(relation.Int(999), relation.Float(math.NaN()))}}))
				snap := relation.NewSnapshot(in)
				for ei, e := range set {
					full := ecfd.DetectWithSnapshot(snap, e, nil)
					if legacy := ecfd.Detect(in, e); !reflect.DeepEqual(full, legacy) {
						t.Fatalf("round %d ecfd %d: full %v, legacy %v", round, ei, full, legacy)
					}
					for k := 0; k < 5; k++ {
						var touched []relation.TID
						for _, id := range r.Perm(140)[:r.Intn(15)] {
							touched = append(touched, relation.TID(id))
						}
						groups := map[string]bool{}
						present := map[relation.TID]bool{}
						for _, id := range touched {
							if tu, ok := in.Tuple(id); ok {
								present[id] = true
								groups[tu.KeyOn(e.LHS())] = true
							}
						}
						var want []ecfd.Violation
						for _, v := range full {
							t1, _ := in.Tuple(v.T1)
							if (v.T1 == v.T2 && present[v.T1]) || (v.T1 != v.T2 && groups[t1.KeyOn(e.LHS())]) {
								want = append(want, v)
							}
						}
						got := ecfd.DetectTouchedWithSnapshot(snap, e, snap.CodeIndexOn(e.LHS()), touched)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d ecfd %d touched %v:\n got %v\nwant %v", round, ei, touched, got, want)
						}
					}
				}
			}
		})
	}
}

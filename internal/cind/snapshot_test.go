package cind_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cind"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// snapDetect runs the snapshot-path detector for c over db the way the
// engine does: one frozen snapshot per relation, shared group indexes.
func snapDetect(db *relation.Database, c *cind.CIND) []cind.Violation {
	dbs := relation.NewDBSnapshot(db)
	src, _ := dbs.Snapshot(c.Src().Name())
	var srcIx *relation.CodeIndex
	if src != nil {
		srcIx = src.CodeIndexOn(c.SourceGroupPos())
	}
	return cind.DetectWithSnapshot(src, wholeTarget(dbs, c, true), c, srcIx)
}

// wholeTarget is the one-partition target list of c over dbs — empty
// when the target relation is missing — with the target index prebuilt
// when indexed, left for the kernel to build otherwise.
func wholeTarget(dbs *relation.DBSnapshot, c *cind.CIND, indexed bool) []cind.Target {
	dst, ok := dbs.Snapshot(c.Dst().Name())
	if !ok {
		return nil
	}
	t := cind.Target{Snap: dst}
	if indexed {
		t.Index = dst.CodeIndexOn(c.TargetKeyPos())
	}
	return []cind.Target{t}
}

// TestSnapshotMatchesLegacy drives randomized order/book/CD databases —
// including mutation churn that grows the shared dictionaries — through
// both detectors and asserts byte-identical output per CIND, and
// identical Satisfies verdicts.
//
// bigPriceCIND's Xp constant is the int 2^53+1, and every database
// holds an order priced at the float 2^53: the two differ (a float64
// compare would equate them), so that order matches no pattern row.
// nanPriceCIND's Xp constant is NaN, and every database holds two
// NaN-priced orders: both match it, and the one whose title and NaN
// price a NaN-priced book carries satisfies ϕ4, because NaN equals NaN.
func TestSnapshotMatchesLegacy(t *testing.T) {
	phi4, phi5, phi6 := figure4()
	sigma := []*cind.CIND{phi4, phi5, phi6, bigPriceCIND(), nanPriceCIND()}
	for _, seed := range []int64{1, 7, 23} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			db := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 30, Orders: 300, Seed: seed, ViolationRate: 0.2})
			db.MustInstance("order").MustInsert(relation.Str("big"), relation.Str("Unlisted Title"),
				relation.Str("book"), relation.Float(1<<53))
			nan := relation.Float(math.NaN())
			db.MustInstance("order").MustInsert(relation.Str("nan1"), relation.Str("NaN Title"), relation.Str("book"), nan)
			db.MustInstance("order").MustInsert(relation.Str("nan2"), relation.Str("Unlisted Title"), relation.Str("book"), nan)
			db.MustInstance("book").MustInsert(relation.Str("nb-nan"), relation.Str("NaN Title"), nan, relation.Str("hard-cover"))
			for round := 0; round < 8; round++ {
				mutateOrders(r, db)
				for i, c := range sigma {
					legacy := cind.Detect(db, c)
					snap := snapDetect(db, c)
					if !reflect.DeepEqual(legacy, snap) {
						t.Fatalf("seed %d round %d ϕ%d: legacy %d violations, snapshot %d:\nlegacy   %v\nsnapshot %v",
							seed, round, i+4, len(legacy), len(snap), legacy, snap)
					}
					dbs := relation.NewDBSnapshot(db)
					src, _ := dbs.Snapshot(c.Src().Name())
					if got, want := cind.SatisfiesWithSnapshot(src, wholeTarget(dbs, c, false), c, nil), cind.Satisfies(db, c); got != want {
						t.Fatalf("seed %d round %d ϕ%d: SatisfiesWithSnapshot = %v, legacy %v", seed, round, i+4, got, want)
					}
				}
			}
		})
	}
}

// bigPriceCIND is order(title; price) ⊆ book(title) for the single
// price 2^53+1, an int constant over the float price column.
func bigPriceCIND() *cind.CIND {
	return cind.MustNew(paperdata.OrderSchema(), paperdata.BookSchema(),
		[]string{"title"}, []string{"title"}, []string{"price"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Int(1<<53 + 1)}})
}

// nanPriceCIND is order(title; price) ⊆ book(title) for the NaN price.
func nanPriceCIND() *cind.CIND {
	return cind.MustNew(paperdata.OrderSchema(), paperdata.BookSchema(),
		[]string{"title"}, []string{"title"}, []string{"price"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Float(math.NaN())}})
}

// mutateOrders applies a small random batch across the three relations:
// order churn (source side), book/CD churn (target side), fresh values
// included so dictionaries grow.
func mutateOrders(r *rand.Rand, db *relation.Database) {
	order := db.MustInstance("order")
	book := db.MustInstance("book")
	cd := db.MustInstance("CD")
	for i := 0; i < 10; i++ {
		switch r.Intn(6) {
		case 0:
			order.MustInsert(relation.Str(fmt.Sprintf("x%d", r.Intn(10000))),
				relation.Str(fmt.Sprintf("Book Title %d", r.Intn(60))),
				relation.Str([]string{"book", "CD"}[r.Intn(2)]),
				relation.Float(float64(5+r.Intn(30))+0.99))
		case 1:
			ids := order.IDs()
			if len(ids) > 0 {
				order.Delete(ids[r.Intn(len(ids))])
			}
		case 2:
			ids := order.IDs()
			if len(ids) > 0 {
				// Retitle an order, sometimes to a brand-new string.
				title := fmt.Sprintf("Book Title %d", r.Intn(60))
				if r.Intn(3) == 0 {
					title = fmt.Sprintf("Ghost %d", r.Intn(100000))
				}
				order.Update(ids[r.Intn(len(ids))], 1, relation.Str(title))
			}
		case 3:
			book.MustInsert(relation.Str(fmt.Sprintf("nb%d", r.Intn(10000))),
				relation.Str(fmt.Sprintf("Book Title %d", r.Intn(60))),
				relation.Float(float64(5+r.Intn(30))+0.99),
				relation.Str([]string{"hard-cover", "audio"}[r.Intn(2)]))
		case 4:
			ids := book.IDs()
			if len(ids) > 0 {
				book.Delete(ids[r.Intn(len(ids))])
			}
		default:
			ids := cd.IDs()
			if len(ids) > 0 {
				cd.Update(ids[r.Intn(len(ids))], 3, relation.Str([]string{"a-book", "rock"}[r.Intn(2)]))
			}
		}
	}
}

// TestSnapshotMissingAndEmptyTargets pins the edge semantics: a missing
// source relation is vacuous, a missing or empty target relation fails
// every probe, on both paths.
func TestSnapshotMissingAndEmptyTargets(t *testing.T) {
	phi4, _, _ := figure4()
	// Missing target: every matching order tuple violates.
	db := relation.NewDatabase()
	order := relation.NewInstance(paperdata.OrderSchema())
	order.MustInsert(relation.Str("a1"), relation.Str("T1"), relation.Str("book"), relation.Float(9.99))
	order.MustInsert(relation.Str("a2"), relation.Str("T2"), relation.Str("CD"), relation.Float(7.94))
	db.Add(order)
	legacy := cind.Detect(db, phi4)
	snap := snapDetect(db, phi4)
	if !reflect.DeepEqual(legacy, snap) {
		t.Fatalf("missing target: legacy %v, snapshot %v", legacy, snap)
	}
	if len(snap) != 1 || snap[0].TID != 0 {
		t.Fatalf("missing target: want the single 'book' order flagged, got %v", snap)
	}

	// Empty target relation: same verdicts.
	db.Add(relation.NewInstance(paperdata.BookSchema()))
	legacy = cind.Detect(db, phi4)
	snap = snapDetect(db, phi4)
	if !reflect.DeepEqual(legacy, snap) {
		t.Fatalf("empty target: legacy %v, snapshot %v", legacy, snap)
	}

	// Missing source relation: vacuously satisfied.
	db2 := relation.NewDatabase()
	db2.Add(relation.NewInstance(paperdata.BookSchema()))
	if got := snapDetect(db2, phi4); got != nil {
		t.Fatalf("missing source: want nil, got %v", got)
	}
	if !cind.Satisfies(db2, phi4) {
		t.Fatal("missing source: legacy path should be vacuous too")
	}
}

// TestSnapshotForcedCollisions re-runs an equivalence round with every
// CodeIndex probe forced into one collision chain, so target matching
// survives on code verification alone.
func TestSnapshotForcedCollisions(t *testing.T) {
	defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 42 })()
	phi4, phi5, phi6 := figure4()
	db := gen.Orders(gen.OrdersConfig{Books: 25, CDs: 20, Orders: 150, Seed: 5, ViolationRate: 0.25})
	for i, c := range []*cind.CIND{phi4, phi5, phi6} {
		legacy := cind.Detect(db, c)
		snap := snapDetect(db, c)
		if !reflect.DeepEqual(legacy, snap) {
			t.Fatalf("ϕ%d under forced collisions: legacy %v, snapshot %v", i+4, legacy, snap)
		}
	}
}

// TestDetectTouchedWithSnapshot checks the incremental entry point
// against the restriction of a full detection to the touched TIDs.
func TestDetectTouchedWithSnapshot(t *testing.T) {
	phi4, _, _ := figure4()
	db := gen.Orders(gen.OrdersConfig{Books: 30, CDs: 20, Orders: 200, Seed: 11, ViolationRate: 0.2})
	dbs := relation.NewDBSnapshot(db)
	src, _ := dbs.Snapshot("order")
	dsts := wholeTarget(dbs, phi4, false)
	full := cind.DetectWithSnapshot(src, dsts, phi4, nil)

	touched := []relation.TID{0, 3, 5, 7, 1000000} // unknown TIDs are skipped
	inTouched := func(id relation.TID) bool {
		for _, t := range touched {
			if t == id {
				return true
			}
		}
		return false
	}
	var want []cind.Violation
	for _, v := range full {
		if inTouched(v.TID) {
			want = append(want, v)
		}
	}
	got := cind.DetectTouchedWithSnapshot(src, dsts, phi4, touched)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectTouched = %v, want restriction %v", got, want)
	}
}

// TestDetectAllCanonicalOrder asserts the satellite contract: DetectAll
// output is sorted by (TID, Row) with Σ order breaking ties.
func TestDetectAllCanonicalOrder(t *testing.T) {
	phi4, phi5, phi6 := figure4()
	db := gen.Orders(gen.OrdersConfig{Books: 20, CDs: 20, Orders: 150, Seed: 3, ViolationRate: 0.3})
	vs := cind.DetectAll(db, []*cind.CIND{phi4, phi5, phi6})
	if len(vs) == 0 {
		t.Fatal("expected violations at 30% violation rate")
	}
	for i := 1; i < len(vs); i++ {
		a, b := vs[i-1], vs[i]
		if a.TID > b.TID || (a.TID == b.TID && a.Row > b.Row) {
			t.Fatalf("DetectAll not in (TID, Row) order at %d: %v before %v", i, a, b)
		}
	}
}

// TestKernelScopesAndProbes pins the contract of the one detection body
// across its scopes and target partitionings: over a touched scope it
// reports exactly the full scope's violations of touched source tuples
// (random lists of present, deleted and never-assigned TIDs), and the
// same target split across k ∈ {1, 2, 3} partitions — each frozen from
// its own instance, so each has its own dictionaries and its own
// source→target code translation, one sometimes empty — reports exactly
// what the whole-target probe and cind.Detect do: full and touched, with
// a missing target relation (every partition nil) too, and under forced
// hash collisions.
func TestKernelScopesAndProbes(t *testing.T) {
	phi4, phi5, phi6 := figure4()
	sigma := []*cind.CIND{phi4, phi5, phi6, bigPriceCIND(),
		// An Xp constant missing from the source dictionary prunes the row.
		cind.MustNew(paperdata.OrderSchema(), paperdata.BookSchema(),
			[]string{"title"}, []string{"title"}, []string{"type"}, []string{"format"},
			cind.PatternRow{XpVals: []relation.Value{relation.Str("vinyl")}, YpVals: []relation.Value{relation.Str("audio")}},
			cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}, YpVals: []relation.Value{relation.Str("hard-cover")}})}
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprintf("collide=%v", collide), func(t *testing.T) {
			if collide {
				defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 9 })()
			}
			r := rand.New(rand.NewSource(13))
			for round := 0; round < 6; round++ {
				db := gen.Orders(gen.OrdersConfig{Books: 25, CDs: 20, Orders: 120, Seed: int64(round), ViolationRate: 0.25})
				mutateOrders(r, db)
				if round%3 == 2 {
					db = withoutRelation(db, "book") // missing target for all but ϕ5
				}
				dbs := relation.NewDBSnapshot(db)
				for ci, c := range sigma {
					src, _ := dbs.Snapshot(c.Src().Name())
					whole := wholeTarget(dbs, c, false)
					full := cind.DetectWithSnapshot(src, whole, c, nil)
					if legacy := cind.Detect(db, c); !reflect.DeepEqual(full, legacy) {
						t.Fatalf("round %d cind %d: snapshot %v, legacy %v", round, ci, full, legacy)
					}
					for k := 1; k <= 3; k++ {
						parts := partitionTarget(r, db, c, k, round%2 == 1)
						if got := cind.DetectWithSnapshot(src, parts, c, nil); !reflect.DeepEqual(got, full) {
							t.Fatalf("round %d cind %d k=%d: partitioned %v, whole %v", round, ci, k, got, full)
						}
						if got, want := cind.SatisfiesWithSnapshot(src, parts, c, nil), len(full) == 0; got != want {
							t.Fatalf("round %d cind %d k=%d: partitioned Satisfies = %v, want %v", round, ci, k, got, want)
						}
						for n := 0; n < 5; n++ {
							var touched []relation.TID
							for _, id := range r.Perm(160)[:r.Intn(20)] {
								touched = append(touched, relation.TID(id))
							}
							in := map[relation.TID]bool{}
							for _, id := range touched {
								in[id] = true
							}
							var want []cind.Violation
							for _, v := range full {
								if in[v.TID] {
									want = append(want, v)
								}
							}
							if got := cind.DetectTouchedWithSnapshot(src, whole, c, touched); !reflect.DeepEqual(got, want) {
								t.Fatalf("round %d cind %d touched %v: whole %v, want %v", round, ci, touched, got, want)
							}
							if got := cind.DetectTouchedWithSnapshot(src, parts, c, touched); !reflect.DeepEqual(got, want) {
								t.Fatalf("round %d cind %d k=%d touched %v: partitioned %v, want %v", round, ci, k, touched, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// partitionTarget splits c's target relation in db across k fresh
// instances at random — the last one left empty when lastEmpty and k >
// 1 — and freezes each into a partition, prebuilding the index of every
// other one. A missing target relation yields k nil partitions.
func partitionTarget(r *rand.Rand, db *relation.Database, c *cind.CIND, k int, lastEmpty bool) []cind.Target {
	parts := make([]cind.Target, k)
	in, ok := db.Instance(c.Dst().Name())
	if !ok {
		return parts
	}
	n := k
	if lastEmpty && k > 1 {
		n--
	}
	shards := make([]*relation.Instance, k)
	for i := range shards {
		shards[i] = relation.NewInstance(in.Schema())
	}
	for _, id := range in.IDs() {
		tup, _ := in.Tuple(id)
		if err := shards[r.Intn(n)].InsertWithTID(id, tup); err != nil {
			panic(err)
		}
	}
	for i, sh := range shards {
		parts[i].Snap = relation.NewSnapshot(sh)
		if i%2 == 0 {
			parts[i].Index = parts[i].Snap.CodeIndexOn(c.TargetKeyPos())
		}
	}
	return parts
}

// withoutRelation returns a database holding every relation of db but
// the named one.
func withoutRelation(db *relation.Database, name string) *relation.Database {
	out := relation.NewDatabase()
	for _, n := range db.Names() {
		if n != name {
			out.Add(db.MustInstance(n))
		}
	}
	return out
}

package detect

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// mixedSigma builds the mixed fixture over the order/book/CD schemas:
// two CFDs and two eCFDs on order, the three Figure 4 CINDs — one CFD's
// LHS position sequence equals ϕ4's source group positions, so the
// planner must share that index across classes.
func mixedSigma() (cfds []*cfd.CFD, cinds []*cind.CIND, ecfds []*ecfd.ECFD) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cd := paperdata.CDSchema()
	cfds = []*cfd.CFD{
		cfd.MustFD(order, []string{"title"}, []string{"price"}),
		cfd.MustFD(order, []string{"title", "price", "type"}, []string{"asin"}),
	}
	cinds = []*cind.CIND{
		cind.MustNew(order, book,
			[]string{"title", "price"}, []string{"title", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}}),
		cind.MustNew(order, cd,
			[]string{"title", "price"}, []string{"album", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("CD")}}),
		cind.MustNew(cd, book,
			[]string{"album", "price"}, []string{"title", "price"},
			[]string{"genre"}, []string{"format"},
			cind.PatternRow{
				XpVals: []relation.Value{relation.Str("a-book")},
				YpVals: []relation.Value{relation.Str("audio")},
			}),
	}
	ecfds = []*ecfd.ECFD{
		ecfd.MustNew(order, []string{"type"}, []string{"price"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Str("book"), relation.Str("CD"))},
				RHS: []ecfd.Cell{ecfd.Any()}}),
		ecfd.MustNew(order, []string{"title"}, []string{"type"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.Any()},
				RHS: []ecfd.Cell{ecfd.In(relation.Str("book"), relation.Str("CD"))}}),
	}
	return
}

func wrapMixed(cfds []*cfd.CFD, cinds []*cind.CIND, ecfds []*ecfd.ECFD) []Constraint {
	var cs []Constraint
	cs = append(cs, WrapCFDs(cfds)...)
	cs = append(cs, WrapCINDs(cinds)...)
	cs = append(cs, WrapECFDs(ecfds)...)
	return cs
}

// TestDetectBatchMatchesClassDetectors is the acceptance assertion: a
// mixed CFD+CIND+eCFD batch through one shared DBSnapshot splits into
// per-class streams byte-identical to the per-class reference
// detectors, on every worker count.
func TestDetectBatchMatchesClassDetectors(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	for _, seed := range []int64{1, 13, 99} {
		db := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 30, Orders: 400, Seed: seed, ViolationRate: 0.15})
		order := db.MustInstance("order")
		wantCFD := cfd.DetectAll(order, cfds)
		wantCIND := cind.DetectAll(db, cinds)
		wantECFD := ecfd.DetectAll(order, ecfds)
		for _, workers := range []int{1, 2, 8} {
			got := New(workers).DetectBatch(db, cs)
			gotCFD, gotCIND, gotECFD := SplitViolations(got)
			if !reflect.DeepEqual(gotCFD, wantCFD) {
				t.Fatalf("seed %d workers %d: CFD stream diverges:\ngot  %v\nwant %v", seed, workers, gotCFD, wantCFD)
			}
			if !reflect.DeepEqual(gotCIND, wantCIND) {
				t.Fatalf("seed %d workers %d: CIND stream diverges:\ngot  %v\nwant %v", seed, workers, gotCIND, wantCIND)
			}
			if !reflect.DeepEqual(gotECFD, wantECFD) {
				t.Fatalf("seed %d workers %d: eCFD stream diverges:\ngot  %v\nwant %v", seed, workers, gotECFD, wantECFD)
			}
			if len(got) != len(wantCFD)+len(wantCIND)+len(wantECFD) {
				t.Fatalf("seed %d: mixed batch dropped violations", seed)
			}
		}
	}
}

// TestDetectBatchDeterministic: repeated runs and stream runs agree.
func TestDetectBatchDeterministic(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	db := gen.Orders(gen.OrdersConfig{Books: 30, CDs: 20, Orders: 300, Seed: 7, ViolationRate: 0.2})
	e := New(4)
	first := e.DetectBatch(db, cs)
	for i := 0; i < 4; i++ {
		if again := e.DetectBatch(db, cs); !reflect.DeepEqual(first, again) {
			t.Fatalf("DetectBatch not deterministic:\nfirst %v\nagain %v", first, again)
		}
	}
	// The stream delivers per-constraint contiguous runs in Σ order.
	var streamed []Violation
	e.DetectBatchStream(db, cs, func(v Violation) { streamed = append(streamed, v) })
	SortViolations(streamed, SigmaOf(cs))
	if !reflect.DeepEqual(first, streamed) {
		t.Fatal("sorted stream diverges from DetectBatch")
	}
}

// TestPlanBatchSharesAcrossClasses: the CFD on LHS (title, price, type)
// and ϕ4's source grouping resolve to the same lazy index, and the two
// order-CINDs share both requirements outright.
func TestPlanBatchSharesAcrossClasses(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	db := gen.Orders(gen.OrdersConfig{Books: 5, CDs: 5, Orders: 20, Seed: 1})
	e := New(1)
	ctx := e.planBatch(relation.DBSnapshotOf(db), cs)

	sharedCFD := cfds[1] // LHS title, price, type
	sharedCIND := cinds[0]
	keyCFD := relPosKey("order", sharedCFD.LHS())
	keyCIND := relPosKey(sharedCIND.Src().Name(), sharedCIND.SourceGroupPos())
	if keyCFD != keyCIND {
		t.Fatalf("expected the CFD LHS and CIND source-group keys to match: %q vs %q", keyCFD, keyCIND)
	}
	li, ok := ctx.idx[keyCFD]
	if !ok {
		t.Fatal("planner did not register the shared requirement")
	}
	if got := ctx.Index("order", sharedCFD.LHS()); got != li.get() {
		t.Fatal("CFD resolves a different index than the planner's shared one")
	}
	if got := ctx.Index("order", sharedCIND.SourceGroupPos()); got != li.get() {
		t.Fatal("CIND resolves a different index than the planner's shared one")
	}
	// Distinct requirement count: order[title] (FD), order[title,price,type]
	// (CFD2+ϕ4src+ϕ5src), book[title,price] (ϕ4dst), CD[album,price] (ϕ5dst),
	// CD[album,price,genre] (ϕ6src), book[title,price,format] (ϕ6dst),
	// order[type] (ecfd1). ecfd2's order[title] folds into the FD's.
	if len(ctx.idx) != 7 {
		keys := make([]string, 0, len(ctx.idx))
		for k := range ctx.idx {
			keys = append(keys, k)
		}
		t.Fatalf("planner built %d requirements, want 7: %q", len(ctx.idx), keys)
	}
}

// TestSatisfiesBatch agrees with per-class checks on clean and dirty
// databases.
func TestSatisfiesBatch(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	for _, rate := range []float64{0, 0.3} {
		db := gen.Orders(gen.OrdersConfig{Books: 30, CDs: 20, Orders: 200, Seed: 3, ViolationRate: rate})
		order := db.MustInstance("order")
		want := cfd.SatisfiesAll(order, cfds) && cind.SatisfiesAll(db, cinds) && ecfd.SatisfiesAll(order, ecfds)
		for _, e := range []*Engine{New(1), New(4)} {
			if got := e.SatisfiesBatch(db, cs); got != want {
				t.Fatalf("rate %v: SatisfiesBatch = %v, want %v", rate, got, want)
			}
		}
	}
}

// TestDetectBatchMissingRelations: constraints over relations absent
// from the database behave like the class detectors (CFD/eCFD vacuous,
// CIND with missing source vacuous, missing target all-violating).
func TestDetectBatchMissingRelations(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	db := relation.NewDatabase()
	order := relation.NewInstance(paperdata.OrderSchema())
	order.MustInsert(relation.Str("a1"), relation.Str("T"), relation.Str("book"), relation.Float(1.99))
	order.MustInsert(relation.Str("a2"), relation.Str("T"), relation.Str("CD"), relation.Float(2.99))
	db.Add(order) // book and CD missing entirely
	got := e4(t, db, cs)
	gotCFD, gotCIND, gotECFD := SplitViolations(got)
	if !reflect.DeepEqual(gotCFD, cfd.DetectAll(order, cfds)) {
		t.Fatal("CFD stream diverges with missing relations")
	}
	if !reflect.DeepEqual(gotCIND, cind.DetectAll(db, cinds)) {
		t.Fatal("CIND stream diverges with missing relations")
	}
	if !reflect.DeepEqual(gotECFD, ecfd.DetectAll(order, ecfds)) {
		t.Fatal("eCFD stream diverges with missing relations")
	}
	// Both orders probe missing targets: two CIND violations.
	if len(gotCIND) != 2 {
		t.Fatalf("want both orders flagged against missing targets, got %v", gotCIND)
	}
}

func e4(t *testing.T, db *relation.Database, cs []Constraint) []Violation {
	t.Helper()
	return New(4).DetectBatch(db, cs)
}

// TestDetectBatchForcedCollisions re-runs the acceptance equivalence
// with every CodeIndex probe in one collision chain.
func TestDetectBatchForcedCollisions(t *testing.T) {
	defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 3 })()
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	db := gen.Orders(gen.OrdersConfig{Books: 20, CDs: 15, Orders: 150, Seed: 21, ViolationRate: 0.25})
	order := db.MustInstance("order")
	got := New(2).DetectBatch(db, cs)
	gotCFD, gotCIND, gotECFD := SplitViolations(got)
	if !reflect.DeepEqual(gotCFD, cfd.DetectAll(order, cfds)) ||
		!reflect.DeepEqual(gotCIND, cind.DetectAll(db, cinds)) ||
		!reflect.DeepEqual(gotECFD, ecfd.DetectAll(order, ecfds)) {
		t.Fatal("mixed batch diverges from class detectors under forced collisions")
	}
}

// TestWrapAccessors covers the adapter surface the engine relies on.
func TestWrapAccessors(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	c := WrapCFD(cfds[0])
	if c.Class() != ClassCFD || c.Dep() != cfds[0] || c.Primary() != "order" {
		t.Fatal("CFD wrapper accessors broken")
	}
	ci := WrapCIND(cinds[0])
	if ci.Class() != ClassCIND || ci.Primary() != "order" || len(ci.Reads()) != 2 || len(ci.Reqs()) != 2 {
		t.Fatal("CIND wrapper accessors broken")
	}
	ec := WrapECFD(ecfds[0])
	if ec.Class() != ClassECFD || ec.Dep() != ecfds[0] {
		t.Fatal("eCFD wrapper accessors broken")
	}
	for _, cl := range []Class{ClassCFD, ClassCIND, ClassECFD} {
		if cl.String() == "" {
			t.Fatal("Class.String empty")
		}
	}
	if s := fmt.Sprint(c.Reqs()); s == "" {
		t.Fatal("Reqs render empty")
	}
}

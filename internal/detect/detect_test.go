package detect

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// The tests here pin the engine's CFD-only behaviour on the batch API —
// a one-relation database under CFDs wrapped as Constraints — against
// the string-keyed reference detectors of package cfd.

// sigmaFigure2 is the paper's Figure 2 rule set plus the plain FDs of
// Figure 1 — five CFDs over three distinct LHS position sets, so the plan
// must share indexes.
func sigmaFigure2(s *relation.Schema) []*cfd.CFD {
	return []*cfd.CFD{
		paperdata.F1(s),
		paperdata.F2(s),
		paperdata.Phi1(s),
		paperdata.Phi2(s),
		paperdata.Phi3(s),
	}
}

// dbOf wraps one instance as a database.
func dbOf(in *relation.Instance) *relation.Database {
	db := relation.NewDatabase()
	db.Add(in)
	return db
}

// cfdsOf keeps the CFD violations of a batch result, in order.
func cfdsOf(vs []Violation) []cfd.Violation {
	out, _, _ := SplitViolations(vs)
	return out
}

// sigmaOfBatch unwraps a CFD-only batch.
func sigmaOfBatch(cs []Constraint) []*cfd.CFD {
	out := make([]*cfd.CFD, len(cs))
	for i, c := range cs {
		out[i] = c.Dep().(*cfd.CFD)
	}
	return out
}

// touchedFor repeats one touched list for every constraint of the batch.
func touchedFor(cs []Constraint, touched []relation.TID) [][]relation.TID {
	out := make([][]relation.TID, len(cs))
	for i := range out {
		out[i] = touched
	}
	return out
}

// detectTouchedOn evaluates each constraint's EvalTouched over its
// touched TID list (indexed like cs) on one snapshot and merges the
// results canonically: the touched restriction of DetectBatchOn.
func detectTouchedOn(e *Engine, dbs *relation.DBSnapshot, cs []Constraint, touched [][]relation.TID) []Violation {
	ctx := e.planBatch(dbs, cs)
	var out []Violation
	runOrdered(e.workers(), len(cs), func(i int) []Violation {
		if len(touched[i]) == 0 {
			return nil
		}
		return cs[i].EvalTouched(ctx, touched[i])
	}, func(vs []Violation) { out = append(out, vs...) })
	SortViolations(out, SigmaOf(cs))
	return out
}

func TestPlanSharesIndexes(t *testing.T) {
	db, _, cs := customerDB(50, 1, 0.1)
	ctx := New(0).planBatch(relation.DBSnapshotOf(db), cs)
	// F1/Phi2 share [CC, AC, phn]; F2/Phi3 share [CC, AC]; Phi1 alone
	// uses [CC, zip]: 3 indexes for 5 CFDs.
	if len(ctx.idx) != 3 {
		t.Fatalf("plan built %d shared indexes, want 3", len(ctx.idx))
	}
}

func TestDetectAllMatchesLegacy(t *testing.T) {
	for _, n := range []int{0, 1, 50, 500, 2000} {
		for _, rate := range []float64{0, 0.05, 0.3} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("n=%d/rate=%.2f/workers=%d", n, rate, workers), func(t *testing.T) {
					db, in, cs := customerDB(n, int64(n)+7, rate)
					want := cfd.DetectAll(in, sigmaOfBatch(cs))
					got := New(workers).DetectBatch(db, cs)
					if !reflect.DeepEqual(cfdsOf(got), want) || len(got) != len(want) {
						t.Fatalf("engine output diverges from cfd.DetectAll:\n got %d violations\nwant %d violations", len(got), len(want))
					}
				})
			}
		}
	}
}

func TestDetectAllDeterministic(t *testing.T) {
	db, _, cs := customerDB(1500, 42, 0.2)
	e := New(8)
	first := e.DetectBatch(db, cs)
	for i := 0; i < 5; i++ {
		again := e.DetectBatch(db, cs)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d produced a different slice", i)
		}
	}
}

func TestStreamOrderDeterministic(t *testing.T) {
	db, in, cs := customerDB(1500, 3, 0.2)
	e := New(8)
	collect := func() []Violation {
		var out []Violation
		e.DetectBatchStream(db, cs, func(v Violation) { out = append(out, v) })
		return out
	}
	first := collect()
	for i := 0; i < 5; i++ {
		if again := collect(); !reflect.DeepEqual(first, again) {
			t.Fatalf("stream %d delivered a different order", i)
		}
	}
	// The stream is the Σ-ordered concatenation of per-CFD Detect
	// results: each CFD's violations arrive as one contiguous run.
	var want []Violation
	for _, c := range sigmaOfBatch(cs) {
		want = append(want, box(cfd.Detect(in, c))...)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("stream order is not the Σ-ordered concatenation of Detect results")
	}
}

func TestSatisfiesAllAgrees(t *testing.T) {
	for _, rate := range []float64{0, 0.1} {
		for _, workers := range []int{1, 2, 8} {
			db, in, cs := customerDB(400, 11, rate)
			want := cfd.SatisfiesAll(in, sigmaOfBatch(cs))
			if got := New(workers).SatisfiesBatch(db, cs); got != want {
				t.Fatalf("rate=%v workers=%d: engine says %v, cfd.SatisfiesAll says %v", rate, workers, got, want)
			}
		}
	}
}

func TestSatisfiesAllEarlyCancel(t *testing.T) {
	// 64 CFDs, every one violated. With a single worker the feeder must
	// stop after the first evaluation; the remaining 63 are cancelled.
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("b"))
	in.MustInsert(relation.Str("a"), relation.Str("b'"))
	var sigma []*cfd.CFD
	for i := 0; i < 64; i++ {
		sigma = append(sigma, cfd.MustFD(s, []string{"A"}, []string{"B"}))
	}
	dbs, cs := relation.DBSnapshotOf(dbOf(in)), WrapCFDs(sigma)
	ok, evaluated := New(1).satisfiesBatchOn(dbs, cs)
	if ok {
		t.Fatal("instance satisfies a violated key")
	}
	if evaluated != 1 {
		t.Fatalf("evaluated %d CFDs after the first violation, want 1", evaluated)
	}
	// With many workers the count may exceed 1 (in-flight tasks finish)
	// but cancellation must still keep it well below the full batch.
	ok, evaluated = New(4).satisfiesBatchOn(dbs, cs)
	if ok {
		t.Fatal("parallel run missed the violation")
	}
	if evaluated >= 64 {
		t.Fatalf("parallel run evaluated all %d CFDs; early cancel is broken", evaluated)
	}
}

func TestDetectTouchedMatchesLegacy(t *testing.T) {
	db, in, cs := customerDB(800, 23, 0)
	street := in.Schema().MustLookup("street")
	city := in.Schema().MustLookup("city")
	in.Update(3, street, relation.Str("Wrong St"))
	in.Update(10, city, relation.Str("Nowhere"))
	touched := []relation.TID{3, 10}

	var want []cfd.Violation
	for _, c := range sigmaOfBatch(cs) {
		want = append(want, cfd.DetectTouched(in, c, touched)...)
	}
	cfd.SortViolations(want)

	for _, workers := range []int{1, 2, 8} {
		got := detectTouchedOn(New(workers), relation.DBSnapshotOf(db), cs, touchedFor(cs, touched))
		if !reflect.DeepEqual(cfdsOf(got), want) {
			t.Fatalf("workers=%d: incremental batch diverges from cfd.DetectTouched", workers)
		}
	}
}

// TestCodecMatchesLegacyEngine pits the engine's columnar snapshot/
// CodeIndex path against the string-keyed reference detectors on
// randomized instances across every CFD-relevant batch entry point;
// outputs must be byte-identical.
func TestCodecMatchesLegacyEngine(t *testing.T) {
	for _, n := range []int{0, 1, 200, 1500} {
		for _, rate := range []float64{0, 0.05, 0.3} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("n=%d/rate=%.2f/workers=%d", n, rate, workers), func(t *testing.T) {
					db, in, cs := customerDB(n, int64(n)*31+5, rate)
					sigma := sigmaOfBatch(cs)
					e := New(workers)
					if got, want := cfdsOf(e.DetectBatch(db, cs)), cfd.DetectAll(in, sigma); !reflect.DeepEqual(got, want) {
						t.Fatalf("DetectBatch diverges: %d vs %d violations", len(got), len(want))
					}
					if got, want := e.SatisfiesBatch(db, cs), cfd.SatisfiesAll(in, sigma); got != want {
						t.Fatalf("SatisfiesBatch diverges: engine %v, reference %v", got, want)
					}
					var touched []relation.TID
					for _, id := range in.IDs() {
						if int(id)%7 == 0 {
							touched = append(touched, id)
						}
					}
					var want []cfd.Violation
					for _, c := range sigma {
						want = append(want, cfd.DetectTouched(in, c, touched)...)
					}
					cfd.SortViolations(want)
					got := cfdsOf(detectTouchedOn(e, relation.DBSnapshotOf(db), cs, touchedFor(cs, touched)))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("touched detection diverges: %d vs %d violations", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestDetectionAfterUpdateRebuilds asserts the staleness contract:
// DetectBatch freezes the database per call, so detection after an
// Update reflects the new data rather than stale groups, while
// DetectBatchOn keeps reading the frozen snapshot it is handed.
func TestDetectionAfterUpdateRebuilds(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("x"))
	in.MustInsert(relation.Str("a"), relation.Str("x"))
	sigma := []*cfd.CFD{cfd.MustFD(s, []string{"A"}, []string{"B"})}
	db, cs := dbOf(in), WrapCFDs(sigma)
	e := New(2)
	if vs := e.DetectBatch(db, cs); len(vs) != 0 {
		t.Fatalf("clean instance yielded %d violations", len(vs))
	}
	before := relation.DBSnapshotOf(db)
	if err := in.Update(1, 1, relation.Str("y")); err != nil {
		t.Fatal(err)
	}
	if snap, _ := before.Snapshot("r"); !snap.Stale() {
		t.Fatal("pre-update snapshot not reported stale")
	}
	got := e.DetectBatch(db, cs)
	if len(got) == 0 {
		t.Fatal("detection after update found nothing: engine read stale groups")
	}
	if want := cfd.DetectAll(in, sigma); !reflect.DeepEqual(cfdsOf(got), want) {
		t.Fatalf("post-update engine output diverges from cfd.DetectAll: %d vs %d", len(got), len(want))
	}
	if vs := e.DetectBatchOn(before, cs); len(vs) != 0 {
		t.Fatalf("the pre-update snapshot yielded %d violations: DetectBatchOn read the live instance", len(vs))
	}
}

// TestCodecMatchesLegacyOnNaN pins the NaN corner: the dictionary folds
// all NaN data values onto one code (like Value.Key on the string-keyed
// path), and Value.Equal treats NaN as equal to NaN, so NaN-keyed LHS
// groups form and two NaN RHS cells agree — the engine and cfd.DetectAll
// must agree exactly.
func TestCodecMatchesLegacyOnNaN(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindFloat),
		relation.Attr("B", relation.KindString),
		relation.Attr("C", relation.KindFloat),
	)
	in := relation.NewInstance(s)
	nan := math.NaN()
	in.MustInsert(relation.Float(nan), relation.Str("x"), relation.Float(nan))
	in.MustInsert(relation.Float(nan), relation.Str("y"), relation.Float(nan))
	in.MustInsert(relation.Float(2.5), relation.Str("x"), relation.Float(1))
	sigma := []*cfd.CFD{
		cfd.MustFD(s, []string{"A"}, []string{"B"}),
		cfd.MustFD(s, []string{"A"}, []string{"C"}), // the RHS-NaN pair agrees
	}
	want := cfd.DetectAll(in, sigma)
	got := New(1).DetectBatch(dbOf(in), WrapCFDs(sigma))
	if !reflect.DeepEqual(cfdsOf(got), want) {
		t.Fatalf("NaN handling diverges: engine %v, cfd.DetectAll %v", got, want)
	}
	if len(want) != 1 || want[0].CFD != sigma[0] {
		t.Fatalf("cfd.DetectAll found %v, want only the NaN pair disagreeing on B", want)
	}
}

// TestNilEngine pins the contract that a nil *Engine behaves like the
// zero value on every entry point.
func TestNilEngine(t *testing.T) {
	db, in, cs := customerDB(50, 1, 0.1)
	sigma := sigmaOfBatch(cs)
	var e *Engine
	if got := e.DetectBatch(db, cs); !reflect.DeepEqual(cfdsOf(got), cfd.DetectAll(in, sigma)) {
		t.Fatal("nil engine DetectBatch diverges from cfd.DetectAll")
	}
	if e.SatisfiesBatch(db, cs) != cfd.SatisfiesAll(in, sigma) {
		t.Fatal("nil engine SatisfiesBatch diverges from cfd.SatisfiesAll")
	}
	if got := detectTouchedOn(e, relation.DBSnapshotOf(db), cs, touchedFor(cs, in.IDs())); !reflect.DeepEqual(cfdsOf(got), cfd.DetectAll(in, sigma)) {
		t.Fatal("nil engine touched detection over every TID diverges from cfd.DetectAll")
	}
}

func TestEmptyBatch(t *testing.T) {
	db, _, _ := customerDB(10, 1, 0)
	e := New(0)
	if vs := e.DetectBatch(db, nil); len(vs) != 0 {
		t.Fatalf("empty Σ produced %d violations", len(vs))
	}
	if !e.SatisfiesBatch(db, nil) {
		t.Fatal("every instance satisfies the empty Σ")
	}
	if vs := detectTouchedOn(e, relation.DBSnapshotOf(db), nil, nil); len(vs) != 0 {
		t.Fatalf("empty Σ produced %d incremental violations", len(vs))
	}
}

// Package detect is the batch violation-detection engine behind checking,
// repair and incremental maintenance: the hot path of Fan's framework
// ("catch inconsistencies and errors that emerge as violations of the
// dependencies") made to run as fast as the hardware allows.
//
// The engine improves on calling cfd.Detect in a loop in three ways:
//
//  1. Columnar snapshots. By default a batch freezes the instance once
//     into a relation.Snapshot — dense per-attribute arrays of
//     dictionary codes — and every group index is a relation.CodeIndex
//     hashing fixed-width code sequences to uint64. No per-tuple heap
//     strings, no map lookup per tuple, value equality as an integer
//     compare. The string-keyed relation.Index path remains available
//     (Legacy) as the compatibility/oracle path.
//
//  2. Index sharing. Detection groups tuples by the LHS of a dependency,
//     and building that index costs a full pass over the instance — for
//     FD-rich rule sets it dominates the run time. The engine plans a
//     batch by grouping CFDs on identical LHS position sets and builds
//     each index exactly once, lazily, sharing it (and the snapshot)
//     across every CFD and tableau row of the group.
//
//  3. Parallelism. Per-CFD work fans out across a configurable worker
//     pool (default runtime.GOMAXPROCS(0)). Violations stream through a
//     reorder buffer to a Sink in deterministic Σ order, and DetectAll
//     merges them with exactly the comparator of cfd.DetectAll, so the
//     engine's output is byte-identical to the legacy sequential path.
//
// SatisfiesAll additionally cancels early: the first violation found by
// any worker stops the remaining work, including snapshot and index
// builds that have not started yet.
//
// The engine core is constraint-class-agnostic: planning, index
// sharing, fan-out and the deterministic merge run over the Constraint
// interface (see constraint.go), with CFDs, CINDs and eCFDs shipped as
// its implementations. Mixed batches evaluate through one shared
// relation.DBSnapshot (Engine.DetectBatch), requirements deduplicate by
// (relation, position set) across classes, and the stateful DBMonitor
// maintains a mixed violation set incrementally across multi-relation
// update batches — including the target side of CIND inclusions. The
// CFD-typed entry points below (DetectAll, SatisfiesAll, ...) remain
// the unboxed fast path for CFD-only callers (repair, the CLIs).
package detect

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// Engine schedules batch violation detection. The zero value is valid and
// uses one worker per available CPU and the columnar snapshot path;
// engines are stateless across calls and safe for concurrent use.
type Engine struct {
	// Workers is the size of the worker pool; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Legacy forces the string-keyed relation.Index path instead of the
	// columnar snapshot/CodeIndex path. The outputs are byte-identical;
	// the legacy path exists as the oracle for equivalence testing and
	// for A/B benchmarking of the representations.
	Legacy bool
}

// New returns an engine with the given worker-pool size (<= 0 means one
// worker per available CPU), running on the columnar snapshot path.
func New(workers int) *Engine { return &Engine{Workers: workers} }

// NewLegacy returns an engine pinned to the string-keyed relation.Index
// path — the oracle/compatibility configuration.
func NewLegacy(workers int) *Engine { return &Engine{Workers: workers, Legacy: true} }

func (e *Engine) workers() int {
	if e != nil && e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sink consumes a stream of violations. The engine invokes it from a
// single goroutine at a time; implementations must not call back into the
// same engine run.
type Sink func(cfd.Violation)

// task is one unit of work: one CFD of the batch plus the index shared by
// its LHS group.
type task struct {
	c  *cfd.CFD
	ix *sharedIndex
}

// sharedSnapshot lazily resolves the instance's version-keyed snapshot
// (relation.SnapshotOf) on first use; the whole batch shares one
// snapshot, whatever the number of LHS groups, and an unchanged instance
// reuses the previous batch's interned columns and group indexes.
// Laziness keeps early-cancelled runs from paying even the cache probe.
// The *On entry points preset the snapshot instead (detection against a
// specific snapshot, possibly not the instance's latest).
type sharedSnapshot struct {
	once   sync.Once
	in     *relation.Instance
	preset *relation.Snapshot
	snap   *relation.Snapshot
}

func (s *sharedSnapshot) get() *relation.Snapshot {
	s.once.Do(func() {
		if s.preset != nil {
			s.snap = s.preset
		} else {
			s.snap = relation.SnapshotOf(s.in)
		}
	})
	return s.snap
}

// sharedIndex lazily builds the LHS group index on first use and shares
// it across every task of the same LHS group: a relation.CodeIndex over
// the batch snapshot on the snapshot path, a relation.Index otherwise.
// Laziness matters for early cancellation: a SatisfiesAll run that finds
// a violation in its first group never pays for the others' indexes.
type sharedIndex struct {
	once sync.Once
	in   *relation.Instance
	snap *sharedSnapshot // nil on the legacy path
	pos  []int
	ix   *relation.Index
	cx   *relation.CodeIndex
}

func (s *sharedIndex) get() *relation.Index {
	s.once.Do(func() { s.ix = relation.BuildIndex(s.in, s.pos) })
	return s.ix
}

func (s *sharedIndex) getCode() *relation.CodeIndex {
	s.once.Do(func() { s.cx = s.snap.get().CodeIndexOn(s.pos) })
	return s.cx
}

// plan groups the batch by identical LHS position sets: one sharedIndex
// per distinct set, one task per CFD, in Σ order; on the snapshot path
// every group additionally shares one lazily built snapshot.
func (e *Engine) plan(in *relation.Instance, set []*cfd.CFD) []task {
	return e.planOn(in, nil, set)
}

// planOn is plan with an optional caller-supplied snapshot: when preset
// is non-nil the snapshot path runs on it (and its cached group
// indexes) instead of resolving relation.SnapshotOf.
func (e *Engine) planOn(in *relation.Instance, preset *relation.Snapshot, set []*cfd.CFD) []task {
	var snap *sharedSnapshot
	if !e.legacy() { // nil-safe: a nil *Engine behaves like the zero value
		snap = &sharedSnapshot{in: in, preset: preset}
	}
	groups := make(map[string]*sharedIndex)
	tasks := make([]task, 0, len(set))
	for _, c := range set {
		key := lhsKey(c.LHS())
		ix, ok := groups[key]
		if !ok {
			ix = &sharedIndex{in: in, snap: snap, pos: c.LHS()}
			groups[key] = ix
		}
		tasks = append(tasks, task{c: c, ix: ix})
	}
	return tasks
}

func lhsKey(pos []int) string {
	b := make([]byte, 0, 3*len(pos))
	for _, p := range pos {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// DetectAll returns every violation of the set in the instance, in the
// same deterministic order as cfd.DetectAll (with which it is
// output-identical), using snapshot/index sharing and the worker pool.
func (e *Engine) DetectAll(in *relation.Instance, set []*cfd.CFD) []cfd.Violation {
	var out []cfd.Violation
	e.DetectAllStream(in, set, func(v cfd.Violation) { out = append(out, v) })
	cfd.SortViolations(out)
	return out
}

// runDetect is the single representation-dispatch point of the detect
// entry points: it plans the batch and runs it through the reorder
// buffer with either the string-keyed or the snapshot-backed per-task
// evaluator, according to Engine.Legacy.
func (e *Engine) runDetect(in *relation.Instance, set []*cfd.CFD, sink Sink,
	legacyEval func(*relation.Instance, *cfd.CFD, *relation.Index) []cfd.Violation,
	snapEval func(*relation.Snapshot, *cfd.CFD, *relation.CodeIndex) []cfd.Violation,
) {
	e.runDetectOn(in, nil, set, sink, legacyEval, snapEval)
}

// runDetectOn is runDetect with an optional caller-supplied snapshot
// (see planOn).
func (e *Engine) runDetectOn(in *relation.Instance, preset *relation.Snapshot, set []*cfd.CFD, sink Sink,
	legacyEval func(*relation.Instance, *cfd.CFD, *relation.Index) []cfd.Violation,
	snapEval func(*relation.Snapshot, *cfd.CFD, *relation.CodeIndex) []cfd.Violation,
) {
	tasks := e.planOn(in, preset, set)
	eval := func(t task) []cfd.Violation {
		return snapEval(t.ix.snap.get(), t.c, t.ix.getCode())
	}
	if e.legacy() {
		eval = func(t task) []cfd.Violation {
			return legacyEval(in, t.c, t.ix.get())
		}
	}
	runOrdered(e.workers(), len(tasks),
		func(i int) []cfd.Violation { return eval(tasks[i]) },
		func(vs []cfd.Violation) {
			for _, v := range vs {
				sink(v)
			}
		})
}

// DetectAllStream runs DetectAll but delivers violations to sink as they
// are merged: each CFD's violations arrive as a contiguous run, CFDs in Σ
// order, each run sorted by (Row, T1, T2, Attr) — a deterministic stream
// regardless of worker count or scheduling.
func (e *Engine) DetectAllStream(in *relation.Instance, set []*cfd.CFD, sink Sink) {
	e.runDetect(in, set, sink, cfd.DetectWithIndex, cfd.DetectWithSnapshot)
}

// DetectAllExhaustive is DetectAll with exhaustive pair reporting (see
// cfd.DetectExhaustiveWithIndex): every pair of tuples disagreeing on an
// RHS attribute within a violating LHS group yields a violation, not just
// pairs against the group representative. Conflict-hypergraph
// construction requires this form.
func (e *Engine) DetectAllExhaustive(in *relation.Instance, set []*cfd.CFD) []cfd.Violation {
	var out []cfd.Violation
	e.runDetect(in, set, func(v cfd.Violation) { out = append(out, v) },
		cfd.DetectExhaustiveWithIndex, cfd.DetectExhaustiveWithSnapshot)
	cfd.SortViolations(out)
	return out
}

// DetectTouched returns the violations of the set whose witnesses involve
// at least one touched tuple (see cfd.DetectTouched), merged in the
// canonical order, sharing the snapshot, indexes and the worker pool
// across the batch. It is the batch entry point for incremental detection
// after updates.
func (e *Engine) DetectTouched(in *relation.Instance, set []*cfd.CFD, touched []relation.TID) []cfd.Violation {
	var out []cfd.Violation
	e.runDetect(in, set, func(v cfd.Violation) { out = append(out, v) },
		func(in *relation.Instance, c *cfd.CFD, ix *relation.Index) []cfd.Violation {
			return cfd.DetectTouchedWithIndex(in, c, ix, touched)
		},
		func(snap *relation.Snapshot, c *cfd.CFD, cx *relation.CodeIndex) []cfd.Violation {
			return cfd.DetectTouchedWithSnapshot(snap, c, cx, touched)
		})
	cfd.SortViolations(out)
	return out
}

// The *On entry points run detection against a caller-supplied snapshot
// — any snapshot the caller wants to hold fixed across calls (repair
// iterations, a pre- and a post-batch snapshot pair) — instead of
// resolving relation.SnapshotOf internally. Cached group indexes of the
// snapshot are shared exactly as on the default path. On a Legacy
// engine they fall back to the string-keyed path over the snapshot's
// source instance, which is only equivalent while the snapshot is
// current (snap.Stale() == false).

// DetectAllOn is DetectAll evaluated on the given snapshot.
func (e *Engine) DetectAllOn(snap *relation.Snapshot, set []*cfd.CFD) []cfd.Violation {
	var out []cfd.Violation
	e.runDetectOn(snap.Source(), snap, set, func(v cfd.Violation) { out = append(out, v) },
		cfd.DetectWithIndex, cfd.DetectWithSnapshot)
	cfd.SortViolations(out)
	return out
}

// DetectAllExhaustiveOn is DetectAllExhaustive evaluated on the given
// snapshot.
func (e *Engine) DetectAllExhaustiveOn(snap *relation.Snapshot, set []*cfd.CFD) []cfd.Violation {
	var out []cfd.Violation
	e.runDetectOn(snap.Source(), snap, set, func(v cfd.Violation) { out = append(out, v) },
		cfd.DetectExhaustiveWithIndex, cfd.DetectExhaustiveWithSnapshot)
	cfd.SortViolations(out)
	return out
}

// DetectTouchedOn is DetectTouched evaluated on the given snapshot:
// touched TIDs absent from the snapshot are skipped, so the same
// touched list can be diffed against a pre-batch and a post-batch
// snapshot (the core move of incremental maintenance).
func (e *Engine) DetectTouchedOn(snap *relation.Snapshot, set []*cfd.CFD, touched []relation.TID) []cfd.Violation {
	var out []cfd.Violation
	e.runDetectOn(snap.Source(), snap, set, func(v cfd.Violation) { out = append(out, v) },
		func(in *relation.Instance, c *cfd.CFD, ix *relation.Index) []cfd.Violation {
			return cfd.DetectTouchedWithIndex(in, c, ix, touched)
		},
		func(s *relation.Snapshot, c *cfd.CFD, cx *relation.CodeIndex) []cfd.Violation {
			return cfd.DetectTouchedWithSnapshot(s, c, cx, touched)
		})
	cfd.SortViolations(out)
	return out
}

// SatisfiesAll reports whether the instance satisfies every CFD of the
// set (D ⊨ Σ), cancelling outstanding work as soon as any worker finds a
// violation.
func (e *Engine) SatisfiesAll(in *relation.Instance, set []*cfd.CFD) bool {
	ok, _ := e.satisfiesAll(in, set)
	return ok
}

// SatisfiesAllOn is SatisfiesAll evaluated on the given snapshot, with
// the same early cancellation.
func (e *Engine) SatisfiesAllOn(snap *relation.Snapshot, set []*cfd.CFD) bool {
	ok, _ := e.satisfiesAllOn(snap.Source(), snap, set)
	return ok
}

func (e *Engine) legacy() bool { return e != nil && e.Legacy }

// satisfies evaluates one task on the configured representation.
func (e *Engine) satisfies(in *relation.Instance, t task) bool {
	if e.legacy() {
		return cfd.SatisfiesWithIndex(in, t.c, t.ix.get())
	}
	return cfd.SatisfiesWithSnapshot(t.ix.snap.get(), t.c, t.ix.getCode())
}

// satisfiesAll additionally reports how many CFDs were actually
// evaluated, which the tests use to observe early cancellation.
func (e *Engine) satisfiesAll(in *relation.Instance, set []*cfd.CFD) (bool, int64) {
	return e.satisfiesAllOn(in, nil, set)
}

func (e *Engine) satisfiesAllOn(in *relation.Instance, preset *relation.Snapshot, set []*cfd.CFD) (bool, int64) {
	tasks := e.planOn(in, preset, set)
	return runCancel(e.workers(), len(tasks), func(i int) bool {
		return e.satisfies(in, tasks[i])
	})
}

// runOrdered is the constraint-class-agnostic scheduler under every
// batch entry point: it fans n tasks out across a pool of workers
// goroutines and delivers each task's result batch to emit in task
// order through a reorder buffer — batch i is emitted only after
// batches 0..i-1, whatever order the workers finish in. The result type
// is opaque (a []cfd.Violation on the CFD entry points, a []Violation
// on the mixed-class ones), so every class pays zero boxing it did not
// ask for.
func runOrdered[R any](workers, n int, eval func(int) R, emit func(R)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			emit(eval(i))
		}
		return
	}
	results := make([]R, n)
	ready := make([]bool, n)
	var mu sync.Mutex
	next := 0
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := eval(i)
				mu.Lock()
				results[i], ready[i] = r, true
				for next < n && ready[next] {
					emit(results[next])
					var zero R
					results[next] = zero
					next++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	wg.Wait()
}

// runCancel evaluates n tasks on the pool, cancelling outstanding work
// as soon as any task reports false; it returns whether every evaluated
// task reported true and how many tasks were actually evaluated (the
// observable for early-cancellation tests).
func runCancel(workers, n int, eval func(int) bool) (ok bool, evaluated int64) {
	var failed atomic.Bool
	var count atomic.Int64
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			count.Add(1)
			if !eval(i) {
				return false, count.Load()
			}
		}
		return true, count.Load()
	}
	queue := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if failed.Load() {
					continue // drain: a violation was already found
				}
				count.Add(1)
				if !eval(i) {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return !failed.Load(), count.Load()
}

// Package detect is the batch violation-detection engine behind checking,
// incremental maintenance and the monitoring service: the hot path of
// Fan's framework ("catch inconsistencies and errors that emerge as
// violations of the dependencies") made to run as fast as the hardware
// allows.
//
// The engine evaluates a batch of constraints — CFDs, CINDs and eCFDs
// behind the Constraint interface (see constraint.go) — in three ways
// faster than calling the per-class detectors in a loop:
//
//  1. Columnar snapshots. A batch freezes the database once into a
//     relation.DBSnapshot — dense per-attribute arrays of dictionary
//     codes — and every group index is a relation.CodeIndex hashing
//     fixed-width code sequences to uint64. No per-tuple heap strings,
//     no map lookup per tuple, value equality as an integer compare.
//     Each class evaluates through its one columnar detection body (its
//     *WithSnapshot kernels); the string-keyed per-class detectors
//     (cfd.DetectAll, cind.DetectAll, ecfd.DetectAll) stay as the
//     reference the tests compare against.
//
//  2. Index sharing. Detection groups tuples by the LHS of a dependency,
//     and building that index costs a full pass over the relation — for
//     FD-rich rule sets it dominates the run time. The planner
//     deduplicates the batch's index requirements by (relation,
//     position set) across classes and builds each index exactly once,
//     lazily, sharing it across every constraint and tableau row that
//     asked for it.
//
//  3. Parallelism. Per-constraint work fans out across a configurable
//     worker pool (default runtime.GOMAXPROCS(0)). Violations stream
//     through a reorder buffer in deterministic Σ order, and DetectBatch
//     merges them with a comparator that restricts to each class's own
//     canonical order, so every per-class subsequence is byte-identical
//     to the class's reference detector.
//
// SatisfiesBatch additionally cancels early: the first violation found
// by any worker stops the remaining work, including index builds that
// have not started yet. The stateful ShardedDBMonitor maintains a mixed
// violation set incrementally across multi-relation update batches,
// including the target side of CIND inclusions; over a flat database it
// runs with one shard (NewDBMonitor).
package detect

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Engine schedules batch violation detection. The zero value is valid and
// uses one worker per available CPU; engines are stateless across calls
// and safe for concurrent use. A nil *Engine behaves like the zero value.
type Engine struct {
	// Workers is the size of the worker pool; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// New returns an engine with the given worker-pool size (<= 0 means one
// worker per available CPU).
func New(workers int) *Engine { return &Engine{Workers: workers} }

func (e *Engine) workers() int {
	if e != nil && e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func lhsKey(pos []int) string {
	b := make([]byte, 0, 3*len(pos))
	for _, p := range pos {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// runOrdered is the scheduler under every batch entry point: it fans n
// tasks out across a pool of workers goroutines and delivers each task's
// result to emit in task order through a reorder buffer — result i is
// emitted only after results 0..i-1, whatever order the workers finish
// in. The result type is opaque: a []Violation on the batch entry
// points, per-shard scan and error results in the sharded monitor.
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

package repro_test

// Benchmarks for the internal/detect engine (DESIGN.md E22), three modes:
//
//	seq       string-keyed cfd.DetectAll — one index build per CFD
//	codec     engine DetectBatch, 1 worker, over a one-relation
//	          database: columnar snapshot + CodeIndex shared per LHS;
//	          the version-keyed snapshot cache is warm, so this is the
//	          steady-state serving cost
//	codeccold codec with the cache defeated every iteration — the cost
//	          of freezing, interning and indexing a batch from scratch
//
// on gen-produced dirty customer instances of 10k–500k tuples and 1–64
// CFDs drawn from two LHS position sets. Every mode reports allocations;
// the speedup and allocs/op drop claimed in EXPERIMENTS.md are measured
// here, not asserted:
//
//	go test -run '^$' -bench EngineDetectAll -benchmem .
//
// The 500k-tuple tier is skipped under -short so the CI smoke stays fast.

import (
	"fmt"
	"testing"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/relation"
)

// engineBenchSigma builds k CFDs over the customer schema drawn from two
// LHS position sets — [CC, zip] → street and [CC, AC] → city — with
// rotating country-code pattern constants, so an engine plan of k CFDs
// needs only 2 index builds where the sequential path needs k.
func engineBenchSigma(s *relation.Schema, k int) []*cfd.CFD {
	ccs := []int64{44, 1, 31, 49, 33, 39, 34, 46}
	out := make([]*cfd.CFD, 0, k)
	for i := 0; i < k; i++ {
		cc := cfd.Const(relation.Int(ccs[i%len(ccs)]))
		if i%2 == 0 {
			out = append(out, cfd.MustNew(s, []string{"CC", "zip"}, []string{"street"},
				cfd.Row([]cfd.Cell{cc, cfd.Any()}, []cfd.Cell{cfd.Any()})))
		} else {
			out = append(out, cfd.MustNew(s, []string{"CC", "AC"}, []string{"city"},
				cfd.Row([]cfd.Cell{cc, cfd.Any()}, []cfd.Cell{cfd.Any()})))
		}
	}
	return out
}

func BenchmarkEngineDetectAll(b *testing.B) {
	for _, n := range []int{10000, 100000, 500000} {
		if n > 100000 && testing.Short() {
			continue
		}
		in := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
		s := in.Schema()
		for _, k := range []int{1, 8, 64} {
			sigma := engineBenchSigma(s, k)
			b.Run(fmt.Sprintf("n=%d/cfds=%d/seq", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfd.DetectAll(in, sigma)
				}
			})
			db, cs := relation.NewDatabase(), detect.WrapCFDs(sigma)
			db.Add(in)
			b.Run(fmt.Sprintf("n=%d/cfds=%d/codec", n, k), func(b *testing.B) {
				b.ReportAllocs()
				e := detect.New(1)
				e.DetectBatch(db, cs) // warm the snapshot cache: this mode measures steady state
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.DetectBatch(db, cs)
				}
			})
			// codeccold defeats the version-keyed snapshot cache with a
			// no-op Update before each run: the cost of freezing the
			// snapshot and interning/indexing from scratch every batch.
			b.Run(fmt.Sprintf("n=%d/cfds=%d/codeccold", n, k), func(b *testing.B) {
				b.ReportAllocs()
				e := detect.New(1)
				t0, _ := in.Tuple(0)
				v := t0[0]
				for i := 0; i < b.N; i++ {
					in.Update(0, 0, v)
					e.DetectBatch(db, cs)
				}
			})
		}
	}
}

// incrOps builds one deterministic update batch for the incremental
// benchmarks: half the updates rewrite street (an RHS attribute — group
// structure untouched, the best case for index splicing), half rewrite
// zip (an LHS attribute of the [CC, zip] rules — tuples move between
// groups). Values rotate through bounded pools so dictionaries do not
// grow without bound across benchmark iterations.
func incrOps(in *relation.Instance, round, size int) []detect.DBOp {
	s := in.Schema()
	street, zip := s.MustLookup("street"), s.MustLookup("zip")
	ids := in.IDs()
	ops := make([]detect.DBOp, size)
	for i := range ops {
		id := ids[(round*7919+i*104729)%len(ids)]
		if i%2 == 0 {
			ops[i] = detect.UpdateIn(s.Name(), id, street, relation.Str(fmt.Sprintf("St %d", (round+i)%997)))
		} else {
			ops[i] = detect.UpdateIn(s.Name(), id, zip, relation.Str(fmt.Sprintf("EH%d %dLE", (round+i)%25+1, i%10)))
		}
	}
	return ops
}

// applyOps applies a batch directly to the instance (the non-monitor
// modes) and returns the touched TIDs.
func applyOps(b *testing.B, in *relation.Instance, ops []detect.DBOp) []relation.TID {
	touched := make([]relation.TID, len(ops))
	for i, op := range ops {
		if err := in.Update(op.Op.TID, op.Op.Pos, op.Op.Val); err != nil {
			b.Fatal(err)
		}
		touched[i] = op.Op.TID
	}
	return touched
}

// BenchmarkMonitorIncr measures the steady-state cost of absorbing one
// update batch, in three disciplines (DESIGN.md E23):
//
//	monitor  stateful detect.DBMonitor over the one-relation database:
//	         snapshot and group indexes caught up via the changelog
//	         (structural sharing + O(|Δ|) intern), DetectTouched
//	         diffed on the touched groups only
//	rebuild  invalidate-and-rebuild (PR 2's behavior after a mutation):
//	         fresh snapshot freeze + column interning + index builds,
//	         then the touched CFD kernel on the batch
//	full     fresh snapshot plus the full CFD kernel — the
//	         batch-detection baseline with no incremental machinery
//
// across 100k/500k tuples × batch sizes {1, 10, 1000} × {1, 8, 64}
// CFDs. The 500k tier is skipped under -short.
func BenchmarkMonitorIncr(b *testing.B) {
	for _, n := range []int{100000, 500000} {
		if n > 100000 && testing.Short() {
			continue
		}
		s := gen.Customers(gen.CustomerConfig{N: 1, Seed: 1, ErrorRate: 0}).Schema()
		for _, k := range []int{1, 8, 64} {
			sigma := engineBenchSigma(s, k)
			for _, bs := range []int{1, 10, 1000} {
				b.Run(fmt.Sprintf("n=%d/cfds=%d/batch=%d/monitor", n, k, bs), func(b *testing.B) {
					b.ReportAllocs()
					in := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
					db := relation.NewDatabase()
					db.Add(in)
					m := detect.NewDBMonitor(detect.New(1), db, detect.WrapCFDs(sigma))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, _, err := m.Apply(incrOps(in, i, bs)); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(fmt.Sprintf("n=%d/cfds=%d/batch=%d/rebuild", n, k, bs), func(b *testing.B) {
					b.ReportAllocs()
					in := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						touched := applyOps(b, in, incrOps(in, i, bs))
						snap := relation.NewSnapshot(in) // nothing carried over
						for _, c := range sigma {
							cfd.DetectTouchedWithSnapshot(snap, c, snap.CodeIndexOn(c.LHS()), touched)
						}
					}
				})
				b.Run(fmt.Sprintf("n=%d/cfds=%d/batch=%d/full", n, k, bs), func(b *testing.B) {
					b.ReportAllocs()
					in := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						applyOps(b, in, incrOps(in, i, bs))
						snap := relation.NewSnapshot(in)
						for _, c := range sigma {
							cfd.DetectWithSnapshot(snap, c, snap.CodeIndexOn(c.LHS()))
						}
					}
				})
			}
		}
	}
}

// BenchmarkEngineSatisfiesAll measures the early-cancel path: the dirty
// instance violates the very first rule, so the engine's cancellation
// skips almost the whole batch while the string-keyed loop at least
// pays one full index build and scan per preceding clean rule.
func BenchmarkEngineSatisfiesAll(b *testing.B) {
	n := 100000
	if testing.Short() {
		n = 10000
	}
	in := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
	sigma := engineBenchSigma(in.Schema(), 16)
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfd.SatisfiesAll(in, sigma)
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		db, cs := relation.NewDatabase(), detect.WrapCFDs(sigma)
		db.Add(in)
		e := detect.New(0)
		e.SatisfiesBatch(db, cs) // warm the snapshot cache: this mode measures steady state
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.SatisfiesBatch(db, cs)
		}
	})
}

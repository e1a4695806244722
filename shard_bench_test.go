package repro_test

// Benchmarks for the sharded ingest path (DESIGN.md "Sharding layer",
// EXPERIMENTS.md E26):
//
//	BenchmarkShardIngest/n=100k/shards=S/batch=B
//
// One iteration submits a batch of B ops — half fresh-row inserts,
// half single-cell updates of a fixed 1024-tuple hot set — to a
// serve.Service over an n-tuple customer instance monitored by the
// constant-pattern halves of ϕ2 — ([CC, AC, phn] → [city], {(44, 131,
// _ ‖ EDI), (01, 908, _ ‖ MH)}), cfd2/cfd3 of Figure 2 — and waits for
// the commit ack. The pure-FD row of ϕ2 is deliberately left out: at
// 1M tuples, random 7-digit phones birthday-collide into tens of
// thousands of same-(CC, AC, phn) pairs, and the resulting fixed
// violation mass would dominate the measurement. Inserted rows carry
// (CC, AC) = (99, 555) — no pattern row matches, so they never
// violate — and the hot-set updates flip city values in and out of
// the patterns: every batch gains and clears violations, but the
// outstanding set stays small and stationary, so the publish cost is
// a constant and the measurement isolates per-commit ingest work.
//
// shards=1 runs the plain single-writer service — the baseline — and
// shards>1 the hash-partitioned one, keyed on phn (contained in the
// LHS, so every shard evaluates the rule locally and no update ever
// migrates a tuple). What sharding divides is the structural snapshot
// rebuild: a commit containing an insert forces the monitor's
// incremental catch-up (internal/relation Snapshot.Apply) onto the
// non-structural path — new row arrays, spliced code columns and group
// indexes, all O(rows) — and while the flat service re-splices all n
// rows, a sharded service re-splices only the O(n/S) rows of the
// shards the batch actually hit. At batch=1 an insert lands on exactly
// one shard, so per-commit work drops S-fold — that localization, not
// parallelism (the CI box has one CPU), is where the speedup comes
// from, and why it widens with n. Large batches scatter inserts across
// every shard, so on one CPU the per-shard rebuilds sum back to O(n);
// on multicore hardware they run concurrently, because the sharded
// monitor's Sync catches the shards up on the engine's worker pool.
// The 1M tier only runs without -short:
//
//	go test -run '^$' -bench ShardIngest -benchmem .
import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/relation"
	"repro/internal/serve"
)

// shardBenchOps pregenerates the ingest mix: alternating fresh-row
// inserts (pattern-free (99, 555) customers that never violate) and
// single-cell updates over a fixed hot set of hotN tuples — city flips
// among the ϕ2 pattern constants and their complements, streets
// reshuffle. Bounded update working set → bounded violation set,
// whatever b.N is.
func shardBenchOps(n, hotN, count int, seed int64) []detect.DBOp {
	r := rand.New(rand.NewSource(seed))
	hot := r.Perm(n)[:hotN]
	cities := []string{"EDI", "MH", "NYC", "LDN"}
	streets := []string{"Mayfield", "Crichton", "Mtn Ave", "Preston"}
	ops := make([]detect.DBOp, count)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = detect.InsertInto("customer", relation.Tuple{
				relation.Int(99), relation.Int(555), relation.Int(int64(1000000 + r.Intn(9000000))),
				relation.Str("New Customer"), relation.Str(streets[r.Intn(len(streets))]),
				relation.Str(cities[r.Intn(len(cities))]), relation.Str("EH8 9AB"),
			})
			continue
		}
		id := relation.TID(hot[r.Intn(hotN)])
		if r.Intn(2) == 0 {
			ops[i] = detect.UpdateIn("customer", id, 5, relation.Str(cities[r.Intn(len(cities))]))
		} else {
			ops[i] = detect.UpdateIn("customer", id, 4, relation.Str(streets[r.Intn(len(streets))]))
		}
	}
	return ops
}

func BenchmarkShardIngest(b *testing.B) {
	sizes := []struct {
		n    int
		name string
	}{{100_000, "100k"}}
	if !testing.Short() {
		sizes = append(sizes, struct {
			n    int
			name string
		}{1_000_000, "1M"})
	}
	for _, size := range sizes {
		pool := shardBenchOps(size.n, 1024, 1<<16, 17)
		for _, shards := range []int{1, 2, 4, 8} {
			for _, batch := range []int{1, 10, 1000} {
				name := fmt.Sprintf("n=%s/shards=%d/batch=%d", size.name, shards, batch)
				b.Run(name, func(b *testing.B) {
					in := gen.Customers(gen.CustomerConfig{N: size.n, Seed: 7, ErrorRate: 0})
					db := relation.NewDatabase()
					db.Add(in)
					s := in.Schema()
					phi := cfd.MustNew(s, []string{"CC", "AC", "phn"}, []string{"city"},
						cfd.Row([]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Const(relation.Int(131)), cfd.Any()},
							[]cfd.Cell{cfd.Const(relation.Str("EDI"))}),
						cfd.Row([]cfd.Cell{cfd.Const(relation.Int(1)), cfd.Const(relation.Int(908)), cfd.Any()},
							[]cfd.Cell{cfd.Const(relation.Str("MH"))}))
					cs := detect.WrapCFDs([]*cfd.CFD{phi})
					cfg := serve.Config{DB: db, Constraints: cs}
					if shards > 1 {
						cfg.Shards = shards
						cfg.ShardKeys = map[string][]int{"customer": {2}} // phn
					}
					svc, err := serve.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					ctx := context.Background()
					defer svc.Stop(ctx)

					b.ReportAllocs()
					b.ResetTimer()
					at := 0
					for i := 0; i < b.N; i++ {
						ops := make([]detect.DBOp, batch)
						for j := range ops {
							ops[j] = pool[at]
							at = (at + 1) % len(pool)
						}
						if _, err := svc.Submit(ctx, ops); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ops/sec")
				})
			}
		}
	}
}

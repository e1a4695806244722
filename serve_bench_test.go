package repro_test

// Benchmarks for the serve layer's single-writer ingest loop
// (DESIGN.md E25):
//
//	BenchmarkServeIngest/n=20k/batch=B/subs=S/readers=R
//
// One iteration submits a batch of B update ops to a serve.Service over
// a 20k-tuple customer instance with the Figure 2 CFDs and waits for
// the commit ack, while S subscribers drain the delta stream and R
// readers serve a steady request load off the published state — 1k
// reads/sec each (ticker-paced, like HTTP requests, not a spin loop
// that would just measure CPU contention on small boxes): every read
// walks the full violation list, every 16th aggregates Counts, every
// 64th runs a SatisfiesBatchOn probe on the published snapshot. The
// acceptance claim of the serve layer — read endpoints are served off
// the immutable pre-published snapshot and never block the writer —
// is measured here as readers=8 ingest throughput staying within ~10%
// of readers=0:
//
//	go test -run '^$' -bench ServeIngest -benchmem .
import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/serve"
)

// serveBenchOps pregenerates a cycle of single-cell update ops over the
// customer instance: city flips between the ϕ2/ϕ3 pattern constants
// (EDI/MH/NYC) and streets reshuffle, so every batch both gains and
// clears violations — the steady churn a live monitor sees.
func serveBenchOps(n, count int, seed int64) []detect.DBOp {
	r := rand.New(rand.NewSource(seed))
	cities := []string{"EDI", "MH", "NYC", "LDN"}
	streets := []string{"Mayfield", "Crichton", "Mtn Ave", "Preston"}
	ops := make([]detect.DBOp, count)
	for i := range ops {
		id := relation.TID(r.Intn(n))
		if r.Intn(2) == 0 {
			ops[i] = detect.UpdateIn("customer", id, 5, relation.Str(cities[r.Intn(len(cities))]))
		} else {
			ops[i] = detect.UpdateIn("customer", id, 4, relation.Str(streets[r.Intn(len(streets))]))
		}
	}
	return ops
}

func BenchmarkServeIngest(b *testing.B) {
	const n = 20_000
	pool := serveBenchOps(n, 1<<16, 11)
	for _, batch := range []int{1, 10, 1000} {
		for _, subs := range []int{1, 8} {
			for _, readers := range []int{0, 8} {
				name := fmt.Sprintf("n=20k/batch=%d/subs=%d/readers=%d", batch, subs, readers)
				b.Run(name, func(b *testing.B) {
					in := gen.Customers(gen.CustomerConfig{N: n, Seed: 3, ErrorRate: 0.02})
					db := relation.NewDatabase()
					db.Add(in)
					s := in.Schema()
					cs := detect.WrapCFDs([]*cfd.CFD{
						paperdata.Phi1(s), paperdata.Phi2(s), paperdata.Phi3(s),
					})
					svc, err := serve.New(serve.Config{DB: db, Constraints: cs})
					if err != nil {
						b.Fatal(err)
					}
					ctx := context.Background()
					defer svc.Stop(ctx)

					stop := make(chan struct{})
					var wg sync.WaitGroup
					// Subscribers drain their streams; big buffers so none
					// is dropped mid-measurement.
					for i := 0; i < subs; i++ {
						sub := svc.SubscribeBuf(1 << 16)
						wg.Add(1)
						go func() {
							defer wg.Done()
							for range sub.Events() {
							}
						}()
					}
					// Readers never touch the monitor: published state only.
					probe := detect.WrapCFDs([]*cfd.CFD{paperdata.Phi3(s)})
					for i := 0; i < readers; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							tick := time.NewTicker(time.Millisecond)
							defer tick.Stop()
							for i := 0; ; i++ {
								select {
								case <-stop:
									return
								case <-tick.C:
								}
								st := svc.State()
								for _, v := range st.Violations() {
									_ = v
								}
								if i%16 == 0 {
									svc.Counts()
								}
								if i%64 == 0 {
									svc.Check(probe)
								}
							}
						}()
					}

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
					close(stop)
					svc.Stop(ctx)
					wg.Wait()
				})
			}
		}
	}
}

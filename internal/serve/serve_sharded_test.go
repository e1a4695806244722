package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// shardableServeSigma is serveSigma with the type-grouped eCFD swapped
// for a title-grouped one, so every CFD/eCFD LHS contains title and the
// derived order key keeps the batch shard-local.
func shardableServeSigma() []detect.Constraint {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cd := paperdata.CDSchema()
	cfds := []*cfd.CFD{
		cfd.MustFD(order, []string{"title"}, []string{"price"}),
		cfd.MustFD(order, []string{"title", "price", "type"}, []string{"asin"}),
	}
	cinds := []*cind.CIND{
		cind.MustNew(order, book,
			[]string{"title", "price"}, []string{"title", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}}),
		cind.MustNew(order, cd,
			[]string{"title", "price"}, []string{"album", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("CD")}}),
	}
	ecfds := []*ecfd.ECFD{
		ecfd.MustNew(order, []string{"title"}, []string{"type"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.Any()},
				RHS: []ecfd.Cell{ecfd.In(relation.Str("book"), relation.Str("CD"), relation.Str("vinyl"))}}),
	}
	var cs []detect.Constraint
	cs = append(cs, detect.WrapCFDs(cfds)...)
	cs = append(cs, detect.WrapCINDs(cinds)...)
	cs = append(cs, detect.WrapECFDs(ecfds)...)
	return cs
}

// TestServiceShardedOracle drives randomized batches through a sharded
// service and an unsharded one side by side and requires, every round,
// that both published violation lists equal a fresh DetectBatch on a
// shadow database mutated by the same ops — the end-to-end
// byte-identity the sharding seam promises.
func TestServiceShardedOracle(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seed := int64(31 + shards)
			cs := shardableServeSigma()
			db := ordersDB(seed, 150)
			shadow := db.Clone()
			svc, err := New(Config{DB: db, Constraints: cs, Engine: detect.New(2), Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Stop(context.Background())
			flat, err := New(Config{DB: db.Clone(), Constraints: cs, Engine: detect.New(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer flat.Stop(context.Background())
			if svc.Shards() != shards || flat.Shards() != 1 {
				t.Fatalf("Shards() = %d/%d, want %d/1", svc.Shards(), flat.Shards(), shards)
			}

			oracle := detect.New(1)
			r := rand.New(rand.NewSource(seed))
			fresh := 0
			ctx := context.Background()
			placement := orderPlacement(svc.State().Shards)
			moves := 0
			for round := 0; round < 12; round++ {
				batch := make([]detect.DBOp, 1+r.Intn(10))
				dead := make(map[string]map[relation.TID]bool)
				for i := range batch {
					batch[i] = randomServeOp(r, shadow, &fresh, dead)
				}
				res, err := svc.Submit(ctx, batch)
				if err != nil {
					t.Fatalf("round %d: sharded Submit: %v", round, err)
				}
				fres, err := flat.Submit(ctx, batch)
				if err != nil {
					t.Fatalf("round %d: flat Submit: %v", round, err)
				}
				if res.Gained != fres.Gained || res.Cleared != fres.Cleared {
					t.Fatalf("round %d: diff sizes diverge: +%d -%d vs +%d -%d",
						round, res.Gained, res.Cleared, fres.Gained, fres.Cleared)
				}
				if err := applyShadow(shadow, batch); err != nil {
					t.Fatalf("round %d: shadow apply: %v", round, err)
				}
				want := oracle.DetectBatch(shadow, cs)
				if got := svc.Violations(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: sharded service has %d violations, shadow detection %d:\nservice %v\nfresh   %v",
						round, len(got), len(want), got, want)
				}
				if got := flat.Violations(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: flat service diverges from shadow", round)
				}

				st := svc.State()
				if st.Snapshot != nil || len(st.Shards) != shards {
					t.Fatalf("round %d: sharded State should publish %d shard snapshots and no merged one", round, shards)
				}
				if recount := shardRecount(st.Shards, want); !reflect.DeepEqual(st.ShardViolations, recount) {
					t.Fatalf("round %d: ShardViolations %v, recount by primary tuple %v", round, st.ShardViolations, recount)
				}
				// The ops retitle orders and rekey books, so tuples move
				// across shards — the case the per-shard counts must follow.
				place := orderPlacement(st.Shards)
				for id, shard := range place {
					if was, ok := placement[id]; ok && was != shard {
						moves++
					}
				}
				placement = place
				// The cross-partition read path: /check's gather must agree
				// with the shadow on the monitored rules.
				_, ok, err := svc.Check(cs)
				if err != nil {
					t.Fatalf("round %d: Check: %v", round, err)
				}
				if ok != (len(want) == 0) {
					t.Fatalf("round %d: sharded Check = %v with %d violations", round, ok, len(want))
				}
			}
			if moves == 0 {
				t.Fatal("no order tuple moved across shards; the per-shard counts went untested on moves")
			}
		})
	}
}

// primaryTID is the violation's primary-relation tuple: the tuple whose
// shard a violation is attributed to.
func primaryTID(v detect.Violation) relation.TID {
	switch v := v.(type) {
	case cfd.Violation:
		return v.T1
	case cind.Violation:
		return v.TID
	case ecfd.Violation:
		return v.T1
	}
	panic(fmt.Sprintf("unknown violation type %T", v))
}

// shardRecount counts the violations per shard independently of the
// service, by the published shard snapshot holding each violation's
// primary tuple.
func shardRecount(shards []*relation.DBSnapshot, vs []detect.Violation) []int {
	counts := make([]int, len(shards))
	for _, v := range vs {
		for s, ds := range shards {
			if snap, ok := ds.Snapshot(detect.RelationOf(v)); ok {
				if _, ok := snap.Row(primaryTID(v)); ok {
					counts[s]++
					break
				}
			}
		}
	}
	return counts
}

// orderPlacement maps every order tuple to the shard holding it.
func orderPlacement(shards []*relation.DBSnapshot) map[relation.TID]int {
	out := make(map[relation.TID]int)
	for s, ds := range shards {
		snap, _ := ds.Snapshot("order")
		for r := 0; r < snap.Len(); r++ {
			out[snap.TID(r)] = s
		}
	}
	return out
}

// TestServiceShardedRejectsUnshardable: a rule set without a common
// shard key fails at New, not at first commit.
func TestServiceShardedRejectsUnshardable(t *testing.T) {
	_, err := New(Config{DB: ordersDB(1, 20), Constraints: serveSigma(), Shards: 2})
	if err == nil {
		t.Fatal("serveSigma's type-grouped eCFD must not be shardable under the derived title key")
	}
}

// TestServiceShardedExplicitKeys: Config.ShardKeys overrides
// derivation; a key outside every LHS is rejected.
func TestServiceShardedExplicitKeys(t *testing.T) {
	cs := shardableServeSigma()
	svc, err := New(Config{DB: ordersDB(3, 40), Constraints: cs, Shards: 2,
		ShardKeys: map[string][]int{"order": {1}, "book": {1, 2}, "CD": {1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	svc.Stop(context.Background())
	_, err = New(Config{DB: ordersDB(3, 40), Constraints: cs, Shards: 2,
		ShardKeys: map[string][]int{"order": {0}}}) // asin: in no LHS
	if err == nil {
		t.Fatal("asin key must be rejected: not contained in the CFD LHSs")
	}
}

// TestHandlerShardedStats covers the sharded fields of the HTTP
// surface: /healthz exposes the shard count, /stats carries shardCount
// plus per-shard tuple/violation/queue-depth rows consistent with the
// totals.
func TestHandlerShardedStats(t *testing.T) {
	cs := shardableServeSigma()
	svc, err := New(Config{DB: ordersDB(9, 120), Constraints: cs, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop(context.Background())
	h := NewHandler(svc)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health struct {
		Status string `json:"status"`
		Shards int    `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Shards != 4 {
		t.Fatalf("healthz = %+v, want ok with 4 shards", health)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		Relations  map[string]int `json:"relations"`
		Violations int            `json:"violations"`
		ShardCount int            `json:"shardCount"`
		Shards     []struct {
			Shard      int `json:"shard"`
			Tuples     int `json:"tuples"`
			Violations int `json:"violations"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShardCount != 4 || len(stats.Shards) != 4 {
		t.Fatalf("stats shardCount %d with %d shard rows, want 4/4", stats.ShardCount, len(stats.Shards))
	}
	wantTuples := 0
	for _, n := range stats.Relations {
		wantTuples += n
	}
	gotTuples, gotViolations := 0, 0
	for i, sh := range stats.Shards {
		if sh.Shard != i {
			t.Fatalf("shard row %d labeled %d", i, sh.Shard)
		}
		gotTuples += sh.Tuples
		gotViolations += sh.Violations
	}
	if gotTuples != wantTuples {
		t.Fatalf("per-shard tuples sum to %d, relations sum to %d", gotTuples, wantTuples)
	}
	if gotViolations != stats.Violations {
		t.Fatalf("per-shard violations sum to %d, total is %d", gotViolations, stats.Violations)
	}

	// An unsharded service reports shardCount 1 and no shard rows.
	flat, err := New(Config{DB: ordersDB(9, 30), Constraints: cs})
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Stop(context.Background())
	rec = httptest.NewRecorder()
	NewHandler(flat).ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var flatStats struct {
		ShardCount int             `json:"shardCount"`
		Shards     json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &flatStats); err != nil {
		t.Fatal(err)
	}
	if flatStats.ShardCount != 1 || len(flatStats.Shards) != 0 {
		t.Fatalf("unsharded stats: shardCount %d, shards %q", flatStats.ShardCount, flatStats.Shards)
	}
}

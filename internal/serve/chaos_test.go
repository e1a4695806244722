// Fault-matrix and chaos tests: scripted filesystem faults (via
// fault.Injector under DurableConfig.FS) and scheduling faults (via
// the sharded monitor's SetShardHookForTest) against the service,
// checking the robustness contract end to end — the server either answers
// byte-identically to a fault-free shadow run or reports itself
// degraded; it never serves a wrong answer and never loses an
// acknowledged commit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/relation"
)

// detectText is the fault-free oracle: a fresh full detection over db,
// rendered in the same canonical text the service publishes.
func detectText(db *relation.Database, cs []detect.Constraint) string {
	return ViolationsText(detect.New(2).DetectBatch(db, cs))
}

// faultyDrive drives n sequential one-request commits against a
// possibly-faulty service, mirroring each SUCCESSFUL ack onto the
// shadow database and collecting the rejected batches with their
// errors. The shadow therefore tracks exactly the acknowledged
// history.
type faultyDrive struct {
	lastAcked uint64
	acked     int
	ackedOps  int
	rejected  [][]detect.DBOp
	rejErrs   []error
}

func driveFaulty(t *testing.T, svc *Service, shadow *relation.Database, r *rand.Rand, fresh *int, n int) *faultyDrive {
	t.Helper()
	ctx := context.Background()
	d := &faultyDrive{lastAcked: svc.State().Seq}
	for i := 0; i < n; i++ {
		dead := map[string]map[relation.TID]bool{}
		nops := 1 + r.Intn(4)
		ops := make([]detect.DBOp, 0, nops)
		for j := 0; j < nops; j++ {
			ops = append(ops, randomServeOp(r, shadow, fresh, dead))
		}
		res, err := svc.Submit(ctx, ops)
		if err != nil {
			d.rejected = append(d.rejected, ops)
			d.rejErrs = append(d.rejErrs, err)
			continue
		}
		d.lastAcked = res.Seq
		d.acked++
		d.ackedOps += len(ops)
		if aerr := applyShadow(shadow, ops); aerr != nil {
			t.Fatalf("batch %d: shadow: %v", i, aerr)
		}
	}
	return d
}

// checkRecovery reopens the data directory with a CLEAN filesystem and
// asserts zero acked-commit loss: the recovered Seq covers every
// acknowledged commit, and the recovered violation set matches the
// shadow — or, when the WAL held one sync-failed (appended but
// rejected) batch, the shadow plus exactly that batch. Anything else
// is a wrong answer.
func checkRecovery(t *testing.T, dir string, cs []detect.Constraint, shards int, base *relation.Database,
	shadow *relation.Database, d *faultyDrive) {
	t.Helper()
	svc2 := mustNew(t, Config{DB: base, Constraints: cs, Shards: shards, Durable: &DurableConfig{Dir: dir}})
	st := svc2.State()
	if st.Seq < d.lastAcked {
		t.Fatalf("recovered Seq %d < last acked %d: acknowledged commit lost", st.Seq, d.lastAcked)
	}
	got := ViolationsText(st.Violations())
	if st.Seq == d.lastAcked {
		if want := detectText(shadow, cs); got != want {
			t.Fatalf("recovered state diverges from acked history:\n got: %q\nwant: %q", got, want)
		}
		return
	}
	if st.Seq != d.lastAcked+1 {
		t.Fatalf("recovered Seq %d, acked %d: at most one un-acked batch can survive in the WAL",
			st.Seq, d.lastAcked)
	}
	// One un-acked record survived: legal — a batch whose append hit the
	// file before its fsync failed is rejected but may still be durable.
	// The log goes fail-stop the moment that happens, so it is exactly
	// one of the rejected batches, applied on top of the acked history.
	for _, ops := range d.rejected {
		extra := shadow.Clone()
		if err := applyShadow(extra, ops); err != nil {
			continue
		}
		if got == detectText(extra, cs) {
			return
		}
	}
	t.Fatalf("recovered Seq %d (acked %d) matches neither the acked history nor an un-acked tail:\n got: %q",
		st.Seq, d.lastAcked, got)
}

// eachShardMode runs body once against a flat service, in t itself so
// the flat cases keep their names, and once against a 2-shard service
// in the subtest "shards=2" — each with the rule set its mode accepts.
// Both modes commit through the same path, so they share one contract.
func eachShardMode(t *testing.T, body func(t *testing.T, shards int, cs []detect.Constraint)) {
	body(t, 0, serveSigma())
	t.Run("shards=2", func(t *testing.T) { body(t, 2, shardableServeSigma()) })
}

// TestFaultMatrix enumerates scripted single-fault scenarios over the
// durable write path and checks each one's contracted behavior: which
// commits fail, what health state results, and that restart over the
// repaired (clean) filesystem loses nothing acknowledged — flat and
// sharded alike.
func TestFaultMatrix(t *testing.T) {
	// Occurrences on the segment file: write #1 and sync #1 are the
	// magic header at segment creation, so write/sync #N+1 is commit N
	// (SyncEvery=1 syncs inline before each ack).
	cases := []struct {
		name         string
		faults       []fault.Fault
		wantRejected int
		wantHealth   Health
		wantFired    int
	}{
		{
			// fsync EIO: fail-stop. The faulted commit is rejected, the
			// service degrades to read-only, every later write fails fast.
			name:         "wal-sync-eio",
			faults:       []fault.Fault{{Op: fault.OpSync, Path: "/wal/", Nth: 4, Err: fault.EIO}},
			wantRejected: 3, // commit 3 (ErrWAL) + commits 4,5 (ErrReadOnly)
			wantHealth:   ReadOnly,
			wantFired:    1,
		},
		{
			// ENOSPC on an append write: the partial frame is repaired
			// away, only that commit is rejected, and the log stays
			// healthy for the commits after it.
			name:         "wal-write-enospc",
			faults:       []fault.Fault{{Op: fault.OpWrite, Path: "/wal/", Nth: 3, Err: fault.ENOSPC}},
			wantRejected: 1,
			wantHealth:   Healthy,
			wantFired:    1,
		},
		{
			// Short write: a torn frame hits the file; repair truncates it
			// and the log continues.
			name:         "wal-write-short",
			faults:       []fault.Fault{{Op: fault.OpWrite, Path: "/wal/", Nth: 3, Short: 5}},
			wantRejected: 1,
			wantHealth:   Healthy,
			wantFired:    1,
		},
		{
			// Pure latency on every fsync: slower, never wrong.
			name:         "wal-sync-latency",
			faults:       []fault.Fault{{Op: fault.OpSync, Path: "/wal/", Delay: 2 * time.Millisecond}},
			wantRejected: 0,
			wantHealth:   Healthy,
			wantFired:    0, // delays are not error events
		},
	}
	eachShardMode(t, func(t *testing.T, shards int, cs []detect.Constraint) {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				dir := t.TempDir()
				inj := fault.NewInjector(fault.OS, fault.Scenario{Name: tc.name, Faults: tc.faults})
				db := ordersDB(11, 100)
				shadow := db.Clone()
				svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: shards,
					Durable: &DurableConfig{Dir: dir, SyncEvery: 1, FS: inj}})
				r := rand.New(rand.NewSource(42))
				fresh := 0
				d := driveFaulty(t, svc, shadow, r, &fresh, 5)

				if got := len(d.rejected); got != tc.wantRejected {
					t.Fatalf("rejected %d commit(s) (%v), want %d", got, d.rejErrs, tc.wantRejected)
				}
				for _, err := range d.rejErrs {
					if !errors.Is(err, ErrWAL) && !errors.Is(err, ErrReadOnly) {
						t.Fatalf("rejection is neither ErrWAL nor ErrReadOnly: %v", err)
					}
				}
				if h, reason := svc.Health(); h != tc.wantHealth {
					t.Fatalf("health %v (%q), want %v", h, reason, tc.wantHealth)
				}
				if got := inj.FiredCount(); got != tc.wantFired {
					t.Fatalf("injector fired %d fault(s) (%v), want %d", got, inj.Fired(), tc.wantFired)
				}
				// A rejected commit is not applied: the published op count is
				// exactly the acknowledged history's.
				if got, want := svc.State().Ops, uint64(d.ackedOps); got != want {
					t.Fatalf("published Ops %d, want %d (rejected commits must not apply)", got, want)
				}
				// Reads keep serving the acknowledged state, byte-identical to
				// the fault-free shadow — degraded or not.
				if got, want := ViolationsText(svc.Violations()), detectText(shadow, cs); got != want {
					t.Fatalf("published state diverges from acked history:\n got: %q\nwant: %q", got, want)
				}
				mustStop(t, svc)
				checkRecovery(t, dir, cs, shards, ordersDB(11, 100), shadow, d)
			})
		}
	})
}

// TestWALSyncFaultDegradesHealthz drives the WAL-fsync fault through
// the HTTP surface: /healthz flips to a structured degraded report
// (still 200 — the process must not be killed over a sick disk),
// POST /batch turns 503 with the reason, and GET /violations keeps
// serving the last published state.
func TestWALSyncFaultDegradesHealthz(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, fault.Scenario{
		Name:   "sync-eio",
		Faults: []fault.Fault{{Op: fault.OpSync, Path: "/wal/", Nth: 3, Err: fault.EIO}},
	})
	db := ordersDB(3, 80)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs,
		Durable: &DurableConfig{Dir: dir, SyncEvery: 1, FS: inj}})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/batch", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp, m
	}
	ins := func(i int) string {
		return fmt.Sprintf("insert order \"a9%d\",\"Chaos Title %d\",book,9.99\ncommit\n", i, i)
	}

	// Healthy before the fault.
	if resp, _ := post(ins(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-fault ingest: status %d", resp.StatusCode)
	}
	applyShadow(shadow, []detect.DBOp{detect.InsertInto("order", relation.Tuple{
		relation.Str("a91"), relation.Str("Chaos Title 1"), relation.Str("book"), relation.Float(9.99)})})

	// The second commit's fsync fails: 503, and the service is read-only.
	resp, _ := post(ins(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest: status %d, want 503", resp.StatusCode)
	}
	resp, body := post(ins(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-fault ingest: status %d, want 503", resp.StatusCode)
	}
	if body["status"] != "read-only" || body["reason"] == "" {
		t.Fatalf("post-fault ingest body %v, want structured read-only reason", body)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 (degraded is not dead)", hz.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Writable bool   `json:"writable"`
		Reason   string `json:"reason"`
	}
	json.NewDecoder(hz.Body).Decode(&h)
	if h.Status != "read-only" || h.Writable || !strings.Contains(h.Reason, "sync") {
		t.Fatalf("healthz %+v, want read-only with a sync reason", h)
	}

	// Reads still serve the acknowledged state.
	vi, err := http.Get(srv.URL + "/violations?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer vi.Body.Close()
	if vi.StatusCode != http.StatusOK {
		t.Fatalf("violations status %d after degradation", vi.StatusCode)
	}
	if got, want := ViolationsText(svc.Violations()), detectText(shadow, cs); got != want {
		t.Fatalf("degraded reads diverge:\n got: %q\nwant: %q", got, want)
	}
}

// TestCheckpointRetryBackoff scripts transient ENOSPC on the
// checkpoint install: the checkpointer counts the failures, backs off,
// and — once the condition clears — recovers on its own, with ingest
// never disturbed.
func TestCheckpointRetryBackoff(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	inj := fault.NewInjector(fault.OS, fault.Scenario{
		Name: "ckpt-enospc",
		Faults: []fault.Fault{
			{Op: fault.OpRename, Path: "checkpoint-", Nth: 1, Count: 2, Err: fault.ENOSPC},
		},
	})
	db := ordersDB(17, 80)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs,
		Durable: &DurableConfig{Dir: dir, SyncEvery: 1, CheckpointEvery: 2, FS: inj}})
	r := rand.New(rand.NewSource(5))
	fresh := 0
	d := driveFaulty(t, svc, shadow, r, &fresh, 6)
	if len(d.rejected) != 0 {
		t.Fatalf("checkpoint faults must not reject commits: %v", d.rejErrs)
	}

	// The first two install attempts fail; backoff, then success.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ds, ok := svc.Durability()
		if !ok {
			t.Fatal("no durability stats")
		}
		if ds.Checkpoints >= 1 {
			if ds.CheckpointErrs < 2 {
				t.Fatalf("CheckpointErrs %d, want >= 2 failed attempts before recovery", ds.CheckpointErrs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never recovered: %+v (fired %v)", ds, inj.Fired())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := inj.FiredCount(); got != 2 {
		t.Fatalf("injector fired %d fault(s), want 2: %v", got, inj.Fired())
	}
	if h, reason := svc.Health(); h != Healthy {
		t.Fatalf("transient checkpoint failure degraded the service: %v (%q)", h, reason)
	}
	if got, want := ViolationsText(svc.Violations()), detectText(shadow, cs); got != want {
		t.Fatalf("state diverged during checkpoint retries:\n got: %q\nwant: %q", got, want)
	}
}

// TestShardWriterPanicIsolation injects a panic into one shard's apply
// mid-commit: the panic is recovered into a per-shard error, the
// sequencer resynchronizes against whatever prefix applied, the
// service stays healthy and live, and the published state remains
// self-consistent (violations == a fresh detection over the published
// shard snapshots).
func TestShardWriterPanicIsolation(t *testing.T) {
	cs := shardableServeSigma()
	var panicked atomic.Bool
	db := ordersDB(9, 120)
	gendb := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: 2})
	svc.smonitor.SetShardHookForTest(func(shard int, ops []relation.ShardedOp) {
		if panicked.CompareAndSwap(false, true) {
			panic("injected shard fault")
		}
	})
	r := rand.New(rand.NewSource(77))
	fresh := 0

	selfConsistent := func(when string) {
		t.Helper()
		st := svc.State()
		merged, err := relation.GatherSnapshots(st.Shards)
		if err != nil {
			t.Fatalf("%s: gather: %v", when, err)
		}
		if got, want := ViolationsText(st.Violations()), detectText(merged, cs); got != want {
			t.Fatalf("%s: published violations inconsistent with published snapshots:\n got: %q\nwant: %q",
				when, got, want)
		}
	}

	dead := map[string]map[relation.TID]bool{}
	ops := []detect.DBOp{randomServeOp(r, gendb, &fresh, dead), randomServeOp(r, gendb, &fresh, dead)}
	_, err := svc.Submit(context.Background(), ops)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicked commit acked with err %v, want a shard panic error", err)
	}
	if got := svc.ShardPanics(); got != 1 {
		t.Fatalf("ShardPanics %d, want 1", got)
	}
	if h, reason := svc.Health(); h != Healthy {
		t.Fatalf("a recovered shard panic degraded the service: %v (%q)", h, reason)
	}
	selfConsistent("after panic")

	// Still live: later commits apply cleanly.
	for i := 0; i < 5; i++ {
		dead := map[string]map[relation.TID]bool{}
		ops := []detect.DBOp{randomServeOp(r, gendb, &fresh, dead)}
		if res, err := svc.Submit(context.Background(), ops); err != nil {
			// The generator tracks its own database, which the panicked
			// partial apply may have diverged from — a validation rejection
			// is fine, a health error is not.
			var oe *OpError
			if !errors.As(err, &oe) {
				t.Fatalf("post-panic commit %d: %v (res %+v)", i, err, res)
			}
		}
	}
	selfConsistent("after recovery commits")
}

// TestShardWriterStall stalls one shard's apply with injected latency:
// the scatter's join absorbs the skew and the result is byte-identical
// to the fault-free shadow.
func TestShardWriterStall(t *testing.T) {
	cs := shardableServeSigma()
	var stalls atomic.Int64
	db := ordersDB(13, 120)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: 2})
	svc.smonitor.SetShardHookForTest(func(shard int, ops []relation.ShardedOp) {
		if shard == 0 && stalls.Add(1) <= 3 {
			time.Sleep(2 * time.Millisecond)
		}
	})
	r := rand.New(rand.NewSource(31))
	fresh := 0
	d := driveFaulty(t, svc, shadow, r, &fresh, 10)
	if len(d.rejected) != 0 {
		t.Fatalf("stalls must not reject commits: %v", d.rejErrs)
	}
	if got, want := ViolationsText(svc.Violations()), detectText(shadow, cs); got != want {
		t.Fatalf("stalled run diverges from shadow:\n got: %q\nwant: %q", got, want)
	}
}

// chaosFaultKinds builds one randomized fault schedule. Occurrence
// numbers stay above the service's boot-time filesystem traffic so a
// schedule never fails New itself — the matrix covers boot faults
// deterministically.
func chaosScenario(r *rand.Rand) fault.Scenario {
	var fs []fault.Fault
	n := 2 + r.Intn(3)
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			fs = append(fs, fault.Fault{Op: fault.OpSync, Path: "/wal/", Nth: 2 + r.Intn(30), Err: fault.EIO})
		case 1:
			fs = append(fs, fault.Fault{Op: fault.OpWrite, Path: "/wal/", Nth: 3 + r.Intn(30), Err: fault.ENOSPC})
		case 2:
			fs = append(fs, fault.Fault{Op: fault.OpWrite, Path: "/wal/", Nth: 3 + r.Intn(30), Short: 1 + r.Intn(8)})
		case 3:
			fs = append(fs, fault.Fault{Op: fault.OpSync, Path: "/wal/", Nth: 1 + r.Intn(20),
				Count: 1 + r.Intn(5), Delay: time.Millisecond})
		case 4:
			fs = append(fs, fault.Fault{Op: fault.OpRename, Path: "checkpoint-", Nth: 1 + r.Intn(3), Err: fault.ENOSPC})
		}
	}
	return fault.Scenario{Name: "chaos", Faults: fs}
}

// TestChaosHarness is the headline robustness test: randomized fault
// schedules over a deterministic op stream, against a durable
// SyncEvery=1 service, flat and 2-shard. Invariants, per seed:
//
//   - every acknowledged commit is applied and every rejected one is
//     not, so the published violation set stays byte-identical to a
//     fault-free shadow run of the acked history — a fault may degrade
//     the service, it may never produce a wrong answer;
//   - rejections carry structured errors (ErrWAL / ErrReadOnly), and
//     once read-only the service stays read-only;
//   - restart over the repaired filesystem recovers every acknowledged
//     commit (an un-acked sync-failed tail batch may legally appear).
func TestChaosHarness(t *testing.T) {
	eachShardMode(t, func(t *testing.T, shards int, cs []detect.Constraint) {
		totalFired := 0
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				sc := chaosScenario(r)
				inj := fault.NewInjector(fault.OS, sc)
				dir := t.TempDir()
				db := ordersDB(seed, 80)
				shadow := db.Clone()
				svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: shards,
					Durable: &DurableConfig{Dir: dir, SyncEvery: 1, CheckpointEvery: 10, FS: inj}})

				fresh := 0
				d := driveFaulty(t, svc, shadow, r, &fresh, 50)
				t.Logf("seed %d: %d acked, %d rejected, faults fired: %v",
					seed, d.acked, len(d.rejected), inj.Fired())
				totalFired += inj.FiredCount()

				sawReadOnly := false
				for _, err := range d.rejErrs {
					switch {
					case errors.Is(err, ErrReadOnly):
						sawReadOnly = true
					case errors.Is(err, ErrWAL):
						if sawReadOnly {
							t.Fatalf("ErrWAL after ErrReadOnly: a degraded service accepted a write: %v", err)
						}
					default:
						t.Fatalf("unstructured rejection: %v", err)
					}
				}
				if h, _ := svc.Health(); sawReadOnly && h == Healthy {
					t.Fatal("Submit reported read-only but Health() says healthy")
				}

				// Never a wrong answer: the published set matches the
				// fault-free shadow of the acked history exactly, degraded or
				// not.
				if got, want := ViolationsText(svc.Violations()), detectText(shadow, cs); got != want {
					t.Fatalf("published state diverges from acked history:\n got: %q\nwant: %q", got, want)
				}
				mustStop(t, svc)
				checkRecovery(t, dir, cs, shards, ordersDB(seed, 80), shadow, d)
			})
		}
		if totalFired == 0 {
			t.Fatal("no chaos fault ever fired: the schedules are dead and the harness tests nothing")
		}
	})
}

// TestChaosSharded turns the scheduling-fault dial: random stalls and
// occasional panics inside the per-shard applies while commits stream in.
// The shadow oracle does not apply here (a panicked commit legally
// applies only a prefix), so the invariant is self-consistency: after
// every few commits the published violation set must equal a fresh
// detection over the published shard snapshots, and the service must
// stay healthy and live throughout.
func TestChaosSharded(t *testing.T) {
	cs := shardableServeSigma()
	var mu sync.Mutex
	hookRand := rand.New(rand.NewSource(303))
	var panics atomic.Int64
	db := ordersDB(21, 120)
	gendb := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: 2})
	svc.smonitor.SetShardHookForTest(func(shard int, ops []relation.ShardedOp) {
		mu.Lock()
		roll := hookRand.Intn(20)
		mu.Unlock()
		switch {
		case roll == 0:
			panics.Add(1)
			panic("chaos shard panic")
		case roll < 4:
			time.Sleep(time.Duration(roll) * 100 * time.Microsecond)
		}
	})
	r := rand.New(rand.NewSource(404))
	fresh := 0
	ctx := context.Background()
	lastSeq := svc.State().Seq
	for i := 0; i < 40; i++ {
		dead := map[string]map[relation.TID]bool{}
		nops := 1 + r.Intn(3)
		ops := make([]detect.DBOp, 0, nops)
		for j := 0; j < nops; j++ {
			ops = append(ops, randomServeOp(r, gendb, &fresh, dead))
		}
		_, err := svc.Submit(ctx, ops)
		var oe *OpError
		if err != nil && !errors.As(err, &oe) && !strings.Contains(err.Error(), "panic") {
			t.Fatalf("commit %d: unexpected error class: %v", i, err)
		}
		if err == nil {
			applyShadow(gendb, ops)
		}
		st := svc.State()
		if st.Seq < lastSeq {
			t.Fatalf("published Seq went backwards: %d -> %d", lastSeq, st.Seq)
		}
		lastSeq = st.Seq
		if i%10 == 9 {
			merged, err := relation.GatherSnapshots(st.Shards)
			if err != nil {
				t.Fatalf("commit %d: gather: %v", i, err)
			}
			if got, want := ViolationsText(st.Violations()), detectText(merged, cs); got != want {
				t.Fatalf("commit %d: published state inconsistent with its own snapshots:\n got: %q\nwant: %q",
					i, got, want)
			}
		}
	}
	if h, reason := svc.Health(); h != Healthy {
		t.Fatalf("scheduling chaos degraded the service: %v (%q)", h, reason)
	}
	if got := svc.ShardPanics(); got != uint64(panics.Load()) {
		t.Fatalf("ShardPanics %d, injected %d", got, panics.Load())
	}
	t.Logf("sharded chaos: %d panics recovered", panics.Load())
}

// TestHealthTransitionsOneWay pins the state machine: demotions only
// move forward, the first reason at each severity wins, and healthErr
// renders each state as the right Submit error.
func TestHealthTransitionsOneWay(t *testing.T) {
	svc := mustNew(t, Config{DB: ordersDB(1, 40), Constraints: serveSigma()})
	if h, _ := svc.Health(); h != Healthy {
		t.Fatalf("fresh service health %v", h)
	}
	if err := svc.healthErr(); err != nil {
		t.Fatalf("healthy healthErr: %v", err)
	}
	svc.degrade(ReadOnly, "first")
	svc.degrade(ReadOnly, "second")
	if h, reason := svc.Health(); h != ReadOnly || reason != "first" {
		t.Fatalf("got %v (%q), want ReadOnly with the first reason", h, reason)
	}
	if err := svc.healthErr(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only healthErr: %v", err)
	}
	svc.degrade(Healthy, "nope")
	if h, _ := svc.Health(); h != ReadOnly {
		t.Fatal("service silently healed")
	}
	svc.degrade(Broken, "loop gone")
	svc.degrade(ReadOnly, "late demotion")
	if h, reason := svc.Health(); h != Broken || reason != "loop gone" {
		t.Fatalf("got %v (%q), want Broken", h, reason)
	}
	if err := svc.healthErr(); !errors.Is(err, ErrStopped) {
		t.Fatalf("broken healthErr: %v", err)
	}
	if _, err := svc.Submit(context.Background(), nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit on a broken service: %v", err)
	}
}

// BenchmarkDegradedReads measures read throughput after a WAL fsync
// fault has flipped the service read-only, against the same service
// while healthy (E28). Reads serve the immutable snapshot published by
// the last good commit, so degrading the write path must cost the
// read path nothing — "read-only" means writes are refused, not that
// reads got slower.
func BenchmarkDegradedReads(b *testing.B) {
	cs := serveSigma()
	ctx := context.Background()
	run := func(b *testing.B, degraded bool) {
		var faults []fault.Fault
		if degraded {
			// Write/sync #1 on the segment is the magic header, so sync #4
			// fails commit 3 and the service degrades read-only.
			faults = []fault.Fault{{Op: fault.OpSync, Path: "/wal/", Nth: 4, Err: fault.EIO}}
		}
		inj := fault.NewInjector(fault.OS, fault.Scenario{Name: "bench-degraded", Faults: faults})
		svc, err := New(Config{DB: ordersDB(7, 2000), Constraints: cs,
			Durable: &DurableConfig{Dir: b.TempDir(), SyncEvery: 1, CheckpointEvery: -1, FS: inj}})
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Stop(ctx)
		for i := 0; i < 5; i++ {
			_, err := svc.Submit(ctx, []detect.DBOp{detect.InsertInto("order", relation.Tuple{
				relation.Str(fmt.Sprintf("bench-%d", i)), relation.Str("Bench Title"),
				relation.Str("book"), relation.Float(9.99)})})
			if err != nil && !degraded {
				b.Fatal(err)
			}
		}
		if h, _ := svc.Health(); degraded != (h == ReadOnly) {
			b.Fatalf("health %v, degraded=%v", h, degraded)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				st := svc.State()
				if st.NumViolations() == 0 {
					b.Fatal("published snapshot has no violations to read")
				}
			}
		})
	}
	b.Run("healthy", func(b *testing.B) { run(b, false) })
	b.Run("read-only", func(b *testing.B) { run(b, true) })
}

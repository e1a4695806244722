package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/relation"
)

// driveBatches submits n deterministic random batches, mirroring each
// onto the shadow database after its ack, and returns the last acked
// seq. Submissions are sequential, so each batch is one commit.
func driveBatches(t *testing.T, svc *Service, shadow *relation.Database, r *rand.Rand, fresh *int, n int) uint64 {
	t.Helper()
	ctx := context.Background()
	var last uint64
	for i := 0; i < n; i++ {
		dead := map[string]map[relation.TID]bool{}
		nops := 1 + r.Intn(4)
		ops := make([]detect.DBOp, 0, nops)
		for j := 0; j < nops; j++ {
			ops = append(ops, randomServeOp(r, shadow, fresh, dead))
		}
		res, err := svc.Submit(ctx, ops)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		last = res.Seq
		if err := applyShadow(shadow, ops); err != nil {
			t.Fatalf("batch %d: shadow: %v", i, err)
		}
	}
	return last
}

func mustStop(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestDurableRestart: a durable service stopped and reopened over the
// same data directory recovers the exact acknowledged state — same
// Seq, byte-identical violations — and stays live and TID-aligned for
// further commits.
func TestDurableRestart(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	db := ordersDB(7, 150)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs,
		Durable: &DurableConfig{Dir: dir, CheckpointEvery: 7}})
	r := rand.New(rand.NewSource(99))
	fresh := 0
	last := driveBatches(t, svc, shadow, r, &fresh, 40)
	wantSeq := svc.State().Seq
	if wantSeq != last {
		t.Fatalf("published Seq %d, last ack %d", wantSeq, last)
	}
	wantText := ViolationsText(svc.Violations())
	mustStop(t, svc)

	// Restart: Config.DB only supplies the schemas.
	svc2 := mustNew(t, Config{DB: ordersDB(7, 0), Constraints: cs,
		Durable: &DurableConfig{Dir: dir}})
	if got := svc2.State().Seq; got != wantSeq {
		t.Fatalf("recovered Seq %d, want %d", got, wantSeq)
	}
	if got := ViolationsText(svc2.Violations()); got != wantText {
		t.Fatalf("recovered violations diverge:\n got: %q\nwant: %q", got, wantText)
	}
	// Live and TID-aligned: the same ops against the shadow produce the
	// same violation set a fresh full detection computes.
	driveBatches(t, svc2, shadow, r, &fresh, 5)
	oracle := detect.New(2)
	if got, want := ViolationsText(svc2.Violations()), ViolationsText(oracle.DetectBatch(shadow, cs)); got != want {
		t.Fatalf("post-recovery commits diverge from shadow detection:\n got: %q\nwant: %q", got, want)
	}
}

// TestDurableRestartSharded runs the restart cycle with the
// scatter-gather paths: sharded service, group-commit window, sharded
// recovery replay.
func TestDurableRestartSharded(t *testing.T) {
	cs := shardableServeSigma()
	dir := t.TempDir()
	db := ordersDB(5, 120)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, Shards: 2,
		Durable: &DurableConfig{Dir: dir, SyncEvery: 8, SyncInterval: time.Millisecond, CheckpointEvery: 9}})
	r := rand.New(rand.NewSource(23))
	fresh := 0
	driveBatches(t, svc, shadow, r, &fresh, 30)
	wantSeq := svc.State().Seq
	wantText := ViolationsText(svc.Violations())
	mustStop(t, svc)

	svc2 := mustNew(t, Config{DB: ordersDB(5, 0), Constraints: cs, Shards: 2,
		Durable: &DurableConfig{Dir: dir}})
	if got := svc2.State().Seq; got != wantSeq {
		t.Fatalf("recovered Seq %d, want %d", got, wantSeq)
	}
	if got := ViolationsText(svc2.Violations()); got != wantText {
		t.Fatalf("sharded recovery diverges:\n got: %q\nwant: %q", got, wantText)
	}
	driveBatches(t, svc2, shadow, r, &fresh, 5)
	oracle := detect.New(2)
	if got, want := ViolationsText(svc2.Violations()), ViolationsText(oracle.DetectBatch(shadow, cs)); got != want {
		t.Fatalf("post-recovery sharded commits diverge:\n got: %q\nwant: %q", got, want)
	}
}

// TestDurableGroupCommitConcurrent: concurrent submitters under a wide
// group-commit window all get acked (the idle flush and the interval
// tick release held commits), and a restart reproduces the exact
// published state even when one WAL record carries several coalesced
// requests.
func TestDurableGroupCommitConcurrent(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	svc := mustNew(t, Config{DB: ordersDB(13, 80), Constraints: cs,
		Durable: &DurableConfig{Dir: dir, SyncEvery: 16, SyncInterval: 2 * time.Millisecond, CheckpointEvery: -1}})
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ops := []detect.DBOp{detect.InsertInto("order", relation.Tuple{
					relation.Str(fmt.Sprintf("gc%d-%d", g, i)),
					relation.Str(fmt.Sprintf("Book Title %d", (g*20+i)%13)),
					relation.Str("book"),
					relation.Float(float64(5+i%8) + 0.99),
				})}
				if _, err := svc.Submit(ctx, ops); err != nil {
					errCh <- fmt.Errorf("submitter %d batch %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	wantSeq := svc.State().Seq
	wantText := ViolationsText(svc.Violations())
	if ops := svc.State().Ops; ops != 80 {
		t.Fatalf("published Ops %d, want 80", ops)
	}
	mustStop(t, svc)

	// Checkpointing was disabled, so the WAL holds only the deltas: the
	// restart supplies the same base database the first boot started
	// from (regenerated — the seed is deterministic).
	svc2 := mustNew(t, Config{DB: ordersDB(13, 80), Constraints: cs,
		Durable: &DurableConfig{Dir: dir}})
	if got := svc2.State().Seq; got != wantSeq {
		t.Fatalf("recovered Seq %d, want %d", got, wantSeq)
	}
	if got := ViolationsText(svc2.Violations()); got != wantText {
		t.Fatalf("group-commit recovery diverges")
	}
}

// flakyWriter is the fault-injection seam for hard WAL failures: after
// the byte budget is spent, every write errors.
type flakyWriter struct{ budget int }

func (f *flakyWriter) wrap(w io.Writer) io.Writer { return &flakyW{f: f, w: w} }

type flakyW struct {
	f *flakyWriter
	w io.Writer
}

func (fw *flakyW) Write(p []byte) (int, error) {
	if fw.f.budget < len(p) {
		return 0, errors.New("injected write failure")
	}
	fw.f.budget -= len(p)
	return fw.w.Write(p)
}

// TestDurableWALFailure: when the log stops taking writes, commits are
// rejected with ErrWAL without being applied — no op, and no TID
// allocation either — reads keep serving the published state, and the
// HTTP front end degrades to 503 + Retry-After. Flat and 2-shard.
func TestDurableWALFailure(t *testing.T) {
	eachShardMode(t, func(t *testing.T, shards int, cs []detect.Constraint) {
		dir := t.TempDir()
		fw := &flakyWriter{budget: 300}
		svc := mustNew(t, Config{DB: ordersDB(3, 60), Constraints: cs, Shards: shards,
			Durable: &DurableConfig{Dir: dir, CheckpointEvery: -1, Wrap: fw.wrap}})
		startTID := svc.State().NextTIDs["order"]
		ctx := context.Background()
		op := func(i int) []detect.DBOp {
			return []detect.DBOp{detect.InsertInto("order", relation.Tuple{
				relation.Str(fmt.Sprintf("wf%d", i)), relation.Str("Book Title 1"),
				relation.Str("book"), relation.Float(7.99)})}
		}
		acked, failed := 0, 0
		var firstErr error
		for i := 0; i < 20; i++ {
			res, err := svc.Submit(ctx, op(i))
			if err == nil {
				acked++
				continue
			}
			failed++
			if firstErr == nil {
				firstErr = err
			}
			if !errors.Is(err, ErrWAL) {
				t.Fatalf("batch %d: err = %v, want ErrWAL", i, err)
			}
			if res.Seq != svc.State().Seq {
				t.Fatalf("rejected batch acked at seq %d, published %d", res.Seq, svc.State().Seq)
			}
		}
		if acked == 0 || failed == 0 {
			t.Fatalf("want both acks and failures, got %d acks, %d failures (budget wrong?)", acked, failed)
		}
		// A rejected commit was not applied: the published state counts
		// exactly the acked inserts.
		if got := svc.State().Ops; got != uint64(acked) {
			t.Fatalf("published Ops %d, want %d (rejected commits must not apply)", got, acked)
		}
		// Reads still serve, and POST /batch maps the failure to a 503 with
		// Retry-After.
		_ = svc.Violations()
		h := NewHandler(svc)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/batch",
			strings.NewReader("insert order wfx,Book Title 2,book,8.99\ncommit\n"))
		h.ServeHTTP(rec, req)
		if rec.Code != 503 {
			t.Fatalf("POST /batch with broken WAL = %d, want 503", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("503 response missing Retry-After")
		}
		// Heal the writer: the next insert is acked, and the TID allocator
		// stands at its start plus the acked inserts — a rejected commit
		// allocated nothing, so a replay of the log allocates the same TIDs.
		fw.budget = 1 << 20
		if _, err := svc.Submit(ctx, op(20)); err != nil {
			t.Fatalf("commit after the log healed: %v", err)
		}
		acked++
		if got, want := svc.State().NextTIDs["order"], startTID+relation.TID(acked); got != want {
			t.Fatalf("next order TID %d, want %d (start %d + %d acked inserts): a rejected commit allocated",
				got, want, startTID, acked)
		}
	})
}

// discardWriter simulates kill -9 at byte N: the first budget bytes
// reach the file, everything after is silently dropped while the
// writer keeps reporting success — the service acks commits whose
// frames never landed, exactly what a crash between write and ack
// looks like to the recovering process.
type discardWriter struct{ budget int }

func (d *discardWriter) wrap(w io.Writer) io.Writer { return &discardW{d: d, w: w} }

type discardW struct {
	d *discardWriter
	w io.Writer
}

func (dw *discardW) Write(p []byte) (int, error) {
	if dw.d.budget > 0 {
		k := len(p)
		if k > dw.d.budget {
			k = dw.d.budget
		}
		if _, err := dw.w.Write(p[:k]); err != nil {
			return 0, err
		}
		dw.d.budget -= k
	}
	return len(p), nil
}

// TestDurableCrashTornTail: recovery from a log whose tail is torn
// mid-frame lands on the longest persisted prefix, byte-identical to
// the uninterrupted run at that seq. Checkpointing is disabled so the
// final Stop cannot paper over the torn tail.
func TestDurableCrashTornTail(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	db := ordersDB(11, 100)
	shadow := db.Clone()
	m := detect.NewDBMonitor(nil, shadow, cs)
	dw := &discardWriter{budget: 2500}
	svc := mustNew(t, Config{DB: db, Constraints: cs,
		Durable: &DurableConfig{Dir: dir, CheckpointEvery: -1, Wrap: dw.wrap}})
	ctx := context.Background()
	r := rand.New(rand.NewSource(31))
	fresh := 0
	const rounds = 30
	texts := []string{ViolationsText(m.Violations())} // texts[seq]
	for i := 0; i < rounds; i++ {
		dead := map[string]map[relation.TID]bool{}
		nops := 1 + r.Intn(4)
		ops := make([]detect.DBOp, 0, nops)
		for j := 0; j < nops; j++ {
			ops = append(ops, randomServeOp(r, shadow, &fresh, dead))
		}
		if _, err := svc.Submit(ctx, ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, _, err := m.Apply(ops); err != nil {
			t.Fatalf("batch %d: shadow: %v", i, err)
		}
		texts = append(texts, ViolationsText(m.Violations()))
	}
	mustStop(t, svc)

	// No checkpoint exists (disabled), so the restart supplies the same
	// base database and the WAL prefix replays on top of it.
	svc2 := mustNew(t, Config{DB: ordersDB(11, 100), Constraints: cs,
		Durable: &DurableConfig{Dir: dir}})
	got := svc2.State().Seq
	if got == 0 || got >= rounds {
		t.Fatalf("recovered Seq %d: want a strict prefix of %d commits (budget wrong?)", got, rounds)
	}
	if text := ViolationsText(svc2.Violations()); text != texts[got] {
		t.Fatalf("recovered state at seq %d diverges from the uninterrupted run", got)
	}
}

// TestDurableCheckpointTruncates: once the checkpointer has covered
// the whole history, a restart loads the checkpoint and replays
// nothing.
func TestDurableCheckpointTruncates(t *testing.T) {
	cs := serveSigma()
	dir := t.TempDir()
	db := ordersDB(19, 100)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs,
		Durable: &DurableConfig{Dir: dir, CheckpointEvery: 1}})
	r := rand.New(rand.NewSource(77))
	fresh := 0
	driveBatches(t, svc, shadow, r, &fresh, 10)
	wantSeq := svc.State().Seq
	deadline := time.Now().Add(10 * time.Second)
	for {
		ds, ok := svc.Durability()
		if !ok {
			t.Fatal("Durability() not ok on a durable service")
		}
		if ds.LastCheckpointSeq == wantSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpointer never caught up: at %d, want %d", ds.LastCheckpointSeq, wantSeq)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wantText := ViolationsText(svc.Violations())
	mustStop(t, svc)

	svc2 := mustNew(t, Config{DB: ordersDB(19, 0), Constraints: cs,
		Durable: &DurableConfig{Dir: dir}})
	if got := svc2.State().Seq; got != wantSeq {
		t.Fatalf("recovered Seq %d, want %d", got, wantSeq)
	}
	// Nothing replayed: the seed counters only count WAL records.
	if got := svc2.State().Ops; got != 0 {
		t.Fatalf("recovered Ops %d, want 0 (the truncated WAL should replay nothing)", got)
	}
	if got := ViolationsText(svc2.Violations()); got != wantText {
		t.Fatalf("checkpoint-only recovery diverges")
	}
}

// BenchmarkColdStart compares the two ways to rebuild service state
// after a restart: loading a checkpoint versus replaying the whole
// ingest history from the WAL (both then pay the same seed detection).
func BenchmarkColdStart(b *testing.B) {
	cs := serveSigma()
	const orders = 5000
	ctx := context.Background()

	// A checkpoint-covered directory and a WAL-only directory holding
	// the same database.
	ckptDir, walOnlyDir := b.TempDir(), b.TempDir()
	full := ordersDB(1, orders)
	{
		svc, err := New(Config{DB: full.Clone(), Constraints: cs,
			Durable: &DurableConfig{Dir: ckptDir}})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if ds, _ := svc.Durability(); ds.Checkpoints > 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := svc.Stop(ctx); err != nil {
			b.Fatal(err)
		}
	}
	{
		svc, err := New(Config{DB: ordersDB(1, 0), Constraints: cs,
			Durable: &DurableConfig{Dir: walOnlyDir, CheckpointEvery: -1}})
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range full.Names() {
			in := full.MustInstance(name)
			ids := in.IDs()
			for off := 0; off < len(ids); off += 1000 {
				end := off + 1000
				if end > len(ids) {
					end = len(ids)
				}
				ops := make([]detect.DBOp, 0, end-off)
				for _, id := range ids[off:end] {
					tu, _ := in.Tuple(id)
					ops = append(ops, detect.InsertInto(name, tu))
				}
				if _, err := svc.Submit(ctx, ops); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := svc.Stop(ctx); err != nil {
			b.Fatal(err)
		}
	}

	bench := func(dir string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				svc, err := New(Config{DB: ordersDB(1, 0), Constraints: cs,
					Durable: &DurableConfig{Dir: dir, CheckpointEvery: -1}})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := svc.Stop(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
	b.Run("checkpoint", bench(ckptDir))
	b.Run("wal-replay", bench(walOnlyDir))
}

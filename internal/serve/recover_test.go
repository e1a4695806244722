package serve

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/relation"
)

// crashSeed parameterizes the kill -9 end-to-end run. The child and
// the parent's shadow replay both derive every batch from this seed
// over the same base database, so batch i depends only on the state
// after batch i-1 and the parent can regenerate exactly the stream the
// child submitted.
const (
	crashSeed   = 42
	crashOrders = 300
)

// crashBatch draws commit batch number seq (1-based) from the shared
// deterministic stream and applies nothing: the caller decides whether
// it goes to a live service or a shadow monitor.
func crashBatch(r *rand.Rand, shadow *relation.Database, fresh *int) []detect.DBOp {
	dead := map[string]map[relation.TID]bool{}
	nops := 1 + r.Intn(4)
	ops := make([]detect.DBOp, 0, nops)
	for j := 0; j < nops; j++ {
		ops = append(ops, randomServeOp(r, shadow, fresh, dead))
	}
	return ops
}

// TestCrashServerHelper is the child half of TestKillRecoverE2E: a
// durable service ingesting the deterministic batch stream forever,
// printing "ack <seq>" after every fsynced commit, until the parent
// delivers SIGKILL. Skipped unless re-executed with DQ_CRASH_HELPER=1;
// DQ_CRASH_SHARDS sets the shard count (default flat).
func TestCrashServerHelper(t *testing.T) {
	if os.Getenv("DQ_CRASH_HELPER") != "1" {
		t.Skip("helper process for TestKillRecoverE2E")
	}
	dir := os.Getenv("DQ_CRASH_DIR")
	if dir == "" {
		t.Fatal("DQ_CRASH_DIR not set")
	}
	shards := 0
	if v := os.Getenv("DQ_CRASH_SHARDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("DQ_CRASH_SHARDS: %v", err)
		}
		shards = n
	}
	// Watchdog: if the parent dies without killing us, don't run forever.
	time.AfterFunc(2*time.Minute, func() { os.Exit(3) })

	cs := serveSigma()
	if shards > 1 {
		cs = shardableServeSigma() // the rule set eachShardMode gives the sharded run
	}
	db := ordersDB(crashSeed, crashOrders)
	shadow := db.Clone()
	svc, err := New(Config{DB: db, Constraints: cs, Shards: shards,
		Durable: &DurableConfig{Dir: dir, SyncEvery: 1, CheckpointEvery: 10}})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	r := rand.New(rand.NewSource(crashSeed))
	fresh := 0
	ctx := context.Background()
	for {
		ops := crashBatch(r, shadow, &fresh)
		res, err := svc.Submit(ctx, ops)
		if err != nil {
			t.Fatalf("helper submit: %v", err)
		}
		if err := applyShadow(shadow, ops); err != nil {
			t.Fatalf("helper shadow: %v", err)
		}
		fmt.Printf("ack %d\n", res.Seq)
	}
}

// TestKillRecoverE2E is the headline durability test: re-exec the test
// binary as a durable server ingesting the deterministic stream, kill
// it with SIGKILL mid-flight after ~50 acknowledged commits, then
// recover the data directory in-process and require that (a) every
// acknowledged commit survived and (b) GET /violations is
// byte-identical to an uninterrupted shadow run of the same batches.
// It runs flat, then with 2 shards (recovery reopens with the same
// count).
func TestKillRecoverE2E(t *testing.T) {
	eachShardMode(t, killRecover)
}

func killRecover(t *testing.T, shards int, cs []detect.Constraint) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashServerHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "DQ_CRASH_HELPER=1", "DQ_CRASH_DIR="+dir,
		"DQ_CRASH_SHARDS="+strconv.Itoa(shards))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var maxAck uint64
	acks := 0
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		seq, ok := strings.CutPrefix(line, "ack ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(seq, 10, 64)
		if err != nil {
			t.Fatalf("bad ack line %q: %v", line, err)
		}
		maxAck = n
		if acks++; acks >= 50 {
			break
		}
	}
	if acks < 50 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper exited after only %d acks (scanner err %v)", acks, sc.Err())
	}
	// kill -9: no defers, no flushes, no Stop — the fsync before each
	// ack is all the durability there is.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Recover in-process over the same directory.
	svc := mustNew(t, Config{DB: ordersDB(crashSeed, crashOrders), Constraints: cs, Shards: shards,
		Durable: &DurableConfig{Dir: dir}})
	recovered := svc.State().Seq
	if recovered < maxAck {
		t.Fatalf("recovered Seq %d < last acknowledged %d: acknowledged commits lost", recovered, maxAck)
	}

	// Shadow: the uninterrupted run of batches 1..recovered (the child
	// may have logged a commit it never got to print).
	shadow := ordersDB(crashSeed, crashOrders)
	m := detect.NewDBMonitor(nil, shadow, cs)
	r := rand.New(rand.NewSource(crashSeed))
	fresh := 0
	for seq := uint64(1); seq <= recovered; seq++ {
		ops := crashBatch(r, shadow, &fresh)
		if _, _, err := m.Apply(ops); err != nil {
			t.Fatalf("shadow batch %d: %v", seq, err)
		}
	}
	wantText := ViolationsText(m.Violations())
	if got := ViolationsText(svc.Violations()); got != wantText {
		t.Fatalf("recovered violations diverge from the uninterrupted run at seq %d", recovered)
	}
	// And over the HTTP surface, byte for byte.
	h := NewHandler(svc)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/violations?format=text", nil))
	if rec.Code != 200 || rec.Body.String() != wantText {
		t.Fatalf("GET /violations after recovery: status %d, body diverges (%d vs %d bytes)",
			rec.Code, rec.Body.Len(), len(wantText))
	}
}

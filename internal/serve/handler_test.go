package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/oplog"
	"repro/internal/relation"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Event string
	Data  string
}

// readSSE parses events off an open stream body into the channel,
// closing it at EOF.
func readSSE(body io.Reader, ch chan<- sseEvent) {
	defer close(ch)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.Event != "" || ev.Data != "" {
				ch <- ev
				ev = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// wireViolation mirrors violationJSON on the client side.
type wireViolation struct {
	Class string `json:"class"`
	Rule  string `json:"rule"`
	Rel   string `json:"rel"`
	Row   int    `json:"row"`
	T1    int    `json:"t1"`
	T2    *int   `json:"t2"`
	Attr  string `json:"attr"`
	Text  string `json:"text"`
}

// key is the violation's client-side identity.
func (v wireViolation) key() string {
	t2 := -1
	if v.T2 != nil {
		t2 = *v.T2
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d|%s", v.Class, v.Rule, v.Row, v.T1, t2, v.Attr)
}

type wireDelta struct {
	Seq     uint64          `json:"seq"`
	Gained  []wireViolation `json:"gained"`
	Cleared []wireViolation `json:"cleared"`
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body)
}

func postBatch(t *testing.T, url string, ops []detect.DBOp, schemas map[string]*relation.Schema) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := oplog.Format(&buf, [][]detect.DBOp{ops}, schemas); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/batch", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %s: %s", resp.Status, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndSmoke is the CI race-job smoke: ingest through POST
// /batch, watch the delta arrive on GET /stream, see GET /stats and
// /healthz reflect it, and probe POST /check — the whole service
// surface in one pass.
func TestEndToEndSmoke(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(101, 200)
	svc := mustNew(t, Config{DB: db, Constraints: cs})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	var health struct {
		Status string `json:"status"`
		Seq    uint64 `json:"seq"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}

	// Open the stream and wait for the hello event.
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go readSSE(resp.Body, events)
	select {
	case ev := <-events:
		if ev.Event != "hello" {
			t.Fatalf("first event %q, want hello", ev.Event)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello event")
	}

	// Ingest: two same-title different-price orders violate the
	// title→price FD, guaranteeing a non-empty delta.
	before := svc.State()
	out := postBatch(t, ts.URL, []detect.DBOp{
		detect.InsertInto("order", relation.Tuple{
			relation.Str("smoke1"), relation.Str("Smoke Title"), relation.Str("vinyl"), relation.Float(1.99)}),
		detect.InsertInto("order", relation.Tuple{
			relation.Str("smoke2"), relation.Str("Smoke Title"), relation.Str("vinyl"), relation.Float(2.99)}),
	}, svc.Schemas())
	if out["batches"].(float64) != 1 || out["ops"].(float64) != 2 {
		t.Fatalf("batch ack %v", out)
	}
	if out["gained"].(float64) < 1 {
		t.Fatalf("expected gained violations, got %v", out)
	}

	select {
	case ev := <-events:
		if ev.Event != "delta" {
			t.Fatalf("event %q, want delta", ev.Event)
		}
		var d wireDelta
		if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
			t.Fatal(err)
		}
		if d.Seq != before.Seq+1 || len(d.Gained) < 1 {
			t.Fatalf("delta %+v, want seq %d with gains", d, before.Seq+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delta event")
	}

	var stats struct {
		Seq        uint64         `json:"seq"`
		Relations  map[string]int `json:"relations"`
		Violations int            `json:"violations"`
		Ops        uint64         `json:"ops"`
		Counts     Counts         `json:"counts"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Seq != before.Seq+1 || stats.Ops != before.Ops+2 {
		t.Fatalf("stats %+v after ingest at seq %d", stats, before.Seq)
	}
	if stats.Relations["order"] != db.MustInstance("order").Len() {
		t.Fatalf("stats order count %d, want %d", stats.Relations["order"], db.MustInstance("order").Len())
	}
	if stats.Violations != len(svc.Violations()) || stats.Counts.Total != stats.Violations {
		t.Fatalf("stats violation counts inconsistent: %+v", stats)
	}

	// Probe: the title→price FD is violated (we just broke it), an
	// always-true pattern CFD is not.
	check := func(body string) bool {
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Satisfied bool `json:"satisfied"`
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /check: %s: %s", resp.Status, b)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Satisfied
	}
	if check(`{"cfds": "cfd order: [title] -> [price]\n  _ || _\n"}`) {
		t.Fatal("violated FD probed as satisfied")
	}
	if !check(`{"cfds": "cfd order: [asin] -> [asin]\n  _ || _\n"}`) {
		t.Fatal("trivial FD probed as violated")
	}

	// Bad requests: syntax errors carry their line, unknown rules 400.
	resp2, err := http.Post(ts.URL+"/batch", "text/plain", strings.NewReader("insert order A,B\ncommit\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"line":1`) {
		t.Fatalf("bad batch: %s: %s", resp2.Status, body)
	}
}

// TestHTTPOracle is the acceptance test: randomized op sequences
// through POST /batch, after each commit GET /violations is
// byte-identical to SortViolations-ordered fresh Engine.DetectBatch on
// an equivalent database, and at the end the concatenated GET /stream
// deltas replay to the same set. Run it under -race: the SSE reader,
// the HTTP posts and the ingest loop all overlap.
func TestHTTPOracle(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(7, 300)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, SubBuf: 256})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	oracle := detect.New(2)

	// Stream client: runs for the whole test.
	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 1024)
	go readSSE(resp.Body, events)
	hello := <-events
	if hello.Event != "hello" {
		t.Fatalf("first event %q, want hello", hello.Event)
	}

	// The replay baseline: the violation set at subscription time.
	held := make(map[string]bool)
	var initial struct {
		Violations []wireViolation `json:"violations"`
	}
	getJSON(t, ts.URL+"/violations", &initial)
	for _, v := range initial.Violations {
		held[v.key()] = true
	}

	r := rand.New(rand.NewSource(19))
	fresh := 0
	rounds := 0
	for round := 0; round < 25; round++ {
		batch := make([]detect.DBOp, 1+r.Intn(8))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomServeOp(r, shadow, &fresh, dead)
		}
		postBatch(t, ts.URL, batch, svc.Schemas())
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
		rounds++

		got := getText(t, ts.URL+"/violations?format=text")
		want := ViolationsText(oracle.DetectBatch(shadow, cs))
		if got != want {
			t.Fatalf("round %d: GET /violations diverges from fresh DetectBatch on the equivalent database:\n--- served\n%s--- fresh\n%s", round, got, want)
		}
	}

	// Replay: each delta's cleared keys must be held, gained keys new;
	// the final replayed set must equal the final served set.
	for i := 0; i < rounds; i++ {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended after %d deltas", i)
			}
			if ev.Event != "delta" {
				t.Fatalf("event %q mid-stream, want delta", ev.Event)
			}
			var d wireDelta
			if err := json.Unmarshal([]byte(ev.Data), &d); err != nil {
				t.Fatal(err)
			}
			for _, v := range d.Cleared {
				if !held[v.key()] {
					t.Fatalf("delta %d cleared %q which was not held", d.Seq, v.key())
				}
				delete(held, v.key())
			}
			for _, v := range d.Gained {
				if held[v.key()] {
					t.Fatalf("delta %d gained %q which was already held", d.Seq, v.key())
				}
				held[v.key()] = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for delta %d", i)
		}
	}
	var final struct {
		Violations []wireViolation `json:"violations"`
	}
	getJSON(t, ts.URL+"/violations", &final)
	if len(final.Violations) != len(held) {
		t.Fatalf("replayed set has %d violations, served %d", len(held), len(final.Violations))
	}
	for _, v := range final.Violations {
		if !held[v.key()] {
			t.Fatalf("served violation %q missing from replayed set", v.key())
		}
	}
}

// TestStreamSlowConsumerResync: an SSE client that stalls past the
// subscriber buffer is disconnected with a terminal "resync" event,
// and a reconnecting client sees a violation set byte-identical to a
// fresh Engine.DetectBatch on an equivalent database.
func TestStreamSlowConsumerResync(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(11, 200)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, SubBuf: 1})
	h := NewHandler(svc)
	// The stall: after writing any event, the handler blocks until the
	// gate opens — the server-side image of a consumer that stopped
	// reading (without having to fill kernel socket buffers).
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	h.OnEvent = func(string) { <-gate }
	ts := httptest.NewServer(h)
	defer ts.Close()
	// Deferred after ts.Close, so it runs first on every exit path: a
	// failing assertion must not leave the stalled handler blocking
	// Close for the whole test timeout.
	defer openGate()

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go readSSE(resp.Body, events)
	if ev := <-events; ev.Event != "hello" {
		t.Fatalf("first event %q, want hello", ev.Event)
	}
	// The handler is now stalled in OnEvent("hello"): it will not drain
	// its subscription channel (buffer 1). Two commits overflow it.
	r := rand.New(rand.NewSource(59))
	fresh := 0
	for i := 0; i < 3; i++ {
		batch := []detect.DBOp{randomServeOp(r, shadow, &fresh, map[string]map[relation.TID]bool{})}
		postBatch(t, ts.URL, batch, svc.Schemas())
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
	}
	// The drop policy must have disconnected the subscriber.
	deadline := time.Now().Add(5 * time.Second)
	for svc.NumSubscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	openGate() // release the handler: it drains the buffered delta, then sees the drop

	sawResync := false
	for ev := range events {
		if ev.Event == "resync" {
			sawResync = true
			if !strings.Contains(ev.Data, "slow consumer") {
				t.Fatalf("resync data %q lacks the reason", ev.Data)
			}
		}
	}
	if !sawResync {
		t.Fatal("stream ended without a resync marker")
	}

	// Reconnect: the resynced view equals a fresh batch detection on the
	// equivalent database, byte for byte.
	got := getText(t, ts.URL+"/violations?format=text")
	want := ViolationsText(detect.New(2).DetectBatch(shadow, cs))
	if got != want {
		t.Fatalf("post-resync violations diverge:\n--- served\n%s--- fresh\n%s", got, want)
	}
	// And a new stream works.
	resp2, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events2 := make(chan sseEvent, 4)
	go readSSE(resp2.Body, events2)
	if ev := <-events2; ev.Event != "hello" {
		t.Fatalf("reconnect first event %q, want hello", ev.Event)
	}
}

// TestGracefulShutdownDrains: Stop waits for queued ingest; the last
// published state reflects every acked batch.
func TestGracefulShutdownDrains(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(67, 150)
	shadow := db.Clone()
	svc, err := New(Config{DB: db, Constraints: cs, QueueCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	r := rand.New(rand.NewSource(83))
	fresh := 0
	for i := 0; i < 5; i++ {
		batch := []detect.DBOp{randomServeOp(r, shadow, &fresh, map[string]map[relation.TID]bool{})}
		postBatch(t, ts.URL, batch, svc.Schemas())
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	// Reads still serve the final state after the writer exited.
	got := getText(t, ts.URL+"/violations?format=text")
	want := ViolationsText(detect.New(2).DetectBatch(shadow, cs))
	if got != want {
		t.Fatal("post-shutdown violations diverge from fresh detection")
	}
	// Ingest is refused.
	resp, err := http.Post(ts.URL+"/batch", "text/plain", strings.NewReader("delete order 0\ncommit\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /batch after stop: %s, want 503", resp.Status)
	}
}

// TestBatchBodyCap413: a POST /batch body over Handler.MaxBatchBytes
// is refused with 413 whether the truncated prefix is well-formed or
// garbage — the size cap must win over the parse error the truncation
// itself causes (the scanner hands the parser a partial final line) —
// and a body under the cap commits normally.
func TestBatchBodyCap413(t *testing.T) {
	svc := mustNew(t, Config{DB: ordersDB(31, 50), Constraints: serveSigma()})
	h := NewHandler(svc)
	h.MaxBatchBytes = 512
	ts := httptest.NewServer(h)
	defer ts.Close()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/batch", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	valid := strings.Repeat("update order 0 price=9.99\n", 40) + "commit\n"
	if code, body := post(valid); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("well-formed oversized body: %d %s, want 413", code, body)
	}
	if code, body := post(strings.Repeat("a", 2048)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("garbage oversized body: %d %s, want 413", code, body)
	}
	if got := svc.State().Seq; got != 0 {
		t.Fatalf("an oversized body committed: seq %d", got)
	}
	if code, body := post("update order 0 price=9.99\ncommit\n"); code != http.StatusOK {
		t.Fatalf("under-cap body: %d %s, want 200", code, body)
	}
	if got := svc.State().Seq; got != 1 {
		t.Fatalf("seq %d after the good commit, want 1", got)
	}
}

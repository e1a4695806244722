package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Read request kinds (commit samples carry the commit kind instead).
const (
	kindViolations = "violations"
	kindCheck      = "check"
	kindStats      = "stats"
	kindMetrics    = "metrics"
)

// sample is one finished request. Times are offsets from the phase
// start; latency is end-due for the open loop.
type sample struct {
	phase  string
	stream int
	kind   string
	due    time.Duration
	start  time.Duration
	end    time.Duration
	at     time.Time // absolute due time, for the stream-lag join
	ok     bool
	traced bool
	ops    int
	seq    uint64
	bytes  int
}

func (s sample) latency() time.Duration { return s.end - s.due }

// loadgen drives one server: at most nproc requests in flight over at
// most nproc keep-alive connections.
type loadgen struct {
	base      string
	client    *http.Client
	sem       chan struct{}
	tr        *tracer // records the requests marked traced; nil on untraced runs
	checkBody []byte

	mu       sync.Mutex
	samples  []sample
	failure  error // first structural failure: ends the phase, fails the run
	backlog  map[string]int
	phaseLen map[string]time.Duration // measured wall length of each phase
}

func newLoadgen(base string, checkBody []byte) *loadgen {
	n := runtime.NumCPU()
	tp := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &loadgen{
		base:      base,
		client:    &http.Client{Transport: tp, Timeout: 60 * time.Second},
		sem:       make(chan struct{}, n),
		checkBody: checkBody,
		backlog:   map[string]int{},
		phaseLen:  map[string]time.Duration{},
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

func (g *loadgen) fail(err error) {
	g.mu.Lock()
	if g.failure == nil {
		g.failure = err
	}
	g.mu.Unlock()
}

func (g *loadgen) failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failure != nil
}

// send performs one request and fills in the sample's outcome. With a
// tracer it records a client.request span with encode, roundtrip and
// decode children.
func (g *loadgen) send(r request, s *sample) {
	var method, path string
	var body []byte
	t0 := time.Now()
	switch r.stream {
	case streamViolations:
		method, path, s.kind = http.MethodGet, "/violations", kindViolations
	case streamCheck:
		method, path, s.kind, body = http.MethodPost, "/check", kindCheck, g.checkBody
	case streamStats:
		method, path, s.kind = http.MethodGet, "/stats", kindStats
	case streamMetrics:
		method, path, s.kind = http.MethodGet, "/metrics", kindMetrics
	default:
		method, path, s.kind = http.MethodPost, "/batch", r.commit.kind
		body = []byte(r.commit.body())
		s.ops = len(r.commit.ops)
	}
	t1 := time.Now()
	req, err := http.NewRequest(method, g.base+path, bytes.NewReader(body))
	if err != nil {
		g.fail(err)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		if r.stream == streamStructural {
			g.fail(fmt.Errorf("structural commit: %w", err))
		}
		return
	}
	// The round trip ends when the last body byte is here.
	var buf bytes.Buffer
	var n int64
	if path == "/batch" {
		n, err = buf.ReadFrom(resp.Body)
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	t2 := time.Now()
	s.bytes = int(n)
	if err == nil && resp.StatusCode == http.StatusOK {
		s.ok = true
	}
	if path == "/batch" {
		var ack struct {
			Seq uint64 `json:"seq"`
			Ops int    `json:"ops"`
		}
		if s.ok {
			if json.Unmarshal(buf.Bytes(), &ack) != nil || ack.Ops != s.ops {
				s.ok = false
			}
			s.seq = ack.Seq
		}
		if !s.ok && r.stream == streamStructural {
			g.fail(fmt.Errorf("structural commit: status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String())))
		}
	}
	t3 := time.Now()
	if r.traced {
		s.traced = true
		id := g.tr.reserve()
		g.tr.add(id, "client.encode", t0, t1, nil)
		g.tr.add(id, "client.roundtrip", t1, t2, nil)
		g.tr.add(id, "client.decode", t2, t3, nil)
		g.tr.finish(id, 0, "client.request", t0, t3, map[string]any{
			"phase": s.phase, "stream": r.stream, "kind": s.kind, "due_us": us(s.due),
			"ops": s.ops, "seq": s.seq, "ok": s.ok, "bytes": s.bytes,
		})
	}
}

func (g *loadgen) record(s sample) {
	g.mu.Lock()
	g.samples = append(g.samples, s)
	g.mu.Unlock()
}

// one runs a request behind the global semaphore and records it.
func (g *loadgen) one(phase string, r request, phaseStart time.Time) {
	s := sample{phase: phase, stream: r.stream, due: r.due, at: phaseStart.Add(r.due)}
	g.sem <- struct{}{}
	s.start = time.Since(phaseStart)
	g.send(r, &s)
	s.end = time.Since(phaseStart)
	<-g.sem
	g.record(s)
}

// openLoop issues each stream's requests at their due times, one
// goroutine a stream, so a stream never has two requests in flight and
// a stalled server delays — but does not thin — what follows. It
// returns when every request has finished; what finished after the
// nominal phase end is the backlog.
func (g *loadgen) openLoop(phase string, dur time.Duration, sched [numStreams][]request) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range sched {
		if len(reqs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.runStream(phase, reqs, start)
		}()
	}
	wg.Wait()
	g.endPhase(phase, start, dur)
}

func (g *loadgen) runStream(phase string, reqs []request, start time.Time) {
	for _, r := range reqs {
		if g.failed() {
			return
		}
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		g.one(phase, r, start)
	}
}

func (g *loadgen) endPhase(phase string, start time.Time, dur time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.phaseLen[phase] = time.Since(start)
	for _, s := range g.samples {
		if s.phase == phase && s.end > dur {
			g.backlog[phase]++
		}
	}
}

// closedLoop runs nproc clients back to back over the commits next
// hands out (until it reports false), while the read streams keep
// their open-loop schedule. A commit waits for the previous commit of
// its stream, so stream order holds under any worker interleaving; a
// worker only ever waits on commits drawn before its own, so this
// cannot deadlock.
func (g *loadgen) closedLoop(phase string, dur time.Duration, next func() (int, commit, bool), reads [numStreams][]request) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, reqs := range reads {
		if len(reqs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.runStream(phase, reqs, start)
		}()
	}
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var issued, done [numStreams]int
	for w := 0; w < cap(g.sem); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !g.failed() {
				mu.Lock()
				stream, c, ok := next()
				if !ok {
					mu.Unlock()
					return
				}
				ticket := issued[stream]
				issued[stream]++
				for done[stream] != ticket {
					cond.Wait()
				}
				mu.Unlock()
				g.one(phase, request{stream: stream, due: time.Since(start), commit: c}, start)
				mu.Lock()
				done[stream]++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	g.endPhase(phase, start, dur)
}

// phaseSamples returns the phase's samples of the given kinds (all
// commit kinds when kinds is empty).
func (g *loadgen) phaseSamples(phase string, kinds ...string) []sample {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []sample
	for _, s := range g.samples {
		if s.phase != phase {
			continue
		}
		if len(kinds) == 0 {
			if s.stream <= updateStripes {
				out = append(out, s)
			}
			continue
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s)
			}
		}
	}
	return out
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// counts returns how many requests the named phases attempted and how
// many of them failed.
func (g *loadgen) counts(phases ...string) (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.samples {
		for _, p := range phases {
			if s.phase == p {
				attempted++
				if !s.ok {
					failed++
				}
			}
		}
	}
	return attempted, failed
}

// subscriber holds one /stream connection open and notes when each
// commit's delta event arrived.
type subscriber struct {
	mu      sync.Mutex
	arrived map[uint64]time.Time
	lost    bool // the server dropped us as a slow consumer
	cancel  context.CancelFunc
	done    chan struct{}
}

func subscribe(base string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream", nil)
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /stream: status %d", resp.StatusCode)
	}
	sub := &subscriber{arrived: map[uint64]time.Time{}, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer resp.Body.Close()
		sub.read(bufio.NewReaderSize(resp.Body, 64<<10))
	}()
	return sub, nil
}

// read scans the event stream. Only the head of each line matters
// ("event: X", `data: {"seq":N,`), so over-long data lines are skipped
// rather than buffered.
func (sub *subscriber) read(r *bufio.Reader) {
	event := ""
	for {
		line, isPrefix, err := r.ReadLine()
		if err != nil {
			return
		}
		now := time.Now()
		head := string(line)
		for isPrefix && err == nil {
			_, isPrefix, err = r.ReadLine()
		}
		switch {
		case strings.HasPrefix(head, "event: "):
			event = head[len("event: "):]
			if event == "resync" {
				sub.mu.Lock()
				sub.lost = true
				sub.mu.Unlock()
			}
		case strings.HasPrefix(head, `data: {"seq":`) && event == "delta":
			rest := head[len(`data: {"seq":`):]
			end := strings.IndexAny(rest, ",}")
			if end < 0 {
				continue
			}
			if seq, err := strconv.ParseUint(rest[:end], 10, 64); err == nil {
				sub.mu.Lock()
				sub.arrived[seq] = now
				sub.mu.Unlock()
			}
		}
	}
}

func (sub *subscriber) close() {
	sub.cancel()
	<-sub.done
}

// lagsMS joins commit acks with delta arrivals: due time -> the SSE
// event carrying the commit's seq.
func (sub *subscriber) lagsMS(commits []sample) (lags []float64, missing int) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for _, s := range commits {
		if !s.ok {
			continue
		}
		at, ok := sub.arrived[s.seq]
		if !ok {
			missing++
			continue
		}
		lags = append(lags, ms(at.Sub(s.at)))
	}
	return lags, missing
}

// settle is lagsMS once the last deltas, which may still be on their
// way when the phase ends, have had a moment to arrive.
func (sub *subscriber) settle(commits []sample) (lags []float64, missing int) {
	for i := 0; i < 100; i++ {
		if lags, missing = sub.lagsMS(commits); missing == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return lags, missing
}

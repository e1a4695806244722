package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// checkProbe is what POST /check evaluates on the orders workload: one
// FD the data satisfies, so the probe cannot stop at a first violation
// and has to index and scan the whole relation, plus the workload's
// eCFD.
func checkProbe() []byte {
	body, err := json.Marshal(map[string]string{"cfds": probeCFD, "ecfds": probeECFD})
	if err != nil {
		panic(err)
	}
	return body
}

// serverRun is the state of one server workload run.
type serverRun struct {
	e    *env
	s    spec
	seed int64
	sz   sizes
	dir  string

	ds     *dataset
	rules  ruleSet
	plan   *planner
	srv    *server
	gen    *loadgen
	sub    *subscriber
	starts int // servers started so far, for unique tags and data dirs
	data   string
}

func (e *env) newServerRun(s spec, seed int64, sz sizes, tag string) (*serverRun, error) {
	r := &serverRun{e: e, s: s, seed: seed, sz: sz,
		dir: filepath.Join(e.scratch, fmt.Sprintf("%s-%d-%s", s.name, seed, tag))}
	var err error
	if r.ds, err = makeDataset(s.dataset, s.tuples/sz.tupleDiv, s.errRate, seed, r.dir); err != nil {
		return nil, err
	}
	if r.rules, err = loadRules(e, s.rules, schemasOf(r.ds.db)); err != nil {
		return nil, err
	}
	r.plan = newPlanner(s, r.ds, seed)
	return r, nil
}

// start execs dqserve on a fresh data directory (or, with reuse, on
// the previous one: the recovery path).
func (r *serverRun) start(reuse bool) (time.Duration, error) {
	if !reuse {
		r.starts++
		r.data = filepath.Join(r.dir, fmt.Sprintf("data%d", r.starts))
	}
	args := append(dataArgs(r.ds.files), r.e.rulesArgs(r.s.rules)...)
	args = append(args, r.s.serverArgs(r.data)...)
	tag := fmt.Sprintf("%s-%d-start%d", r.s.name, r.seed, r.starts)
	if reuse {
		tag += "-recover"
	}
	srv, took, err := r.e.startServer(args, tag)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	return took, nil
}

// connect opens the load generator (and the SSE subscriber) on the
// running server.
func (r *serverRun) connect() error {
	var body []byte
	if r.s.checkRate > 0 {
		body = checkProbe()
	}
	r.gen = newLoadgen(r.srv.base, body)
	if r.s.sse {
		sub, err := subscribe(r.srv.base)
		if err != nil {
			return err
		}
		r.sub = sub
	}
	return nil
}

func (r *serverRun) close() {
	if r.sub != nil {
		r.sub.close()
	}
	if r.gen != nil {
		r.gen.close()
	}
	if r.srv != nil {
		r.srv.kill()
	}
}

// warm writes every hot tuple, then runs the lo schedule untimed, so
// the violation set is stationary, connections are open and both the
// update and the structural path have run before anything is measured.
func (r *serverRun) warm() {
	streams, commits := r.plan.warmCommits()
	i := 0
	r.gen.closedLoop("warm", 0, func() (int, commit, bool) {
		if i >= len(commits) {
			return 0, commit{}, false
		}
		i++
		return streams[i-1], commits[i-1], true
	}, [numStreams][]request{})
	r.gen.openLoop("warm", r.sz.warm, r.plan.schedule(r.s.loRate, r.sz.warm))
}

func (r *serverRun) phaseDurations() (lo, hi, sat time.Duration) {
	lo = time.Duration(float64(r.sz.measure) * loShare)
	hi = time.Duration(float64(r.sz.measure) * hiShare)
	return lo, hi, r.sz.measure - lo - hi
}

// verify checks the server against the oracle: every planned commit
// was acknowledged, and GET /violations?format=text is byte-identical
// to a fresh detection over a shadow database that applied the same
// commits.
func (r *serverRun) verify() (want string, err error) {
	if err := r.gen.failure; err != nil {
		return "", err
	}
	acked := 0
	for _, s := range r.gen.samples {
		if s.stream <= updateStripes && s.ok {
			acked++
		}
	}
	if acked != len(r.plan.issued) {
		return "", fmt.Errorf("%d of %d commits were not acknowledged", len(r.plan.issued)-acked, len(r.plan.issued))
	}
	shadow := r.ds.db.Clone()
	batches, err := toBatches(r.plan.issued, schemasOf(shadow))
	if err != nil {
		return "", err
	}
	if err := applyTo(shadow, batches); err != nil {
		return "", err
	}
	want = expectedText(shadow, r.rules.all())
	got, err := fetchViolationsText(r.srv.base)
	if err != nil {
		return "", err
	}
	if got != want {
		return "", fmt.Errorf("oracle mismatch: GET /violations differs from a fresh detection: %s", firstDiff(want, got))
	}
	return want, nil
}

func (r *serverRun) lastSeq() uint64 {
	var last uint64
	for _, s := range r.gen.samples {
		if s.ok && s.seq > last {
			last = s.seq
		}
	}
	return last
}

// crashAndRecover kills the server with SIGKILL after its last ack,
// restarts it on the same data directory and requires the acknowledged
// state back: same seq, same violations.
func (r *serverRun) crashAndRecover(want string) (time.Duration, error) {
	last := r.lastSeq()
	r.gen.close()
	r.srv.kill()
	took, err := r.start(true)
	if err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	seq, err := r.srv.healthSeq()
	if err != nil {
		return 0, err
	}
	if seq != last {
		return 0, fmt.Errorf("recovered to seq %d, last acknowledged was %d", seq, last)
	}
	got, err := fetchViolationsText(r.srv.base)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("oracle mismatch after recovery: %s", firstDiff(want, got))
	}
	return took, nil
}

// scrape reads /metrics into series -> value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body), nil
}

// parseProm reads the Prometheus text format into series -> value.
func parseProm(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// windowedRate is acknowledged ops per second over the phase's full
// satWindow windows, as the mean of the middle half of the windows: a
// stall (or a burst after one) moves single windows, not that mean.
func windowedRate(ss []sample, phase time.Duration) float64 {
	n := int(phase / satWindow)
	if n < 1 {
		return float64(ackedOps(ss)) / phase.Seconds()
	}
	windows := make([]float64, n)
	for _, s := range ss {
		if w := int(s.end / satWindow); s.ok && w < n {
			windows[w] += float64(s.ops)
		}
	}
	sort.Float64s(windows)
	return mean(windows[n/4:n-n/4]) / satWindow.Seconds()
}

func ackedOps(ss []sample) (ops int) {
	for _, s := range ss {
		if s.ok {
			ops += s.ops
		}
	}
	return ops
}

// runServerUntraced measures the end-to-end metrics of one server
// workload.
func (e *env) runServerUntraced(s spec, seed int64, sz sizes) (*workloadResult, error) {
	res := &workloadResult{Workload: s.name, Seed: seed, Phases: map[string]float64{}}
	r, err := e.newServerRun(s, seed, sz, "e2e")
	if err != nil {
		return nil, err
	}
	defer r.close()
	defer os.RemoveAll(r.dir)

	// Set-up several times; the last server stays up for the run.
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if r.srv != nil {
			r.srv.kill()
		}
		took, err := r.start(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	res.set("setup_s", median(setups), len(setups))
	if err := r.connect(); err != nil {
		return nil, err
	}
	r.warm()

	lo, hi, sat := r.phaseDurations()
	cpu0, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	var wal0 float64
	if s.durable {
		m, err := scrape(r.srv.base)
		if err != nil {
			return nil, err
		}
		wal0 = m["dq_wal_appended_bytes"]
	}
	r.gen.openLoop("lo", lo, r.plan.schedule(s.loRate, lo))
	cpu1, err := r.srv.cpu()
	if err != nil {
		return nil, err
	}
	r.gen.openLoop("hi", hi, r.plan.schedule(s.hiRate, hi))
	deadline := time.Now().Add(sat)
	r.gen.closedLoop("sat", sat, func() (int, commit, bool) {
		if time.Now().After(deadline) {
			return 0, commit{}, false
		}
		stream, c := r.plan.next()
		return stream, c, true
	}, r.plan.schedule(0, sat))
	rss, err := r.srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	var wal1 float64
	if s.durable {
		m, err := scrape(r.srv.base)
		if err != nil {
			return nil, err
		}
		wal1 = m["dq_wal_appended_bytes"]
	}
	for _, p := range []string{"warm", "lo", "hi", "sat"} {
		res.Phases[p] = r.gen.phaseLen[p].Seconds()
	}

	loCommits := r.gen.phaseSamples("lo")
	var lags []float64
	missing := 0
	if r.sub != nil {
		lags, missing = r.sub.settle(loCommits)
		if r.sub.lost {
			return nil, fmt.Errorf("the /stream subscriber was dropped as a slow consumer")
		}
	}
	want, err := r.verify()
	if err != nil {
		return nil, err
	}
	if s.durable {
		took, err := r.crashAndRecover(want)
		if err != nil {
			return nil, err
		}
		res.set("recover_s", took.Seconds(), 1)
	}
	res.Correct = true

	lat := latenciesMS(loCommits)
	res.set("latency_p50_ms", percentile(lat, 0.5), len(lat))
	res.set("latency_mean_ms", mean(lat), len(lat))
	res.set("latency_p75_ms", percentile(lat, 0.75), len(lat))
	hiLat := latenciesMS(r.gen.phaseSamples("hi"))
	res.set("latency_hi_p90_ms", percentile(hiLat, 0.9), len(hiLat))
	satCommits := r.gen.phaseSamples("sat")
	res.set("throughput_per_s", windowedRate(satCommits, sat), len(satCommits))
	// CPU over lo alone: the open loop offers the same ops and the same
	// reads on every run, so the quotient compares like with like.
	res.set("cpu_us_per_op", us(cpu1-cpu0)/float64(ackedOps(loCommits)), ackedOps(loCommits))
	res.set("rss_peak_mb", rss, 1)
	if s.violationsRate > 0 {
		reads := latenciesMS(r.gen.phaseSamples("lo", kindViolations))
		res.set("read_p50_ms", percentile(reads, 0.5), len(reads))
		res.set("read_p90_ms", percentile(reads, 0.9), len(reads))
	}
	if s.checkRate > 0 {
		checks := latenciesMS(r.gen.phaseSamples("lo", kindCheck))
		res.set("check_p50_ms", percentile(checks, 0.5), len(checks))
	}
	if r.sub != nil {
		res.set("stream_lag_p50_ms", percentile(lags, 0.5), len(lags))
	}
	if s.durable {
		ops := ackedOps(loCommits) + ackedOps(r.gen.phaseSamples("hi")) + ackedOps(satCommits)
		res.set("wal_bytes_per_op", (wal1-wal0)/float64(ops), ops)
	}
	res.Attempted, res.Failed = r.gen.counts("lo", "hi", "sat")
	res.Failed += missing
	res.set("failed_frac", float64(res.Failed)/float64(res.Attempted), res.Attempted)
	return res, res.seal()
}

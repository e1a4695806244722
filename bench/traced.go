package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// stages are the dq_stage_seconds labels, in commit order.
var stages = []string{"queue_wait", "validate", "wal_append", "wal_sync", "route", "scatter", "detect", "merge", "publish"}

// runServerTraced makes the traced run of a server workload: warm-up,
// one lo phase with client spans, /metrics scraped around it, then the
// in-process replay of the same op stream.
func (e *env) runServerTraced(s spec, seed int64, sz sizes, tr *tracer) (*workloadResult, error) {
	res := &workloadResult{Workload: s.name, Seed: seed, Traced: true, Phases: map[string]float64{}}
	r, err := e.newServerRun(s, seed, sz, "trace")
	if err != nil {
		return nil, err
	}
	defer r.close()
	defer os.RemoveAll(r.dir)
	if _, err := r.start(false); err != nil {
		return nil, err
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	r.warm()
	warmCommits := len(r.plan.issued)

	// Half the requests of each stream record client spans, in pairs
	// (two traced, two not: the structural stream alternates inserts and
	// deletes, and each half must see both); the rest run untraced beside
	// them, under the same conditions, and the difference between the two
	// halves is the tracing overhead.
	lo, _, _ := r.phaseDurations()
	sched := r.plan.schedule(s.loRate, lo)
	for _, reqs := range sched {
		for i := range reqs {
			reqs[i].traced = i/2%2 == 0
		}
	}
	before, err := scrape(r.srv.base)
	if err != nil {
		return nil, err
	}
	r.gen.tr = tr
	r.gen.openLoop("lo", lo, sched)
	after, err := scrape(r.srv.base)
	if err != nil {
		return nil, err
	}
	tracedCommits := len(r.plan.issued) - warmCommits
	if tracedCommits > s.replayCommits {
		tracedCommits = s.replayCommits
	}
	for _, p := range []string{"warm", "lo"} {
		res.Phases[p] = r.gen.phaseLen[p].Seconds()
	}
	commits := r.gen.phaseSamples("lo")
	var lags []float64
	missing := 0
	if r.sub != nil {
		lags, missing = r.sub.settle(commits)
		if r.sub.lost {
			return nil, fmt.Errorf("the /stream subscriber was dropped as a slow consumer")
		}
	}
	if _, err := r.verify(); err != nil {
		return nil, err
	}
	res.Correct = true
	res.Attempted, res.Failed = r.gen.counts("lo")
	res.Failed += missing

	// The driver's own view.
	lat := latenciesMS(commits)
	res.set("client.ack_p90_ms", percentile(lat, 0.9), len(lat))
	res.set("client.ack_p99_ms", percentile(lat, 0.99), len(lat))
	for _, k := range []string{kindUpdate, kindInsert, kindDelete} {
		ls := latenciesMS(r.gen.phaseSamples("lo", k))
		res.set("client.ack_"+k+"_p50_ms", percentile(ls, 0.5), len(ls))
	}
	reads := latenciesMS(r.gen.phaseSamples("lo", kindViolations))
	res.set("client.read_p50_ms", percentile(reads, 0.5), len(reads))
	res.set("client.read_p99_ms", percentile(reads, 0.99), len(reads))
	checks := latenciesMS(r.gen.phaseSamples("lo", kindCheck))
	res.set("client.check_p50_ms", percentile(checks, 0.5), len(checks))
	res.set("client.stream_lag_p50_ms", percentile(lags, 0.5), len(lags))
	var schedLag []float64
	all := 0
	for _, sm := range r.gen.samples {
		if sm.phase == "lo" {
			schedLag = append(schedLag, ms(sm.start-sm.due))
			all++
		}
	}
	res.set("client.sched_lag_p99_ms", percentile(schedLag, 0.99), len(schedLag))
	res.set("client.backlog_end", float64(r.gen.backlog["lo"]), all)
	res.set("client.samples", float64(all), all)
	var with, without []sample
	for _, sm := range commits {
		if sm.traced {
			with = append(with, sm)
		} else {
			without = append(without, sm)
		}
	}
	if p50 := percentile(latenciesMS(without), 0.5); p50 > 0 {
		res.set("trace.overhead_frac", (percentile(latenciesMS(with), 0.5)-p50)/p50, len(with))
	}

	// The server's view, from /metrics deltas across the traced phase,
	// reconciled against what the client saw: service time (start to
	// ack), not the due-time latency, because queueing in the driver is
	// not the server's.
	delta := func(series string) float64 { return after[series] - before[series] }
	nCommits := delta("dq_commits_total")
	var clientTotalMS float64
	acked := 0
	for _, sm := range commits {
		if sm.ok {
			clientTotalMS += ms(sm.end - sm.start)
			acked++
		}
	}
	var stageTotalMS float64
	for _, st := range stages {
		sum := delta(`dq_stage_seconds_sum{stage="`+st+`"}`) * 1000
		count := delta(`dq_stage_seconds_count{stage="` + st + `"}`)
		meanMS := 0.0
		if count > 0 {
			meanMS = sum / count
		}
		res.set("serve.stage_"+st+"_ms", meanMS, int(count))
		stageTotalMS += sum
		res.Recon = append(res.Recon, reconRow{Stage: st, Count: int(count), MeanMS: meanMS, TotalMS: sum, Share: sum / clientTotalMS})
	}
	rest := clientTotalMS - stageTotalMS
	res.Recon = append(res.Recon,
		reconRow{Stage: "unattributed", Count: acked, MeanMS: rest / float64(acked), TotalMS: rest, Share: rest / clientTotalMS},
		reconRow{Stage: "client-observed", Count: acked, MeanMS: clientTotalMS / float64(acked), TotalMS: clientTotalMS, Share: 1})
	res.set("serve.unattributed_ms", rest/float64(acked), acked)
	if nCommits > 0 {
		res.set("serve.reqs_per_commit", float64(acked)/nCommits, int(nCommits))
		res.set("serve.ops_per_commit", delta("dq_ops_total")/nCommits, int(nCommits))
		res.set("wal.syncs_per_commit", delta("dq_wal_syncs")/nCommits, int(nCommits))
	}
	res.set("serve.rejects", delta("dq_batch_rejects_total"), 1)
	res.set("serve.op_errors", delta("dq_commit_op_errors_total"), 1)

	// The server is no longer needed; the replay wants the cores.
	r.close()
	r.srv, r.gen, r.sub = nil, nil, nil
	if err := e.replayServer(s, r, warmCommits, tracedCommits, tr, res); err != nil {
		return nil, err
	}
	if self := res.values["detect.apply_us_per_commit"] - res.values["relation.catchup_us_per_commit"]; self != 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("self times: detect.apply - relation.catchup = %.1f us/commit; serve.submit - detect.apply = %.1f us/commit",
			self, res.values["serve.submit_us_per_commit"]-res.values["detect.apply_us_per_commit"]))
	}
	return res, res.seal()
}

// runBatchTraced makes the traced run of batch_detect: one dqdetect
// process per variant under a client.process span, then the layers the
// process is made of, timed in-process on the same inputs.
func (e *env) runBatchTraced(seed int64, sz sizes, tr *tracer) (res *workloadResult, err error) {
	res = &workloadResult{Workload: wBatch, Seed: seed, Traced: true, Phases: map[string]float64{}}
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d-trace", wBatch, seed))
	defer os.RemoveAll(dir)
	inputs, err := e.makeBatchInputs(seed, sz, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("in-process probes: %v", p)
		}
	}()
	for _, in := range inputs {
		rp := &replay{tr: tr, res: res, ds: in.ds, rules: in.rules, cs: in.rules.all(), schemas: schemasOf(in.ds.db)}
		var run detectRun
		var runErr error
		rp.span(0, "client.process", map[string]any{"variant": in.v.name}, func() {
			run, runErr = e.runDetect(in, fmt.Sprintf("%s-%d-%s-trace", wBatch, seed, in.v.name))
		})
		if runErr != nil {
			return nil, runErr
		}
		res.Attempted++
		var found int
		if in.v.shards > 1 {
			// Same files as the flat customers variant: only the sharded
			// layers are new.
			found = rp.shardedBuild(in.v.shards)
		} else {
			found = rp.loadAndBuild()
		}
		if run.total != found {
			return nil, fmt.Errorf("oracle mismatch: dqdetect on %s reports %d violations, a fresh detection finds %d",
				in.v.name, run.total, found)
		}
	}
	res.Correct = true
	res.set("client.samples", float64(res.Attempted), res.Attempted)
	return res, res.seal()
}

package main

// The in-process half of the traced run: the op stream the server saw
// is replayed through each layer's public functions, one pass per
// layer, every call wrapped in a span under that commit's
// replay.commit span. Nothing here touches the programs under test —
// the layers are timed from outside, by calling into them.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/wal"
)

// replay holds what every pass needs.
type replay struct {
	tr      *tracer
	res     *workloadResult
	ds      *dataset
	rules   ruleSet
	cs      []detect.Constraint
	schemas map[string]*relation.Schema
	warm    [][]detect.DBOp // brings each pass's database to where the traced phase began; not timed
	batches [][]detect.DBOp // the traced phase's commits, in plan order
	kinds   []string
	dir     string
}

// warmed returns a private copy of the generated database with the
// warm-up applied straight to the instances: every pass starts from
// the state the server was in when the traced phase began, without
// paying for the warm-up through the layer under test.
func (rp *replay) warmed() *relation.Database {
	db := rp.ds.db.Clone()
	if err := applyTo(db, rp.warm); err != nil {
		panic(err)
	}
	return db
}

// span times fn under parent and returns how long it took.
func (rp *replay) span(parent int, name string, attrs map[string]any, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	rp.tr.add(parent, name, start, end, attrs)
	return end.Sub(start)
}

// commits runs one pass over the op stream: fn gets each batch and the
// id of its replay.commit span, and records child spans itself.
func (rp *replay) commits(pass string, fn func(i int, batch []detect.DBOp, root int)) {
	for i, batch := range rp.batches {
		root := rp.tr.reserve()
		start := time.Now()
		fn(i, batch, root)
		rp.tr.finish(root, 0, "replay.commit", start, time.Now(), map[string]any{
			"pass": pass, "index": i, "kind": rp.kinds[i], "ops": len(batch)})
	}
}

// meanUS is the mean of per-commit durations, in microseconds.
func meanUS(ds []time.Duration) (float64, int) {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	if len(ds) == 0 {
		return 0, 0
	}
	return us(sum) / float64(len(ds)), len(ds)
}

func (rp *replay) ops() int {
	n := 0
	for _, b := range rp.batches {
		n += len(b)
	}
	return n
}

// mutate applies a batch straight to the instances, with no monitor.
func mutate(db *relation.Database, batch []detect.DBOp) {
	if err := applyTo(db, [][]detect.DBOp{batch}); err != nil {
		panic(err) // the plan is valid by construction; the oracle already applied it
	}
}

// indexReqs is every distinct (relation, positions) group index Σ asks
// for.
func indexReqs(cs []detect.Constraint) []detect.IndexReq {
	var out []detect.IndexReq
	seen := map[string]bool{}
	for _, c := range cs {
		for _, req := range c.Reqs() {
			key := fmt.Sprint(req.Rel, req.Pos)
			if !seen[key] {
				seen[key] = true
				out = append(out, req)
			}
		}
	}
	return out
}

// loadAndBuild times the cold path every program start pays: CSV load,
// columnar snapshot, group indexes, full detection — whole and by rule
// class. It adds to the metrics, so batch_detect can sum its variants,
// and returns how many violations the full detection found.
func (rp *replay) loadAndBuild() int {
	res := rp.res
	add := func(name string, d time.Duration) { res.set(name, res.values[name]+ms(d), res.counts[name]+1) }

	loaded := relation.NewDatabase()
	add("relation.csv_load_ms", rp.span(0, "relation.csv_load", nil, func() {
		for rel, path := range rp.ds.files {
			f, err := os.Open(path)
			if err != nil {
				panic(err)
			}
			in, err := relation.ReadCSV(f, rel)
			f.Close()
			if err != nil {
				panic(err)
			}
			loaded.Add(in)
		}
	}))
	var dbs *relation.DBSnapshot
	add("relation.snapshot_build_ms", rp.span(0, "relation.snapshot_build", nil, func() {
		dbs = relation.DBSnapshotOf(loaded)
	}))
	add("relation.codeindex_build_ms", rp.span(0, "relation.codeindex_build", nil, func() {
		for _, req := range indexReqs(rp.cs) {
			if snap, ok := dbs.Snapshot(req.Rel); ok {
				relation.BuildCodeIndex(snap, req.Pos)
			}
		}
	}))
	engine := &detect.Engine{}
	found := 0
	add("detect.full_ms", rp.span(0, "detect.full", nil, func() { found = len(engine.DetectBatchOn(dbs, rp.cs)) }))
	// Per class, on the snapshot whose indexes the full pass has built.
	for _, class := range []struct {
		name string
		cs   []detect.Constraint
	}{{"cfd", rp.rules.cfds}, {"cind", rp.rules.cinds}, {"ecfd", rp.rules.ecfds}} {
		if len(class.cs) > 0 {
			add(class.name+".detect_ms", rp.span(0, class.name+".detect", nil, func() { engine.DetectBatchOn(dbs, class.cs) }))
		}
	}
	entries := 0
	for _, name := range dbs.Names() {
		if snap, ok := dbs.Snapshot(name); ok {
			for pos := 0; pos < snap.Schema().Arity(); pos++ {
				entries += snap.Dict(pos).Len()
			}
		}
	}
	res.set("relation.dict_entries", res.values["relation.dict_entries"]+float64(entries), 1)
	return found
}

// partition builds the sharded database Σ's derived keys give.
func (rp *replay) partition(db *relation.Database, shards int) *relation.ShardedDB {
	keys, err := detect.DeriveShardKeys(rp.cs)
	if err != nil {
		panic(err)
	}
	p := relation.NewPartitioner(shards)
	for rel, pos := range keys {
		p.SetKey(rel, pos)
	}
	sdb, err := relation.Partition(db, p)
	if err != nil {
		panic(err)
	}
	return sdb
}

// shardedBuild times partitioning and the scatter-gather full
// detection, and returns how many violations it found.
func (rp *replay) shardedBuild(shards int) int {
	res := rp.res
	var sdb *relation.ShardedDB
	db := rp.warmed()
	d := rp.span(0, "relation.partition", map[string]any{"shards": shards}, func() { sdb = rp.partition(db, shards) })
	res.set("relation.partition_ms", ms(d), 1)
	found := 0
	d = rp.span(0, "detect.full_sharded", nil, func() {
		vs, err := (&detect.Engine{}).DetectBatchSharded(sdb, rp.cs)
		if err != nil {
			panic(err)
		}
		found = len(vs)
	})
	res.set("detect.full_sharded_ms", ms(d), 1)
	res.set("relation.shard_skew", shardSkew(sdb), 1)
	return found
}

// shardSkew is the largest shard over the mean shard.
func shardSkew(sdb *relation.ShardedDB) float64 {
	largest, total := 0, 0
	for i := 0; i < sdb.Shards(); i++ {
		n := sdb.Shard(i).Size()
		total += n
		if n > largest {
			largest = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(largest) * float64(sdb.Shards()) / float64(total)
}

// relationPass: mutate, then catch the snapshot up — what every commit
// pays before any detection.
func (rp *replay) relationPass() *relation.Database {
	db := rp.warmed()
	relation.DBSnapshotOf(db)
	catchup := make([]time.Duration, len(rp.batches))
	rp.commits("relation", func(i int, batch []detect.DBOp, root int) {
		rp.span(root, "relation.mutate", nil, func() { mutate(db, batch) })
		catchup[i] = rp.span(root, "relation.catchup", nil, func() { relation.DBSnapshotOf(db) })
	})
	v, n := meanUS(catchup)
	rp.res.set("relation.catchup_us_per_commit", v, n)
	return db
}

// monitor is what the flat and the sharded monitor share.
type monitor interface {
	Apply(batch []detect.DBOp) (gained, cleared []detect.Violation, err error)
	Sync() (gained, cleared []detect.Violation)
	Len() int
	FullSyncs() int
}

func (rp *replay) newMonitor(shards int) (monitor, *detect.ShardedDBMonitor, *relation.Database) {
	db := rp.warmed()
	if shards > 1 {
		sm, err := detect.NewShardedDBMonitor(&detect.Engine{}, rp.partition(db, shards), rp.cs)
		if err != nil {
			panic(err)
		}
		return sm, sm, nil
	}
	return detect.NewDBMonitor(&detect.Engine{}, db, rp.cs), nil, db
}

// detectPasses: Apply as the service calls it, then the same stream
// with mutation and Sync timed apart (on the sharded monitor: route,
// per-shard apply, sync).
func (rp *replay) detectPasses(shards int) {
	res := rp.res
	m, _, _ := rp.newMonitor(shards)
	apply := make([]time.Duration, len(rp.batches))
	gained, cleared := 0, 0
	rp.commits("detect.apply", func(i int, batch []detect.DBOp, root int) {
		apply[i] = rp.span(root, "detect.apply", nil, func() {
			g, c, err := m.Apply(batch)
			if err != nil {
				panic(err)
			}
			gained, cleared = gained+len(g), cleared+len(c)
		})
	})
	v, n := meanUS(apply)
	res.set("detect.apply_us_per_commit", v, n)
	res.set("detect.full_syncs", float64(m.FullSyncs()), 1)
	res.set("detect.gained", float64(gained), len(rp.batches))
	res.set("detect.cleared", float64(cleared), len(rp.batches))
	res.set("detect.violations_end", float64(m.Len()), 1)

	m, sm, db := rp.newMonitor(shards)
	sync := make([]time.Duration, len(rp.batches))
	route := make([]time.Duration, len(rp.batches))
	shardApply := make([]time.Duration, len(rp.batches))
	rp.commits("detect.sync", func(i int, batch []detect.DBOp, root int) {
		if sm == nil {
			rp.span(root, "relation.mutate", nil, func() { mutate(db, batch) })
		} else {
			var r *relation.Routing
			route[i] = rp.span(root, "relation.route", nil, func() {
				var err error
				if r, err = sm.Route(batch); err != nil {
					panic(err)
				}
			})
			shardApply[i] = rp.span(root, "relation.shard_apply", nil, func() {
				if err := sm.ApplyRouting(r); err != nil {
					panic(err)
				}
			})
		}
		sync[i] = rp.span(root, "detect.sync", nil, func() { m.Sync() })
	})
	v, n = meanUS(sync)
	res.set("detect.sync_us_per_commit", v, n)
	if sm != nil {
		ops := float64(rp.ops())
		v, _ = meanUS(route)
		res.set("relation.route_us_per_op", v*float64(n)/ops, int(ops))
		v, _ = meanUS(shardApply)
		res.set("relation.shard_apply_us_per_op", v*float64(n)/ops, int(ops))
	}
}

// Probe rules for Service.Check: the ones POST /check sends.
const (
	probeCFD  = "cfd order: [asin] -> [title, price]\n  _ || _, _\n"
	probeECFD = "ecfd order: [type] -> [price]\n  notin{book,CD} || _\n"
)

func (rp *replay) probe() []detect.Constraint {
	cfds, err := cfd.Parse(strings.NewReader(probeCFD), rp.schemas)
	if err != nil {
		panic(err)
	}
	ecfds, err := ecfd.Parse(strings.NewReader(probeECFD), rp.schemas)
	if err != nil {
		panic(err)
	}
	return append(detect.WrapCFDs(cfds), detect.WrapECFDs(ecfds)...)
}

func (rp *replay) newService(s spec, tag string) (*serve.Service, time.Duration) {
	cfg := serve.Config{Engine: &detect.Engine{}, DB: rp.warmed(), Constraints: rp.cs,
		Shards: s.shards, Obs: &serve.ObsConfig{}}
	if s.durable {
		cfg.Durable = &serve.DurableConfig{Dir: filepath.Join(rp.dir, "serve-"+tag),
			SyncEvery: s.syncEvery, CheckpointEvery: s.ckptEvery}
	}
	var svc *serve.Service
	d := rp.span(0, "serve.new", map[string]any{"pass": tag}, func() {
		var err error
		if svc, err = serve.New(cfg); err != nil {
			panic(err)
		}
	})
	return svc, d
}

// stageSeconds sums the dq_stage_seconds histograms of an in-process
// service: the time its pipeline accounts for.
func stageSeconds(svc *serve.Service) float64 {
	var buf bytes.Buffer
	if err := svc.Metrics().WritePrometheus(&buf); err != nil {
		panic(err)
	}
	total := 0.0
	for series, v := range parseProm(&buf) {
		if strings.HasPrefix(series, "dq_stage_seconds_sum{") {
			total += v
		}
	}
	return total
}

// servePasses: Service.Submit per commit, then the same stream through
// the HTTP handler on a recorder; reads, probes and a scrape on the
// final state, for the endpoints the workload calls.
func (rp *replay) servePasses(s spec) {
	res := rp.res
	ctx := context.Background()
	svc, took := rp.newService(s, "submit")
	res.set("serve.new_ms", ms(took), 1)
	submit := make([]time.Duration, len(rp.batches))
	rp.commits("serve.submit", func(i int, batch []detect.DBOp, root int) {
		submit[i] = rp.span(root, "serve.submit", nil, func() {
			if _, err := svc.Submit(ctx, batch); err != nil {
				panic(err)
			}
		})
	})
	svc.Stop(ctx)
	v, n := meanUS(submit)
	res.set("serve.submit_us_per_commit", v, n)

	svc, _ = rp.newService(s, "http")
	defer svc.Stop(ctx)
	h := serve.NewHandler(svc)
	viaHTTP := make([]time.Duration, len(rp.batches))
	staged := stageSeconds(svc)
	rp.commits("serve.http", func(i int, batch []detect.DBOp, root int) {
		var body bytes.Buffer
		if err := oplog.Format(&body, [][]detect.DBOp{batch}, rp.schemas); err != nil {
			panic(err)
		}
		viaHTTP[i] = rp.span(root, "serve.http", nil, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", &body))
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("replay POST /batch: status %d: %s", rec.Code, rec.Body))
			}
		})
	})
	// The handler's own cost is what the pipeline stages of the very
	// same calls do not account for. (Subtracting the Submit pass would
	// subtract two large numbers measured at different times.)
	staged = stageSeconds(svc) - staged
	v, _ = meanUS(viaHTTP)
	res.set("serve.http_us_per_req", v-staged*1e6/float64(n), n)

	const reads = 3
	timeReads := func(name string, fn func()) float64 {
		var total time.Duration
		for i := 0; i < reads; i++ {
			total += rp.span(0, name, nil, fn)
		}
		return ms(total) / reads
	}
	if s.violationsRate > 0 {
		size := 0
		res.set("serve.violations_json_ms", timeReads("serve.violations_json", func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/violations", nil))
			size = rec.Body.Len()
		}), reads)
		res.set("serve.violations_json_bytes", float64(size), 1)
	}
	if s.checkRate > 0 {
		probe := rp.probe()
		res.set("serve.check_ms", timeReads("serve.check", func() {
			if _, _, err := svc.Check(probe); err != nil {
				panic(err)
			}
		}), reads)
	}
	size := 0
	res.set("obs.scrape_ms", timeReads("obs.scrape", func() {
		var buf bytes.Buffer
		if err := svc.Metrics().WritePrometheus(&buf); err != nil {
			panic(err)
		}
		size = buf.Len()
	}), reads)
	res.set("obs.scrape_bytes", float64(size), 1)
}

// oplogPass: the wire codec alone.
func (rp *replay) oplogPass() [][]byte {
	format := make([]time.Duration, len(rp.batches))
	parse := make([]time.Duration, len(rp.batches))
	wire := make([][]byte, len(rp.batches))
	rp.commits("oplog", func(i int, batch []detect.DBOp, root int) {
		var buf bytes.Buffer
		format[i] = rp.span(root, "oplog.format", nil, func() {
			if err := oplog.Format(&buf, [][]detect.DBOp{batch}, rp.schemas); err != nil {
				panic(err)
			}
		})
		wire[i] = buf.Bytes()
		parse[i] = rp.span(root, "oplog.parse", nil, func() {
			if _, err := oplog.Parse(bytes.NewReader(wire[i]), rp.schemas); err != nil {
				panic(err)
			}
		})
	})
	ops := float64(rp.ops())
	bytesTotal := 0
	for _, w := range wire {
		bytesTotal += len(w)
	}
	v, n := meanUS(format)
	rp.res.set("oplog.format_us_per_op", v*float64(n)/ops, int(ops))
	v, _ = meanUS(parse)
	rp.res.set("oplog.parse_us_per_op", v*float64(n)/ops, int(ops))
	rp.res.set("oplog.bytes_per_op", float64(bytesTotal)/ops, int(ops))
	return wire
}

// walPass: append and fsync the encoded stream with the workload's
// group-commit window, then reopen and replay it.
func (rp *replay) walPass(s spec, wire [][]byte) {
	dir := filepath.Join(rp.dir, "wal")
	log, err := wal.Open(dir, wal.Options{SyncEvery: s.syncEvery})
	if err != nil {
		panic(err)
	}
	appends := make([]time.Duration, len(rp.batches))
	var syncs []time.Duration
	rp.commits("wal", func(i int, _ []detect.DBOp, root int) {
		var due bool
		appends[i] = rp.span(root, "wal.append", nil, func() {
			var err error
			if due, err = log.AppendNoSync(uint64(i+1), wire[i]); err != nil {
				panic(err)
			}
		})
		if due {
			d := rp.span(root, "wal.sync", nil, func() {
				if err := log.Sync(); err != nil {
					panic(err)
				}
			})
			syncs = append(syncs, d)
		}
	})
	if err := log.Close(); err != nil {
		panic(err)
	}
	v, n := meanUS(appends)
	rp.res.set("wal.append_us", v, n)
	v, n = meanUS(syncs)
	rp.res.set("wal.sync_us", v, n)
	d := rp.span(0, "wal.replay", nil, func() {
		log, err := wal.Open(dir, wal.Options{SyncEvery: s.syncEvery})
		if err != nil {
			panic(err)
		}
		defer log.Close()
		if err := log.Replay(0, func(uint64, []byte) error { return nil }); err != nil {
			panic(err)
		}
	})
	rp.res.set("wal.replay_ms", ms(d), 1)
}

// checkpointPass: persist and reload the final state.
func (rp *replay) checkpointPass(db *relation.Database) {
	dir := filepath.Join(rp.dir, "ckpt")
	dbs := relation.DBSnapshotOf(db)
	d := rp.span(0, "relation.ckpt_write", nil, func() {
		if err := relation.WriteCheckpoint(dir, dbs, relation.CheckpointInfo{Seq: 1}); err != nil {
			panic(err)
		}
	})
	rp.res.set("relation.ckpt_write_ms", ms(d), 1)
	var size int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	rp.res.set("relation.ckpt_bytes", float64(size), 1)
	d = rp.span(0, "relation.ckpt_load", nil, func() {
		if _, _, err := relation.LoadCheckpoint(dir, rp.schemas); err != nil {
			panic(err)
		}
	})
	rp.res.set("relation.ckpt_load_ms", ms(d), 1)
}

// replayServer runs every pass a server workload's layers call for over
// the traced phase's commits: issued[warm:warm+traced], after the warm
// first ones. A layer the workload's server does not use is not probed
// and reads 0.
func (e *env) replayServer(s spec, r *serverRun, warm, traced int, tr *tracer, res *workloadResult) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("in-process replay: %v", p)
		}
	}()
	schemas := schemasOf(r.ds.db)
	batches, err := toBatches(r.plan.issued[:warm+traced], schemas)
	if err != nil {
		return err
	}
	kinds := make([]string, traced)
	for i, c := range r.plan.issued[warm : warm+traced] {
		kinds[i] = c.kind
	}
	rp := &replay{tr: tr, res: res, ds: r.ds, rules: r.rules, cs: r.rules.all(), schemas: schemas,
		warm: batches[:warm], batches: batches[warm:], kinds: kinds, dir: filepath.Join(r.dir, "replay")}
	rp.loadAndBuild()
	if s.shards > 1 {
		rp.shardedBuild(s.shards)
	}
	final := rp.relationPass()
	rp.detectPasses(s.shards)
	rp.servePasses(s)
	wire := rp.oplogPass()
	if s.durable {
		rp.walPass(s, wire)
		rp.checkpointPass(final)
	}
	return nil
}

package main

import (
	"fmt"
	"strconv"
	"time"
)

// Workload names. They are final: later issues cite them.
const (
	wTrickle = "trickle_flat"
	wBulk    = "bulk_sharded_wal"
	wReadmix = "readmix_flat_wal"
	wBatch   = "batch_detect"
)

// spec is one workload: the dataset, how the server under test is
// started, and the seeded traffic mix driven at it. Rates are absolute
// (requests per second) so that a faster or slower server sees the same
// offered load.
type spec struct {
	name string
	why  string

	dataset string // "customers" or "orders"
	tuples  int    // customers, or orders (books = n/4, CDs = n/4 as dqgen does)
	errRate float64
	rules   map[string]string // dqserve/dqdetect rule flag -> file under bench/rules

	// How dqserve is started; the in-process replay configures its
	// service the same way.
	shards    int  // > 1: -shards N
	durable   bool // -data-dir D; the run ends with kill -9 + restart on D
	syncEvery int  // -sync-every, with durable
	ckptEvery int  // -checkpoint-every, with durable; 0 = the server's default

	opsPerCommit int
	// updateShare is the share of update commits, each carried by one
	// update stripe. The rest are structural commits on the one ordered
	// structural stream: alternately all inserts and all deletes, or,
	// with mixedStructural, each half inserts and half deletes.
	updateShare     float64
	mixedStructural bool
	loRate, hiRate  float64 // commits per second

	// Open-loop read streams, requests per second (0 = none).
	violationsRate, checkRate, statsRate, metricsRate float64
	sse                                               bool // hold one /stream subscriber

	// replayCommits caps how many of the traced phase's commits the
	// in-process replay runs through each layer: a fixed count, so the
	// exact counters repeat for a seed, sized so that five passes fit
	// the contract's run time.
	replayCommits int
}

// sizes scales a run: the smoke test shrinks datasets and phases, the
// contract run uses the defaults.
type sizes struct {
	tupleDiv int           // datasets are divided by this
	warm     time.Duration // untimed warm-up
	measure  time.Duration // lo + hi + sat
	setups   int           // server starts per run; setup_s is their median
	batchMin int           // batch_detect: rounds at least
}

func defaultSizes(seconds int) sizes {
	return sizes{tupleDiv: 1, warm: 2 * time.Second,
		measure: time.Duration(seconds) * time.Second, setups: 3, batchMin: 3}
}

// Phase shares of the measured time. The builder's contract caps a run
// far below the issue's 20 + 15 + 10 s, and the bounded metrics come
// from lo and sat, so those get most of it.
const (
	loShare = 0.50
	hiShare = 0.15
	// sat gets the rest.
)

// satWindow is the window sat-phase throughput is counted in. One
// second holds ten 100-op commits of bulk_sharded_wal: shorter windows
// make the count too coarse there.
const satWindow = time.Second

const hotSetSize = 2048

// reservedTIDs are never touched by the driver. The lowest TID of a
// group is the representative every violation of a variable CFD is
// reported against, and the big [CC, AC] groups all have theirs among
// the first few hundred tuples: one update there flips tens of
// thousands of violations, and a 15 s run cannot make the rate of such
// events stationary.
const reservedTIDs = 1024

var customerRules = map[string]string{"-cfds": "customer.cfd"}
var orderRules = map[string]string{"-cfds": "orders.cfd", "-cinds": "orders.cind", "-ecfds": "orders.ecfd"}

var specs = []spec{
	{
		name:    wTrickle,
		why:     "one-op commits on the default flat no-WAL server: per-commit snapshot catch-up, DBMonitor.Apply, merge/publish and HTTP dominate; wal, routing and oplog parsing are bypassed",
		dataset: "customers", tuples: 100_000, errRate: 0.02, rules: customerRules,
		shards: 1, opsPerCommit: 1,
		updateShare: 0.6,
		loRate:      30, hiRate: 60,
		violationsRate: 2, sse: true,
		replayCommits: 120,
	},
	{
		name:    wBulk,
		why:     "100-op commits on 4 shards with a group-commit WAL and background checkpoints: oplog.Parse, route/scatter, per-shard sync and WAL append do per-op work; per-commit HTTP/publish cost is amortised",
		dataset: "customers", tuples: 200_000, errRate: 0.02, rules: customerRules,
		shards: 4, durable: true, syncEvery: 8, ckptEvery: 32, opsPerCommit: 100,
		updateShare: 0.2,
		loRate:      4, hiRate: 8,
		replayCommits: 16,
	},
	{
		name:    wReadmix,
		why:     "light 10-op commits with per-commit fsync beside heavy reads on mixed CFD+CIND+eCFD rules: JSON encoding of the violation list, /check and /stats compete with the writer; sharding is bypassed",
		dataset: "orders", tuples: 100_000, errRate: 0.1, rules: orderRules,
		shards: 1, durable: true, syncEvery: 1, opsPerCommit: 10,
		updateShare: 0.6, mixedStructural: true,
		loRate: 10, hiRate: 20,
		violationsRate: 4, checkRate: 5, statsRate: 5, metricsRate: 1,
		replayCommits: 60,
	},
	{
		name: wBatch,
		why:  "no server: dqdetect child processes over customers, orders+book+CD and customers on 4 shards; CSV load, dictionary encoding, CodeIndex build and the engine do all the work, serve/wal/oplog none",
	},
}

// Batch variants, run round-robin. The issue's 1M/400k tuples take 6 s
// per process on the 2-core sandbox; these sizes give at least four
// rounds inside the contract's run length.
type batchVariant struct {
	name    string
	dataset string
	tuples  int
	errRate float64
	rules   map[string]string
	shards  int
}

var batchVariants = []batchVariant{
	{"customers", "customers", 150_000, 0.02, customerRules, 1},
	{"orders", "orders", 150_000, 0.1, orderRules, 1},
	{"customers_sharded", "customers", 150_000, 0.02, customerRules, 4},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) server() bool { return s.name != wBatch }

// serverArgs is the workload's dqserve flags beyond -addr, -data and
// the rule files.
func (s spec) serverArgs(dataDir string) []string {
	var args []string
	if s.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(s.shards))
	}
	if s.durable {
		args = append(args, "-data-dir", dataDir, "-sync-every", strconv.Itoa(s.syncEvery))
		if s.ckptEvery > 0 {
			args = append(args, "-checkpoint-every", strconv.Itoa(s.ckptEvery))
		}
	}
	return args
}

// metricDef is one metric the benchmark prints: the catalogue below is
// the single source for names, units, directions and bounds;
// BENCHMARK.json repeats the contract part of it and the smoke test
// checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // allowed worsening as a share of the baseline median; 0 = unbounded
	// on lists the workloads a metric applies to; nil = all.
	on []string
	// contract marks the end-to-end metrics BENCHMARK.json lists: the
	// ones every workload can report.
	contract bool
}

var servers = []string{wTrickle, wBulk, wReadmix}
var durables = []string{wBulk, wReadmix}

// endToEnd is measured on the untraced run. The first six are the
// contract's end_to_end list: reported by every workload, and steady
// enough over ten seeds to be held to a bound by the driver. The rest
// are judged by `bench compare` alone.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, contract: true},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25, contract: true},
	{name: "latency_mean_ms", unit: "ms", better: "lower", bound: 0.25, contract: true},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25, contract: true},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25, contract: true},
	{name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.20, contract: true},

	{name: "latency_p75_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_hi_p90_ms", unit: "ms", better: "lower", bound: 0.25, on: servers},
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{wTrickle, wReadmix}},
	{name: "read_p90_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{wTrickle, wReadmix}},
	{name: "check_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{wReadmix}},
	{name: "stream_lag_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{wTrickle}},
	{name: "recover_s", unit: "s", better: "lower", bound: 0.25, on: durables},
	{name: "wal_bytes_per_op", unit: "B", better: "lower", bound: 0.02, on: durables},
	{name: "failed_frac", unit: "share", better: "lower"},
}

// perLayer is measured on the traced run. Every workload prints every
// name; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{name: "client.ack_p90_ms", unit: "ms", better: "lower"},
	{name: "client.ack_p99_ms", unit: "ms", better: "lower"},
	{name: "client.ack_update_p50_ms", unit: "ms", better: "lower"},
	{name: "client.ack_insert_p50_ms", unit: "ms", better: "lower"},
	{name: "client.ack_delete_p50_ms", unit: "ms", better: "lower"},
	{name: "client.read_p50_ms", unit: "ms", better: "lower"},
	{name: "client.read_p99_ms", unit: "ms", better: "lower"},
	{name: "client.check_p50_ms", unit: "ms", better: "lower"},
	{name: "client.stream_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "client.sched_lag_p99_ms", unit: "ms", better: "lower"},
	{name: "client.backlog_end", unit: "count", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},

	{name: "serve.stage_queue_wait_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_validate_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_wal_append_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_wal_sync_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_route_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_scatter_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_detect_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_merge_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.stage_publish_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.unattributed_ms", unit: "ms/commit", better: "lower"},
	{name: "serve.reqs_per_commit", unit: "ratio", better: "higher"},
	{name: "serve.ops_per_commit", unit: "ratio", better: "higher"},
	{name: "serve.rejects", unit: "count", better: "lower"},
	{name: "serve.op_errors", unit: "count", better: "lower"},

	{name: "serve.new_ms", unit: "ms", better: "lower"},
	{name: "serve.submit_us_per_commit", unit: "us/commit", better: "lower"},
	{name: "serve.http_us_per_req", unit: "us/req", better: "lower"},
	{name: "serve.violations_json_ms", unit: "ms/req", better: "lower"},
	{name: "serve.violations_json_bytes", unit: "B", better: "lower"},
	{name: "serve.check_ms", unit: "ms/req", better: "lower"},

	{name: "oplog.parse_us_per_op", unit: "us/op", better: "lower"},
	{name: "oplog.format_us_per_op", unit: "us/op", better: "lower"},
	{name: "oplog.bytes_per_op", unit: "B/op", better: "lower"},

	{name: "relation.csv_load_ms", unit: "ms", better: "lower"},
	{name: "relation.snapshot_build_ms", unit: "ms", better: "lower"},
	{name: "relation.codeindex_build_ms", unit: "ms", better: "lower"},
	{name: "relation.catchup_us_per_commit", unit: "us/commit", better: "lower"},
	{name: "relation.partition_ms", unit: "ms", better: "lower"},
	{name: "relation.route_us_per_op", unit: "us/op", better: "lower"},
	{name: "relation.shard_apply_us_per_op", unit: "us/op", better: "lower"},
	{name: "relation.shard_skew", unit: "ratio", better: "lower"},
	{name: "relation.ckpt_write_ms", unit: "ms", better: "lower"},
	{name: "relation.ckpt_bytes", unit: "B", better: "lower"},
	{name: "relation.ckpt_load_ms", unit: "ms", better: "lower"},
	{name: "relation.dict_entries", unit: "count", better: "lower"},

	{name: "detect.full_ms", unit: "ms", better: "lower"},
	{name: "detect.full_sharded_ms", unit: "ms", better: "lower"},
	{name: "detect.apply_us_per_commit", unit: "us/commit", better: "lower"},
	{name: "detect.sync_us_per_commit", unit: "us/commit", better: "lower"},
	{name: "detect.full_syncs", unit: "count", better: "lower"},
	{name: "detect.gained", unit: "count", better: "lower"},
	{name: "detect.cleared", unit: "count", better: "lower"},
	{name: "detect.violations_end", unit: "count", better: "lower"},

	{name: "cfd.detect_ms", unit: "ms", better: "lower"},
	{name: "cind.detect_ms", unit: "ms", better: "lower"},
	{name: "ecfd.detect_ms", unit: "ms", better: "lower"},

	{name: "wal.append_us", unit: "us/commit", better: "lower"},
	{name: "wal.sync_us", unit: "us/sync", better: "lower"},
	{name: "wal.syncs_per_commit", unit: "ratio", better: "lower"},
	{name: "wal.replay_ms", unit: "ms", better: "lower"},

	{name: "obs.scrape_ms", unit: "ms/req", better: "lower"},
	{name: "obs.scrape_bytes", unit: "B", better: "lower"},

	{name: "trace.overhead_frac", unit: "share", better: "lower"},
}

func (m metricDef) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

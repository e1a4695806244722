// Command dqserve runs violation detection as a long-lived monitoring
// service: it loads CSV relations and rule files — CFDs, CINDs and
// eCFDs — like dqdetect, pays one full detection to seed a
// detect.DBMonitor, and then serves HTTP:
//
//	POST /batch       ingest mutations in the dqdetect -follow op-log
//	                  wire format (internal/oplog); each commit marker
//	                  closes one atomic batch
//	GET  /violations  the full current violation list (JSON; one line
//	                  per violation with ?format=text)
//	GET  /stream      Server-Sent Events: per-commit gained/cleared
//	                  deltas ("hello", then "delta" events; a slow
//	                  consumer is dropped with a terminal "resync")
//	GET  /stats       tuple/violation counts, per-class and
//	                  per-constraint breakdowns, ingest counters
//	POST /check       evaluate posted rule texts against the current
//	                  snapshot ({"cfds": "...", "cinds": "...",
//	                  "ecfds": "..."})
//	GET  /healthz     liveness (durable runs add checkpoint lag and
//	                  WAL size)
//	GET  /metrics     Prometheus text exposition: pipeline stage
//	                  latencies, commit/op/violation counters, WAL and
//	                  checkpoint gauges
//	GET  /trends      per-constraint violation time series with
//	                  change-point detections and window rates
//
// Usage:
//
//	dqserve -addr :8080 -data customer=customer.csv -cfds rules.cfd
//	dqserve -data order=o.csv -data book=b.csv -cinds rules.cind
//
// Ingest is single-writer behind a bounded queue (-queue) that
// coalesces concurrent POST /batch commits into larger monitor batches
// (-maxbatch caps the coalesced op count); every read endpoint is
// served off the immutable snapshot published by the last commit, so
// reads never block ingest and ingest never blocks reads. SIGINT or
// SIGTERM stops accepting work, drains the queue and exits.
//
// With -data-dir the service is durable: every commit is appended to a
// write-ahead log and fsynced before its ack (-sync-every widens the
// group-commit window, -sync-interval bounds how long acks are held),
// and a background checkpointer persists snapshots every
// -checkpoint-every commits so restarts replay only the WAL tail. On
// startup dqserve loads the CSVs as the base state, then recovers the
// checkpoint and WAL from -data-dir — after a crash, every
// acknowledged commit is recovered exactly. -submit-timeout bounds how
// long POST /batch waits for queue space before shedding load with
// 503 + Retry-After.
//
// Logs are structured (log/slog) on stderr; -log-format json switches
// to JSON lines for log shippers. -pprof mounts net/http/pprof under
// /debug/pprof/ for CPU/heap profiling of a live instance.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/relation"
	"repro/internal/serve"
)

// logger is the process-wide structured logger, configured from
// -log-format before any load work starts.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatalf logs at error level and exits: slog has no Fatal, and dqserve
// treats every startup failure as terminal.
func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

// dataFlags collects repeated -data rel=path flags.
type dataFlags map[string]string

func (d dataFlags) String() string { return fmt.Sprint(map[string]string(d)) }

func (d dataFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want rel=path, got %q", v)
	}
	d[name] = path
	return nil
}

// shardKeyFlags collects repeated -shard-key rel=attr1,attr2 flags.
type shardKeyFlags map[string][]string

func (s shardKeyFlags) String() string { return fmt.Sprint(map[string][]string(s)) }

func (s shardKeyFlags) Set(v string) error {
	name, attrs, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want rel=attr1,attr2, got %q", v)
	}
	s[name] = strings.Split(attrs, ",")
	return nil
}

// resolveShardKeys maps -shard-key attribute names to schema positions.
func resolveShardKeys(keys shardKeyFlags, schemas map[string]*relation.Schema) map[string][]int {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string][]int, len(keys))
	for rel, attrs := range keys {
		sch, ok := schemas[rel]
		if !ok {
			fatalf("-shard-key %s: no such relation", rel)
		}
		pos := make([]int, 0, len(attrs))
		for _, a := range attrs {
			p, ok := sch.Lookup(strings.TrimSpace(a))
			if !ok {
				fatalf("-shard-key %s: no attribute %q", rel, a)
			}
			pos = append(pos, p)
		}
		out[rel] = pos
	}
	return out
}

func main() {
	data := dataFlags{}
	flag.Var(data, "data", "relation=path.csv (repeatable)")
	cfdsPath := flag.String("cfds", "", "CFD rule file")
	rulesPath := flag.String("rules", "", "alias of -cfds")
	cindsPath := flag.String("cinds", "", "CIND rule file")
	ecfdsPath := flag.String("ecfds", "", "eCFD rule file")
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "detection worker pool size (0 = one per CPU)")
	queueCap := flag.Int("queue", serve.DefaultQueueCap, "bounded ingest queue capacity (pending batches)")
	maxBatch := flag.Int("maxbatch", serve.DefaultMaxBatchOps, "max ops coalesced into one monitor batch")
	subBuf := flag.Int("subbuf", serve.DefaultSubBuf, "per-subscriber delta buffer (commits a consumer may lag)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown budget for draining requests and the ingest queue")
	shards := flag.Int("shards", 1, "hash-partition the database across N shards (per-shard apply, scatter-gather detection)")
	shardKeys := shardKeyFlags{}
	flag.Var(shardKeys, "shard-key", "relation=attr1,attr2 partition key (repeatable; default: derived from the rules)")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL + checkpoints; restart recovers every acknowledged commit")
	syncEvery := flag.Int("sync-every", 1, "WAL group-commit window in commits (1 = fsync every commit before its ack)")
	syncInterval := flag.Duration("sync-interval", 0, "max time an ack is held for group commit when -sync-every > 1 (0 = 5ms default)")
	ckptEvery := flag.Int("checkpoint-every", 0, "commits between checkpoints (0 = default, negative disables checkpointing)")
	submitTimeout := flag.Duration("submit-timeout", 0, "how long POST /batch waits for queue space before 503 (0 = wait indefinitely)")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBatchBytes, "POST /batch body cap in bytes (over the cap = 413)")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	flag.Parse()
	switch *logFormat {
	case "text":
		// the package default
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatalf("-log-format %q: want text or json", *logFormat)
	}
	slog.SetDefault(logger)
	if *cfdsPath == "" {
		*cfdsPath = *rulesPath
	}
	if len(data) == 0 || (*cfdsPath == "" && *cindsPath == "" && *ecfdsPath == "") {
		flag.Usage()
		os.Exit(2)
	}

	db := relation.NewDatabase()
	schemas := make(map[string]*relation.Schema)
	for name, path := range data {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		in, err := relation.ReadCSV(f, name)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		db.Add(in)
		schemas[name] = in.Schema()
		logger.Info("loaded relation", "rel", name, "tuples", in.Len())
	}

	// Assemble the mixed batch Σ: CFDs, then CINDs, then eCFDs, each in
	// file order — the same Σ order dqdetect reports in.
	var rules []detect.Constraint
	if *cfdsPath != "" {
		cfds := parseRules(*cfdsPath, schemas, cfd.Parse)
		logger.Info("loaded rules", "class", "cfd", "count", len(cfds))
		if ok, _ := cfd.Consistent(cfds); !ok {
			fatalf("the CFD set is inconsistent: no nonempty instance can satisfy it (fix the rules first)")
		}
		rules = append(rules, detect.WrapCFDs(cfds)...)
	}
	if *cindsPath != "" {
		cinds := parseRules(*cindsPath, schemas, cind.Parse)
		logger.Info("loaded rules", "class", "cind", "count", len(cinds))
		rules = append(rules, detect.WrapCINDs(cinds)...)
	}
	if *ecfdsPath != "" {
		ecfds := parseRules(*ecfdsPath, schemas, ecfd.Parse)
		logger.Info("loaded rules", "class", "ecfd", "count", len(ecfds))
		rules = append(rules, detect.WrapECFDs(ecfds)...)
	}

	var durable *serve.DurableConfig
	if *dataDir != "" {
		durable = &serve.DurableConfig{
			Dir:             *dataDir,
			SyncEvery:       *syncEvery,
			SyncInterval:    *syncInterval,
			CheckpointEvery: *ckptEvery,
		}
	}
	svc, err := serve.New(serve.Config{
		Engine:        &detect.Engine{Workers: *workers},
		DB:            db,
		Constraints:   rules,
		QueueCap:      *queueCap,
		MaxBatchOps:   *maxBatch,
		SubBuf:        *subBuf,
		SubmitTimeout: *submitTimeout,
		Shards:        *shards,
		ShardKeys:     resolveShardKeys(shardKeys, schemas),
		Durable:       durable,
		Obs:           &serve.ObsConfig{},
		Logger:        logger,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *shards > 1 {
		logger.Info("sharding enabled", "shards", *shards)
	}
	if durable != nil {
		st := svc.State()
		if ds, ok := svc.Durability(); ok {
			logger.Info("durable mode", "dir", *dataDir, "seq", st.Seq,
				"checkpointSeq", ds.LastCheckpointSeq, "ops", st.Ops)
		}
	}
	logger.Info("seeded monitor", "rules", len(rules), "violations", svc.State().NumViolations())

	handler := serve.NewHandler(svc)
	handler.MaxBatchBytes = *maxBody
	// The service handler owns "/"; pprof mounts beside it so profiling
	// never shadows an API route unless asked for.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// /stream responses are unbounded by design, so no WriteTimeout
		// (the stream handler clears its own deadlines); request reads
		// are bounded so a slow-drip client cannot pin a goroutine — a
		// capped /batch body always fits inside ReadTimeout on any
		// non-adversarial link.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutting down", "drainBudget", *drain)
	case err := <-errc:
		fatalf("%v", err)
	}

	// Two-stage graceful shutdown: finish in-flight HTTP requests (each
	// POST /batch waits for its commits), then drain whatever is still
	// queued inside the service.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := svc.Stop(shutdownCtx); err != nil {
		logger.Warn("service drain", "err", err)
	}
	st := svc.State()
	logger.Info("stopped", "seq", st.Seq, "ops", st.Ops, "violations", st.NumViolations())
}

// parseRules opens and parses one rule file with the class parser.
func parseRules[T any](path string, schemas map[string]*relation.Schema,
	parse func(r io.Reader, schemas map[string]*relation.Schema) ([]T, error)) []T {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	rules, err := parse(f, schemas)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return rules
}

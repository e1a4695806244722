// Package serve turns the batch-oriented detection stack into a
// long-lived, goroutine-safe violation-monitoring service: one
// detect.ShardedDBMonitor (one shard unless Config.Shards asks for
// more) owned by a single-writer ingest loop, fed through a bounded
// queue that coalesces submitted mutation batches into commit batches
// (amortizing snapshot catch-up), with every read — the full violation
// list, per-constraint and per-relation counts, satisfaction probes —
// served off an immutable published State without ever blocking the
// writer, and gained/cleared deltas fanned out to subscribers over
// buffered channels under a slow-consumer drop policy.
//
// The concurrency design in one paragraph: the monitor (and the
// relation.Instances under it) is single-writer, so exactly one
// goroutine — the ingest loop — ever applies a commit or touches the
// database. After every commit the loop publishes a fresh *State
// through an atomic pointer: the post-commit per-shard DBSnapshots
// (immutable by construction: COW tuple arrays, append-only
// dictionaries) plus the full violation set in canonical order as a
// sequence of small sorted leaves (violseq.go): a commit copies only
// the leaves its sorted gained/cleared diff touches, and each leaf
// memoises its wire encodings on first read, so both publish and GET
// /violations cost what changed, not |V|. Readers load the pointer and
// work on a consistent frozen view while the writer races ahead;
// subscribers get the same deltas the commit applied, or — if they
// fall behind their channel buffer — a closed channel with Lost() set,
// the signal to resync from Violations().
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// Defaults for Config's zero fields.
const (
	DefaultQueueCap    = 256
	DefaultMaxBatchOps = 4096
	DefaultSubBuf      = 64
)

// ErrStopped is returned by Submit once Stop has been called (or for
// requests stranded in the queue when the loop exits).
var ErrStopped = errors.New("serve: service stopped")

// Config parameterizes New.
type Config struct {
	// Engine runs detection; nil gets the default configuration.
	Engine *detect.Engine
	// DB is the watched database. The service owns its mutation from
	// New on: callers must not write to it directly anymore.
	DB *relation.Database
	// Constraints is the monitored mixed batch Σ.
	Constraints []detect.Constraint
	// QueueCap bounds the ingest queue in pending Submit requests
	// (default DefaultQueueCap). A full queue applies backpressure:
	// Submit blocks until the loop drains or its context expires.
	QueueCap int
	// MaxBatchOps caps how many ops the loop coalesces into one commit
	// batch (default DefaultMaxBatchOps). Larger batches amortize
	// snapshot catch-up and index splicing; smaller ones bound
	// per-commit latency and delta size.
	MaxBatchOps int
	// SubBuf is the per-subscriber delta channel buffer (default
	// DefaultSubBuf). A subscriber that falls this many commits behind
	// is dropped and must resync.
	SubBuf int
	// Shards is the partition count. Every service runs one
	// detect.ShardedDBMonitor: each commit is routed once by the
	// sequencer, its sub-batches applied across shards
	// (ShardedDBMonitor.ApplyRouting), and one merged State published —
	// byte-identical whatever the count. 0 or 1 means one shard: the
	// monitor adopts DB as shard 0 without copying it, and any
	// CFD/CIND/eCFD batch is accepted. Above 1, DB is hash-partitioned
	// at New and the batch must be shardable (detect.CheckShardable).
	Shards int
	// ShardKeys sets the partition key (attribute positions) per
	// relation when Shards > 1; it is ignored at one shard. Nil derives
	// keys from the constraint batch (detect.DeriveShardKeys); New fails
	// when no key keeps every CFD/eCFD shard-local.
	ShardKeys map[string][]int
	// SubmitTimeout bounds how long Submit waits for queue space before
	// shedding the load with ErrBusy (front ends turn it into 503 +
	// Retry-After). 0 waits indefinitely — until the context expires or
	// the service stops.
	SubmitTimeout time.Duration
	// Durable, when non-nil, turns on the durability layer: every
	// commit is appended to a write-ahead log and fsynced before it is
	// acknowledged or published, and a background checkpointer persists
	// snapshots so a restart replays only the WAL tail. When
	// Durable.Dir holds a previous run's state, New recovers from it —
	// Config.DB then only supplies the schemas (its tuples are
	// ignored).
	Durable *DurableConfig
	// Obs, when non-nil, turns on the observability layer: pipeline
	// metrics collected in a Registry (Service.Metrics) and
	// per-constraint violation trend analytics with change-point alerts
	// (Service.Trends; alerts ride each commit's Delta).
	Obs *ObsConfig
	// Logger receives structured events — recovery, checkpoints, health
	// degradation, change-point alerts. Nil discards.
	Logger *slog.Logger
}

// State is one published, immutable view of the service: everything a
// read endpoint needs, consistent as of commit Seq. Readers must treat
// the shard snapshots as read-only; the writer never mutates a
// published State.
type State struct {
	// Seq counts commits: 0 is the seeded initial detection, each
	// applied commit batch increments it.
	Seq uint64
	// Shards holds the per-shard post-commit freezes, one per shard —
	// on a one-shard service Shards[0] is the whole database.
	// Cross-partition readers merge several with
	// relation.GatherSnapshots.
	Shards []*relation.DBSnapshot
	// ShardViolations counts the published violations per shard (by the
	// shard holding each violation's primary tuple at Seq).
	ShardViolations []int
	// viols is the full violation set in canonical mixed order —
	// byte-identical to Engine.DetectBatch of the database at Seq.
	viols violSeq
	// ruleCounts counts viols per monitored rule, indexed like the
	// service's ruleSet.
	ruleCounts []int
	// NextTIDs snapshots each relation's next TID as of Seq — what a
	// checkpoint must preserve so post-recovery inserts allocate the
	// same TIDs the uninterrupted run would have. Durable services
	// only; nil otherwise.
	NextTIDs map[string]relation.TID

	// Cumulative counters since New.
	Ops     uint64 // mutation ops accepted into commits (a commit that hit an op error — see Errs — applied only the prefix before the failing op)
	Gained  uint64 // violations gained
	Cleared uint64 // violations cleared
	Errs    uint64 // commits that ended in an op error

	// FullSyncs counts the monitor's changelog-fallback resyncs.
	FullSyncs int
}

// Violations materialises the violation set in canonical mixed order —
// byte-identical to Engine.DetectBatch of the database at Seq; nil when
// there is none. O(|V|): the read endpoints stream the leaves instead.
func (st *State) Violations() []detect.Violation { return st.viols.all() }

// NumViolations returns the size of the violation set.
func (st *State) NumViolations() int { return st.viols.n }

// Result acknowledges one Submit: the commit that carried the
// request's ops (possibly coalesced with other requests), its diff
// sizes, and the first op error of that commit, if any.
type Result struct {
	Seq     uint64
	Gained  int
	Cleared int
	Err     error
}

// Delta is one commit's violation diff, as fanned out to subscribers.
// The slices are shared with the published State's history: read-only.
type Delta struct {
	Seq     uint64
	Gained  []detect.Violation
	Cleared []detect.Violation
	// Alerts are the change-point alerts the quality analytics fired at
	// this commit; nil on most commits, and always nil with
	// observability off.
	Alerts []obs.Alert
}

// request is one Submit in flight to the ingest loop.
type request struct {
	ops  []detect.DBOp
	done chan Result // buffered (1): the loop never blocks on an ack
	at   time.Time   // enqueue time; zero with observability off
}

// pendingCommit is a committed-but-unsynced batch: applied to the
// monitor and the writer-local tip, but its WAL frame is not yet on
// stable storage, so it is neither published nor acknowledged. The
// group-commit flush releases held commits in order.
type pendingCommit struct {
	st    *State
	delta Delta
	reqs  []request
	res   Result
}

// Service is the running monitor; construct with New, stop with Stop.
type Service struct {
	engine  *detect.Engine
	cs      []detect.Constraint
	sigma   map[any]int
	rules   *ruleSet // report texts and wire heads per rule, fixed at New
	schemas map[string]*relation.Schema
	maxOps  int
	subBuf  int

	// The sequencer (the run loop) routes each commit, the monitor
	// applies the sub-batches across shards, and the sequencer syncs and
	// publishes one merged State. sdb is the live database, owned by the
	// sequencer.
	smonitor *detect.ShardedDBMonitor
	sdb      *relation.ShardedDB

	queue chan request
	state atomic.Pointer[State]

	// Durability (Config.Durable != nil). tip is the writer-local
	// latest committed State — ahead of the published one while commits
	// sit in the group-commit window — and pending holds those
	// committed-but-unsynced batches. Non-durable services keep tip ==
	// published (every commit flushes immediately).
	shardKeys     map[string][]int // resolved partition keys (Shards > 1)
	wal           *wal.Log
	dataDir       string
	fsys          fault.FS // checkpoint/WAL filesystem (fault.OS in production)
	tip           *State
	pending       []pendingCommit
	syncTicker    *time.Ticker
	syncCh        <-chan time.Time
	submitTimeout time.Duration

	// Checkpointer configuration and stats.
	ckptEvery    int
	ckptInterval time.Duration
	ckptDone     chan struct{} // closed when the checkpointer's final pass is done
	ckptSeq      atomic.Uint64
	ckptCount    atomic.Uint64
	ckptErrs     atomic.Uint64
	ckptBytes    atomic.Int64
	walClose     sync.Once

	// Observability (Config.Obs != nil). met/tracker are nil when off;
	// trendCounts is sequencer-only.
	met         *serveMetrics
	tracker     *obs.Tracker
	trendCounts map[string]int
	started     time.Time
	logger      *slog.Logger

	// Health state machine (health.go): healthy → read-only → broken,
	// one-way.
	health atomic.Pointer[healthState]

	mu      sync.Mutex
	subs    map[*Sub]struct{}
	stopped bool // loop exited; guarded by mu

	stopOnce sync.Once
	stopping chan struct{} // closed by Stop: no new Submits, loop drains
	done     chan struct{} // closed when the loop has exited
}

// New seeds a monitor over the database (paying one full detection),
// publishes the initial State and starts the ingest loop. With
// Config.Durable set, New first recovers: load the latest checkpoint,
// open the WAL (truncating a torn tail), and replay every record past
// the checkpoint — reconstructing exactly the acknowledged commits —
// before the monitor seeds and the loop starts.
func New(cfg Config) (*Service, error) {
	if cfg.DB == nil {
		return nil, errors.New("serve: Config.DB is required")
	}
	if cfg.QueueCap < 0 || cfg.MaxBatchOps < 0 || cfg.SubBuf < 0 {
		return nil, errors.New("serve: negative Config sizes")
	}
	if cfg.Shards < 0 {
		return nil, errors.New("serve: negative Config.Shards")
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		queueCap = DefaultQueueCap
	}
	maxOps := cfg.MaxBatchOps
	if maxOps == 0 {
		maxOps = DefaultMaxBatchOps
	}
	subBuf := cfg.SubBuf
	if subBuf == 0 {
		subBuf = DefaultSubBuf
	}
	schemas := make(map[string]*relation.Schema, len(cfg.DB.Names()))
	for _, name := range cfg.DB.Names() {
		schemas[name] = cfg.DB.MustInstance(name).Schema()
	}
	s := &Service{
		cs:            cfg.Constraints,
		sigma:         detect.SigmaOf(cfg.Constraints),
		rules:         newRuleSet(cfg.Constraints),
		schemas:       schemas,
		maxOps:        maxOps,
		subBuf:        subBuf,
		submitTimeout: cfg.SubmitTimeout,
		queue:         make(chan request, queueCap),
		subs:          make(map[*Sub]struct{}),
		stopping:      make(chan struct{}),
		done:          make(chan struct{}),
	}
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = discardLogger()
	}

	// Durable recovery phase one: resolve the database the monitor is
	// built over — the loaded checkpoint when one exists, cfg.DB
	// otherwise — and open the WAL.
	db := cfg.DB
	var ckptInfo relation.CheckpointInfo
	haveCkpt := false
	if cfg.Durable != nil {
		var err error
		db, ckptInfo, haveCkpt, err = s.openDurable(cfg)
		if err != nil {
			return nil, err
		}
	}
	fail := func(err error) (*Service, error) {
		if s.wal != nil {
			s.wal.Close()
		}
		return nil, err
	}

	p := relation.NewPartitioner(cfg.Shards)
	if p.Shards() > 1 {
		keys := cfg.ShardKeys
		if keys == nil {
			derived, err := detect.DeriveShardKeys(cfg.Constraints)
			if err != nil {
				return fail(fmt.Errorf("serve: %v", err))
			}
			keys = derived
		}
		s.shardKeys = keys
		for rel, pos := range keys {
			p.SetKey(rel, pos)
		}
	}
	sdb, err := relation.Partition(db, p)
	if err != nil {
		return fail(fmt.Errorf("serve: %v", err))
	}
	m, err := detect.NewShardedDBMonitor(cfg.Engine, sdb, cfg.Constraints)
	if err != nil {
		return fail(fmt.Errorf("serve: %v", err))
	}
	s.engine = m.Engine()
	s.smonitor = m
	s.sdb = sdb

	// Recovery phase two: replay the WAL tail through the seeded
	// monitor, then capture the post-replay state as the seed.
	seed := &State{Seq: ckptInfo.Seq}
	if s.wal != nil {
		if err := s.replayWAL(seed); err != nil {
			return fail(err)
		}
	}
	vs := s.smonitor.Violations()
	s.capture(seed)
	seed.viols = newViolSeq(vs)
	seed.ruleCounts = make([]int, len(s.rules.infos))
	s.rules.tally(seed.ruleCounts, vs, 1)
	s.tip = seed
	s.state.Store(seed)
	if cfg.Obs != nil {
		s.setupObs(cfg.Obs, queueCap, seed)
	}

	if s.wal != nil && cfg.Durable.SyncEvery > 1 {
		iv := cfg.Durable.SyncInterval
		if iv <= 0 {
			iv = 5 * time.Millisecond
		}
		s.syncTicker = time.NewTicker(iv)
		s.syncCh = s.syncTicker.C
	}
	go s.run()
	if s.wal != nil {
		s.ckptEvery = cfg.Durable.CheckpointEvery
		if s.ckptEvery == 0 {
			s.ckptEvery = DefaultCheckpointEvery
		}
		s.ckptInterval = cfg.Durable.CheckpointInterval
		s.ckptDone = make(chan struct{})
		if haveCkpt {
			s.ckptSeq.Store(ckptInfo.Seq)
		}
		go s.checkpointer(haveCkpt, ckptInfo.Seq)
	}
	return s, nil
}

// ShardPanics reports how many shard-apply panics the monitor has
// recovered into per-shard errors since New (racy, informational).
func (s *Service) ShardPanics() uint64 { return s.smonitor.Panics() }

// run is the single-writer ingest loop: the only goroutine that ever
// applies a commit or mutates the database.
func (s *Service) run() {
	defer func() {
		if r := recover(); r != nil {
			// A panic escaped the ingest loop: nothing will ever advance
			// the published State again. Mark the service broken (reads
			// keep serving the last State), end the subscriber streams,
			// and let the closed done channel fail queued Submits.
			s.degrade(Broken, fmt.Sprintf("ingest loop panic: %v", r))
			s.closeSubs()
		}
		if s.syncTicker != nil {
			s.syncTicker.Stop()
		}
		close(s.done)
	}()
	for {
		select {
		case req := <-s.queue:
			s.coalesce(req)
			if len(s.queue) == 0 {
				// Idle: no batch is on its way to fill the group-commit
				// window, so sync now rather than hold acks for the timer.
				s.flushWAL()
			}
		case <-s.syncCh:
			// SyncInterval tick (durable mode with SyncEvery > 1): bound
			// how long an ack can be held. Spurious ticks are no-ops.
			s.flushWAL()
		case <-s.stopping:
			// Graceful drain: apply everything already queued, release
			// the group-commit window, then shut the subscriber streams.
			for {
				select {
				case req := <-s.queue:
					s.coalesce(req)
				default:
					s.flushWAL()
					s.closeSubs()
					return
				}
			}
		}
	}
}

// coalesce folds queued requests into first's commit batch until the
// queue runs dry or the batch hits MaxBatchOps, then commits — the
// amortization knob: under load, snapshot catch-up, index splicing and
// state publication are paid once per coalesced batch, not once per
// Submit.
func (s *Service) coalesce(first request) {
	reqs := []request{first}
	n := len(first.ops)
	for n < s.maxOps {
		select {
		case req := <-s.queue:
			reqs = append(reqs, req)
			n += len(req.ops)
		default:
			s.commit(reqs, n)
			return
		}
	}
	s.commit(reqs, n)
}

// commit applies one coalesced batch against the writer-local tip — the
// one commit path, at any shard count, with or without a WAL: validate,
// log, apply, enqueue, flush. Each request is validated upfront against
// the tip plus the accepted requests before it: an invalid request is
// acknowledged with its *OpError at the unchanged tip sequence —
// nothing of it logged or applied — while the valid requests around it
// commit normally. In durable mode the surviving batch is WAL-logged
// first (Append fsyncs inline when the group-commit window is due) — a
// batch the log cannot take, its fsync included, is rejected without
// being applied, so memory and log always agree — and the successor
// State is published and acknowledged only once its frame is fsynced:
// immediately when the append synced, otherwise from the group-commit
// flush.
func (s *Service) commit(reqs []request, n int) {
	if err := s.healthErr(); err != nil {
		s.reject(reqs, err)
		return
	}
	if s.met != nil {
		now := time.Now()
		for _, r := range reqs {
			s.met.stages[stageQueueWait].Observe(now.Sub(r.at).Seconds())
		}
		s.met.batchOps.Observe(float64(n))
	}

	vt := s.met.now()
	v := s.newValidator()
	valid := make([]request, 0, len(reqs))
	ops := make([]detect.DBOp, 0, n)
	for _, r := range reqs {
		if verr := v.validate(r.ops); verr != nil {
			r.done <- Result{Seq: s.tip.Seq, Err: verr} // buffered: never blocks
			continue
		}
		valid = append(valid, r)
		ops = append(ops, r.ops...)
	}
	s.met.observeStage(stageValidate, vt)
	if len(valid) == 0 {
		return
	}
	reqs = valid

	synced := true
	if s.wal != nil {
		buf := encBufs.Get().(*bytes.Buffer)
		payload, err := encodeBatchInto(buf, ops, s.schemas)
		if err != nil {
			encBufs.Put(buf)
			s.reject(reqs, err)
			return
		}
		at := s.met.now()
		ok, err := s.wal.Append(s.tip.Seq+1, payload)
		s.met.observeStage(stageWALAppend, at)
		encBufs.Put(buf)
		if err != nil {
			if errors.Is(err, wal.ErrBroken) {
				// The log cannot take any further writes: degrade to
				// read-only. Reads keep serving the published State; every
				// later Submit fails fast with ErrReadOnly.
				s.degrade(ReadOnly, fmt.Sprintf("write-ahead log broken: %v", err))
			}
			s.reject(reqs, fmt.Errorf("%w: %v", ErrWAL, err))
			return
		}
		synced = ok
	}

	gained, cleared, err := s.apply(ops)
	s.enqueueCommit(reqs, ops, gained, cleared, err)
	if synced {
		s.flushPending(nil)
	}
}

// enqueueCommit builds the successor State from the applied batch,
// advances the writer-local tip and holds the commit for publication
// (flushPending releases it once its frame is durable — or
// immediately, when there is no WAL).
func (s *Service) enqueueCommit(reqs []request, ops []detect.DBOp, gained, cleared []detect.Violation, err error) {
	old := s.tip
	mt := s.met.now()
	viols := old.viols.apply(gained, cleared, s.sigma)
	counts := old.ruleCounts
	if len(gained) > 0 || len(cleared) > 0 {
		counts = append([]int(nil), counts...)
		s.rules.tally(counts, gained, 1)
		s.rules.tally(counts, cleared, -1)
	}
	s.met.observeStage(stageMerge, mt)
	st := &State{
		Seq:        old.Seq + 1,
		viols:      viols,
		ruleCounts: counts,
		Ops:        old.Ops + uint64(len(ops)),
		Gained:     old.Gained + uint64(len(gained)),
		Cleared:    old.Cleared + uint64(len(cleared)),
		Errs:       old.Errs,
	}
	s.capture(st)
	if err != nil {
		st.Errs++
	}
	if s.met != nil {
		s.met.commits.Inc()
		s.met.ops.Add(uint64(len(ops)))
		s.met.gained.Add(uint64(len(gained)))
		s.met.cleared.Add(uint64(len(cleared)))
		if err != nil {
			s.met.opErrs.Inc()
		}
	}
	alerts := s.observeTrends(st.Seq, gained, cleared)
	s.tip = st
	s.pending = append(s.pending, pendingCommit{
		st:    st,
		delta: Delta{Seq: st.Seq, Gained: gained, Cleared: cleared, Alerts: alerts},
		reqs:  reqs,
		res:   Result{Seq: st.Seq, Gained: len(gained), Cleared: len(cleared), Err: err},
	})
}

// reject refuses one coalesced batch without applying it: every
// request is acknowledged with the error at the unchanged tip
// sequence.
func (s *Service) reject(reqs []request, err error) {
	if s.met != nil {
		s.met.rejects.Inc()
	}
	res := Result{Seq: s.tip.Seq, Err: err}
	for _, r := range reqs {
		r.done <- res // buffered: never blocks
	}
}

// flushWAL drains the group-commit window: fsync whatever the WAL has
// buffered, then release the held commits. Called after a synced
// append, when the queue runs idle, on the SyncInterval tick and at
// drain.
func (s *Service) flushWAL() {
	if len(s.pending) == 0 {
		return
	}
	var err error
	if s.wal != nil {
		st := s.met.now()
		err = s.wal.Sync()
		s.met.observeStage(stageWALSync, st)
	}
	s.flushPending(err)
}

// flushPending publishes and acknowledges every held commit, in order.
// A sync failure still publishes — the in-memory state is consistent
// and reads keep working — but every held ack reports ErrWAL: the
// commits are not on stable storage, and the broken log makes the
// service fail-stop for subsequent writes.
func (s *Service) flushPending(syncErr error) {
	if len(s.pending) == 0 {
		return
	}
	if syncErr != nil {
		// The held commits are applied in memory but not on stable
		// storage, and the log is now fail-stop: no future commit can be
		// made durable either. Degrade to read-only — reads keep serving
		// the (consistent) published state, writes are refused.
		s.degrade(ReadOnly, fmt.Sprintf("write-ahead log sync failed: %v", syncErr))
	}

	// Publication and fan-out under one lock so Subscribe's registration
	// seq is exact: a subscriber registered at state Seq receives every
	// delta with Seq' > Seq and none twice.
	pt := s.met.now()
	s.mu.Lock()
	s.state.Store(s.pending[len(s.pending)-1].st)
	for _, p := range s.pending {
		for sub := range s.subs {
			select {
			case sub.ch <- p.delta:
			default:
				// Slow consumer: the buffer is full, so rather than block the
				// writer (or buffer unboundedly), drop the stream. The closed
				// channel plus Lost() tells the subscriber to resync from
				// Violations(), which is exactly as current as the deltas it
				// missed.
				sub.lost.Store(true)
				delete(s.subs, sub)
				close(sub.ch)
			}
		}
	}
	s.mu.Unlock()
	s.met.observeStage(stagePublish, pt)

	for _, p := range s.pending {
		res := p.res
		if syncErr != nil {
			res.Err = fmt.Errorf("%w: %v", ErrWAL, syncErr)
		}
		for _, r := range p.reqs {
			r.done <- res // buffered: never blocks
		}
	}
	s.pending = s.pending[:0]
}

// apply applies one validated (and, with a WAL, already logged) batch
// and returns its violation diff — the one apply step commit and WAL
// replay share. It is the Route → ApplyRouting → Sync sequence
// ShardedDBMonitor.Apply bundles, each step timed as its own stage;
// ApplyRouting isolates a failing or panicking shard into an error and
// repairs any TID a half-applied move left on two shards, and Sync also
// maintains the per-shard violation counts. The prefix before a failing
// op is applied and the error returned with the diff, so replaying a
// logged batch reproduces its TIDs, prefix and error.
func (s *Service) apply(ops []detect.DBOp) (gained, cleared []detect.Violation, err error) {
	rt := s.met.now()
	r, err := s.smonitor.Route(ops)
	s.met.observeStage(stageRoute, rt)

	at := s.met.now()
	if aerr := s.smonitor.ApplyRouting(r); err == nil {
		// The route error keeps precedence — it names the op the caller
		// sent wrong.
		err = aerr
	}
	s.met.observeStage(stageScatter, at)

	dt := s.met.now()
	gained, cleared = s.smonitor.Sync()
	s.met.observeStage(stageDetect, dt)
	return gained, cleared, err
}

// capture copies the monitor's post-commit freezes, per-shard violation
// counts and full-sync count into st — the part of a State the seed and
// every commit take alike. With a WAL it also records each relation's
// next TID, which a checkpoint of st must preserve so post-recovery
// inserts allocate the TIDs the uninterrupted run would have.
func (s *Service) capture(st *State) {
	st.Shards = s.smonitor.ShardSnapshots()
	st.ShardViolations = s.smonitor.ShardCounts()
	st.FullSyncs = s.smonitor.FullSyncs()
	if s.wal == nil {
		return
	}
	st.NextTIDs = make(map[string]relation.TID, len(s.schemas))
	for name := range s.schemas {
		st.NextTIDs[name] = s.sdb.NextTID(name)
	}
}

// Submit enqueues one mutation batch and waits for the commit that
// applies it. The queue is bounded; when it is full Submit blocks
// (backpressure) until space frees, the context expires, or the
// service stops. A Result with a non-nil Err means the commit hit a
// failing op: the failing op's suffix was skipped but the service
// resynchronized and remains consistent.
func (s *Service) Submit(ctx context.Context, ops []detect.DBOp) (Result, error) {
	if err := s.healthErr(); err != nil {
		// Degraded: fail fast instead of queueing work the loop will
		// reject anyway (or never drain, when broken).
		return Result{}, err
	}
	if len(ops) == 0 {
		return Result{Seq: s.state.Load().Seq}, nil
	}
	req := request{ops: ops, done: make(chan Result, 1)}
	if s.met != nil {
		req.at = time.Now()
	}
	var timeout <-chan time.Time
	if s.submitTimeout > 0 {
		t := time.NewTimer(s.submitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.queue <- req:
	case <-timeout:
		// The queue stayed full for the whole SubmitTimeout: shed the
		// load instead of stacking blocked submitters without bound.
		return Result{}, ErrBusy
	case <-s.stopping:
		return Result{}, ErrStopped
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	select {
	case res := <-req.done:
		return res, res.Err
	case <-s.done:
		// The loop exited while our request was queued. The drain makes
		// this window tiny (an enqueue racing the final queue sweep), but
		// it exists; one last non-blocking look, then give up.
		select {
		case res := <-req.done:
			return res, res.Err
		default:
			return Result{}, ErrStopped
		}
	case <-ctx.Done():
		// The ops may still be applied; the caller only loses the ack.
		return Result{}, ctx.Err()
	}
}

// Stop makes Submit reject new work, waits (up to the context) for the
// ingest loop to drain the queued requests, and closes every
// subscriber stream. On a durable service it then waits for the
// checkpointer's final pass and closes the WAL. Idempotent.
func (s *Service) Stop(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopping) })
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.wal == nil {
		return nil
	}
	select {
	case <-s.ckptDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.walClose.Do(func() { s.wal.Close() })
	return nil
}

// State returns the latest published view. Treat it as read-only.
func (s *Service) State() *State { return s.state.Load() }

// Violations materialises the published violation list in canonical
// mixed order — byte-identical to Engine.DetectBatch of the database as
// of State().Seq. O(|V|) per call; see State.Violations.
func (s *Service) Violations() []detect.Violation { return s.state.Load().Violations() }

// Check evaluates a caller-supplied constraint batch against the
// published snapshot (not the live database): a consistent
// SatisfiesBatch probe that never blocks or races the writer. It
// returns the probed Seq alongside the verdict.
func (s *Service) Check(cs []detect.Constraint) (uint64, bool, error) {
	return s.CheckContext(context.Background(), cs)
}

// CheckContext is Check under a deadline: on a service with several
// shards the probe first gathers every shard snapshot — O(total rows) —
// so request-scoped callers pass their context and a cancelled request
// stops the merge early instead of finishing work nobody will read.
func (s *Service) CheckContext(ctx context.Context, cs []detect.Constraint) (uint64, bool, error) {
	st := s.state.Load()
	dbs, err := st.whole(ctx)
	if err != nil {
		return st.Seq, false, err
	}
	return st.Seq, s.engine.SatisfiesBatchOn(dbs, cs), nil
}

// whole returns the database at st.Seq as one snapshot — what
// cross-partition readers (the /check probe, a checkpoint) work on, so
// the caller's rules need not be shardable. One shard is returned as
// is; several are merged into one detached database, O(total rows)
// and stopped early when ctx is cancelled.
func (st *State) whole(ctx context.Context) (*relation.DBSnapshot, error) {
	if len(st.Shards) == 1 {
		return st.Shards[0], nil
	}
	db, err := relation.GatherSnapshotsCtx(ctx, st.Shards)
	if err != nil {
		return nil, err
	}
	return relation.NewDBSnapshot(db), nil
}

// Shards returns the shard count the service runs with.
func (s *Service) Shards() int { return s.sdb.Shards() }

// Constraints returns the monitored batch Σ (read-only).
func (s *Service) Constraints() []detect.Constraint { return s.cs }

// Sigma returns the Σ-position map of the monitored batch, the
// tie-break CompareViolations needs (read-only).
func (s *Service) Sigma() map[any]int { return s.sigma }

// Schemas returns the watched relations' schemas keyed by name
// (read-only) — what front ends parse ops and rules against.
func (s *Service) Schemas() map[string]*relation.Schema { return s.schemas }

// Engine returns the service's engine (always the columnar path).
func (s *Service) Engine() *detect.Engine { return s.engine }

// QueueDepth reports how many Submit requests are pending (racy,
// informational).
func (s *Service) QueueDepth() int { return len(s.queue) }

// QueueCap reports the ingest queue capacity.
func (s *Service) QueueCap() int { return cap(s.queue) }

// Counts summarizes the published violation list.
type Counts struct {
	Seq          uint64            `json:"seq"`
	Total        int               `json:"total"`
	ByClass      map[string]int    `json:"byClass,omitempty"`
	ByRelation   map[string]int    `json:"byRelation,omitempty"`
	ByConstraint []ConstraintCount `json:"byConstraint"`
}

// ConstraintCount is one constraint's slice of the violation set, in Σ
// order.
type ConstraintCount struct {
	Class string `json:"class"`
	Rule  string `json:"rule"`
	Count int    `json:"count"`
}

// Counts aggregates the published violation list per class, relation
// and constraint — from the per-rule counts each commit carries in its
// immutable State, so O(|Σ|) and concurrent with (and unaffected by)
// the writer.
func (s *Service) Counts() Counts { return s.countsFor(s.state.Load()) }

// countsFor is Counts over a caller-held State — what a handler that
// already loaded the state uses to keep one response on one consistent
// view.
func (s *Service) countsFor(st *State) Counts {
	out := Counts{
		Seq:        st.Seq,
		Total:      st.NumViolations(),
		ByClass:    make(map[string]int),
		ByRelation: make(map[string]int),
	}
	for i, r := range s.rules.infos {
		n := st.ruleCounts[i]
		if n > 0 {
			out.ByClass[r.class] += n
			out.ByRelation[r.rel] += n
		}
		out.ByConstraint = append(out.ByConstraint, ConstraintCount{Class: r.class, Rule: r.text, Count: n})
	}
	return out
}

// NumSubscribers reports the live subscriber count (racy,
// informational).
func (s *Service) NumSubscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Sub is one delta subscription. Receive from Events until it closes;
// then Lost distinguishes a slow-consumer drop (resync required) from
// an orderly Close or service stop.
type Sub struct {
	svc  *Service
	ch   chan Delta
	seq  uint64 // state Seq at registration; deltas start at seq+1
	lost atomic.Bool
}

// Events is the delta stream: every commit after Seq(), in order,
// until the channel closes.
func (sub *Sub) Events() <-chan Delta { return sub.ch }

// Seq returns the published Seq the subscription started at: the
// subscriber's copy of Violations at that Seq plus every delivered
// delta reconstructs the live set.
func (sub *Sub) Seq() uint64 { return sub.seq }

// Lost reports whether the stream was dropped for falling behind
// (meaningful once Events is closed). A lost subscriber resyncs by
// re-reading Violations and resubscribing.
func (sub *Sub) Lost() bool { return sub.lost.Load() }

// Close unsubscribes. Idempotent; safe concurrently with the writer.
func (sub *Sub) Close() { sub.svc.unsubscribe(sub) }

// Subscribe registers a delta subscriber with the configured buffer.
// The registration is exact: deltas for every commit after the
// returned Sub's Seq will be delivered (or the stream dropped). On a
// stopped service the returned Sub's stream is already closed.
func (s *Service) Subscribe() *Sub { return s.SubscribeBuf(s.subBuf) }

// SubscribeBuf is Subscribe with an explicit per-subscriber buffer —
// the lag budget (in commits) this consumer gets before the drop
// policy disconnects it.
func (s *Service) SubscribeBuf(buf int) *Sub {
	if buf < 1 {
		buf = 1
	}
	sub := &Sub{svc: s, ch: make(chan Delta, buf)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		close(sub.ch)
		sub.seq = s.state.Load().Seq
		return sub
	}
	sub.seq = s.state.Load().Seq
	s.subs[sub] = struct{}{}
	return sub
}

func (s *Service) unsubscribe(sub *Sub) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		close(sub.ch)
	}
}

// closeSubs ends every stream at loop exit (an orderly close: Lost
// stays false).
func (s *Service) closeSubs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	for sub := range s.subs {
		delete(s.subs, sub)
		close(sub.ch)
	}
}

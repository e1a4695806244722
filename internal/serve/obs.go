// Observability wiring: the serve-side half of internal/obs. One
// serveMetrics value holds every pipeline metric; scrape-time gauges
// (GaugeFunc) read the same racy informational sources /stats already
// exposes, so the hot path pays only for what it observes — a handful
// of time.Now stamps and atomic adds per commit, nothing per op. The
// quality-analytics tracker is fed from the sequencer (enqueueCommit),
// which is the single place every commit's gained/cleared diff passes
// through; alerts ride the commit's Delta to subscribers.
package serve

import (
	"log/slog"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
)

// ObsConfig turns on the observability layer: pipeline metrics in a
// Registry (served at /metrics) and per-constraint violation trend
// analytics with change-point alerts (served at /trends, fanned out as
// SSE alert events).
type ObsConfig struct {
	// Registry receives every metric; nil gets a fresh one (read it back
	// with Service.Metrics).
	Registry *obs.Registry
	// Trends tunes the per-constraint analytics; the zero value gets
	// obs.TrackerConfig defaults.
	Trends obs.TrackerConfig
}

// Pipeline stage labels of the dq_stage_seconds histogram, in commit
// order. Every service, a one-shard one included, times its apply as
// route, scatter and detect (the sync and diff); "wal_sync" covers
// explicit sync calls (group-commit flush), while a synced-inline
// append accounts its fsync under "wal_append".
const (
	stageQueueWait = "queue_wait"
	stageValidate  = "validate"
	stageWALAppend = "wal_append"
	stageWALSync   = "wal_sync"
	stageRoute     = "route"
	stageScatter   = "scatter"
	stageDetect    = "detect"
	stageMerge     = "merge"
	stagePublish   = "publish"
)

// serveMetrics is every hot-path metric the service maintains. A nil
// *serveMetrics (observability off) costs one pointer check per site.
type serveMetrics struct {
	reg *obs.Registry

	commits *obs.Counter
	ops     *obs.Counter
	gained  *obs.Counter
	cleared *obs.Counter
	opErrs  *obs.Counter
	rejects *obs.Counter
	alerts  *obs.Counter

	batchOps *obs.Histogram
	stages   map[string]*obs.Histogram
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg:     reg,
		commits: reg.Counter("dq_commits_total", "Commit batches applied.", nil),
		ops:     reg.Counter("dq_ops_total", "Mutation ops accepted into commits.", nil),
		gained:  reg.Counter("dq_violations_gained_total", "Violations gained across commits.", nil),
		cleared: reg.Counter("dq_violations_cleared_total", "Violations cleared across commits.", nil),
		opErrs:  reg.Counter("dq_commit_op_errors_total", "Commits that ended in an op error.", nil),
		rejects: reg.Counter("dq_batch_rejects_total", "Coalesced batches rejected before apply (validation, WAL, health).", nil),
		alerts:  reg.Counter("dq_alerts_total", "Change-point alerts fired.", nil),
		batchOps: reg.Histogram("dq_batch_ops", "Ops per coalesced commit batch.",
			nil, obs.DefSizeBuckets),
		stages: make(map[string]*obs.Histogram),
	}
	for _, stage := range []string{
		stageQueueWait, stageValidate, stageWALAppend, stageWALSync,
		stageRoute, stageScatter, stageDetect, stageMerge, stagePublish,
	} {
		m.stages[stage] = reg.Histogram("dq_stage_seconds",
			"Per-commit pipeline stage latency in seconds.",
			obs.Labels{"stage": stage}, nil)
	}
	return m
}

// observeStage records one stage timing; nil-receiver safe so call
// sites stay unconditional.
func (m *serveMetrics) observeStage(stage string, start time.Time) {
	if m == nil {
		return
	}
	m.stages[stage].ObserveSince(start)
}

// now stamps a stage start; the zero time when metrics are off, which
// the nil-receiver observeStage then never reads — together they keep
// the disabled hot path free of clock reads.
func (m *serveMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// setupObs builds the metrics, the trend tracker and the scrape-time
// gauges. Called from New after the seed State exists (the tracker's
// running counts start from the seeded violation set).
func (s *Service) setupObs(cfg *ObsConfig, queueCap int, seed *State) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.met = newServeMetrics(reg)
	s.started = time.Now()

	// One trend per rule, keyed by the class+rule label /stats reports
	// per constraint, in Σ order. Duplicate deps collapse, matching
	// countsFor.
	s.tracker = obs.NewTracker(cfg.Trends)
	s.trendCounts = make(map[string]int, len(s.rules.infos))
	for i, r := range s.rules.infos {
		s.tracker.Track(r.key)
		s.trendCounts[r.key] += seed.ruleCounts[i]
	}

	reg.GaugeFunc("dq_uptime_seconds", "Seconds since the service started.", nil,
		func() float64 { return time.Since(s.started).Seconds() })
	reg.GaugeFunc("dq_seq", "Latest published commit sequence.", nil,
		func() float64 { return float64(s.state.Load().Seq) })
	reg.GaugeFunc("dq_violations", "Published outstanding violations.", nil,
		func() float64 { return float64(s.state.Load().NumViolations()) })
	reg.GaugeFunc("dq_ingest_queue_depth", "Submit requests waiting in the ingest queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("dq_ingest_queue_cap", "Ingest queue capacity.", nil,
		func() float64 { return float64(queueCap) })
	reg.GaugeFunc("dq_subscribers", "Live delta subscribers.", nil,
		func() float64 { return float64(s.NumSubscribers()) })
	reg.GaugeFunc("dq_health_state", "Write-availability state: 0 healthy, 1 read-only, 2 broken.", nil,
		func() float64 { h, _ := s.Health(); return float64(h) })
	reg.GaugeFunc("dq_shard_panics", "Shard-apply panics recovered into per-shard commit errors since start.", nil,
		func() float64 { return float64(s.ShardPanics()) })
	if s.wal != nil {
		reg.GaugeFunc("dq_wal_bytes", "Valid bytes across live WAL segments.", nil,
			func() float64 { return float64(s.wal.Stats().Bytes) })
		reg.GaugeFunc("dq_wal_segments", "Live WAL segment files.", nil,
			func() float64 { return float64(s.wal.Stats().Segments) })
		reg.GaugeFunc("dq_wal_appended_bytes", "WAL frame bytes appended since open (survives truncation).", nil,
			func() float64 { return float64(s.wal.Stats().AppendedBytes) })
		reg.GaugeFunc("dq_wal_syncs", "WAL fsyncs since open.", nil,
			func() float64 { return float64(s.wal.Stats().Syncs) })
		reg.GaugeFunc("dq_checkpoint_seq", "Sequence of the last installed checkpoint.", nil,
			func() float64 { return float64(s.ckptSeq.Load()) })
		reg.GaugeFunc("dq_checkpoint_lag_seqs", "Commits past the last checkpoint (WAL replay cost on restart).", nil,
			func() float64 { return float64(s.state.Load().Seq - s.ckptSeq.Load()) })
		reg.GaugeFunc("dq_checkpoints", "Checkpoints installed since start.", nil,
			func() float64 { return float64(s.ckptCount.Load()) })
		reg.GaugeFunc("dq_checkpoint_errors", "Failed checkpoint attempts since start.", nil,
			func() float64 { return float64(s.ckptErrs.Load()) })
		reg.GaugeFunc("dq_checkpoint_bytes", "Data bytes written by checkpoints since start.", nil,
			func() float64 { return float64(s.ckptBytes.Load()) })
	}
}

// observeTrends folds one commit's diff into the per-constraint running
// counts and feeds the tracker. Sequencer-only (trendCounts is
// unsynchronized); returns the alerts fired at this commit.
func (s *Service) observeTrends(seq uint64, gained, cleared []detect.Violation) []obs.Alert {
	if s.tracker == nil {
		return nil
	}
	stats := make(map[string]obs.Stat, len(s.rules.infos))
	for _, v := range gained {
		key, ok := s.rules.keyOf(v)
		if !ok {
			continue
		}
		st := stats[key]
		st.Gained++
		stats[key] = st
	}
	for _, v := range cleared {
		key, ok := s.rules.keyOf(v)
		if !ok {
			continue
		}
		st := stats[key]
		st.Cleared++
		stats[key] = st
	}
	for key, st := range stats {
		s.trendCounts[key] += st.Gained - st.Cleared
		st.Count = s.trendCounts[key]
		stats[key] = st
	}
	alerts := s.tracker.Observe(seq, stats)
	if len(alerts) > 0 {
		s.met.alerts.Add(uint64(len(alerts)))
		for _, a := range alerts {
			s.logger.Warn("change-point alert",
				"seq", a.Seq, "constraint", a.Constraint,
				"changeSeq", a.ChangePoint.Seq, "confidence", a.ChangePoint.Confidence,
				"before", a.ChangePoint.Before, "after", a.ChangePoint.After)
		}
	}
	return alerts
}

// Metrics returns the service's registry; nil when observability is
// off.
func (s *Service) Metrics() *obs.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// Trends snapshots the per-constraint violation time series, detected
// change points and sliding-window rates; nil when observability is
// off. maxPoints caps the points per constraint (0 = all held).
func (s *Service) Trends(maxPoints int) []obs.Trend {
	if s.tracker == nil {
		return nil
	}
	return s.tracker.Trends(maxPoints)
}

// Uptime reports time since New; zero when observability is off.
func (s *Service) Uptime() time.Duration {
	if s.started.IsZero() {
		return 0
	}
	return time.Since(s.started)
}

// discardLogger is the nil-Config.Logger default: every slog call site
// stays unconditional.
func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

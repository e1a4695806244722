// Durability layer: a write-ahead op log plus checkpointed snapshots.
//
// Every commit batch is encoded in the oplog wire format and appended
// to the WAL BEFORE it is applied, and fsynced (possibly as part of a
// group-commit window) before it is published or acknowledged, so an
// ack means the commit survives kill -9. A background checkpointer periodically
// persists the published snapshot with relation.WriteCheckpoint and
// truncates the covered WAL prefix; restart is checkpoint-load plus a
// replay of the WAL tail through the ordinary monitor machinery, which
// reconstructs the exact acknowledged state — byte-identical
// violations included.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/oplog"
	"repro/internal/relation"
	"repro/internal/retry"
	"repro/internal/wal"
)

// DefaultCheckpointEvery is how many commits may accumulate in the WAL
// before the background checkpointer persists a snapshot.
const DefaultCheckpointEvery = 4096

// checkpointPoll is how often the checkpointer re-examines the
// published state.
const checkpointPoll = 100 * time.Millisecond

// ErrBusy is returned by Submit when the ingest queue stays full past
// Config.SubmitTimeout: shed the load now and retry shortly.
var ErrBusy = errors.New("serve: ingest queue full")

// ErrWAL wraps write-ahead-log failures. A commit acknowledged with an
// ErrWAL is NOT durable (and was not applied when the append itself
// failed); once the log reports itself broken the service is fail-stop
// for writes — reads keep serving the published state — until
// restarted over the repaired directory.
var ErrWAL = errors.New("serve: write-ahead log failure")

// DurableConfig configures the durability layer under one data
// directory: WAL segments in Dir/wal, checkpoint directories and the
// CURRENT pointer at the top level.
type DurableConfig struct {
	// Dir is the data directory (required).
	Dir string
	// SyncEvery is the WAL group-commit window in commits: <= 1 fsyncs
	// every commit before its ack (full durability); larger windows
	// amortize the fsync across bursts, holding acks until the window
	// fills, the queue idles, or SyncInterval elapses.
	SyncEvery int
	// SyncInterval bounds how long a commit ack may be held for group
	// commit when SyncEvery > 1 (default 5ms).
	SyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation threshold (default
	// wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointEvery is how many commits may accumulate before the
	// checkpointer persists a snapshot and truncates the covered WAL
	// prefix (default DefaultCheckpointEvery; < 0 disables
	// checkpointing entirely, including the final pass at Stop).
	CheckpointEvery int
	// CheckpointInterval, when > 0, also triggers a checkpoint whenever
	// this much time has passed since the last one and commits arrived.
	CheckpointInterval time.Duration
	// Wrap is the fault-injection seam, threaded to wal.Options.Wrap:
	// tests wrap the segment writer to return errors, short writes, or
	// silently drop bytes ("crash at byte N"). Production leaves it nil.
	Wrap func(io.Writer) io.Writer
	// FS is the filesystem the WAL and checkpoints are written through
	// (default fault.OS). The fault-matrix and chaos tests pass a
	// fault.Injector to script ENOSPC, EIO-on-fsync, short writes and
	// latency at exact call counts. Production leaves it nil.
	FS fault.FS
	// Preallocate reserves each WAL segment at SegmentBytes when it is
	// created, so steady-state appends overwrite reserved blocks instead
	// of growing the file (and its metadata) on every frame. Best-effort;
	// see wal.Options.Preallocate.
	Preallocate bool
}

// openDurable loads the checkpoint (if any) and opens the WAL. It
// returns the database the monitor must be built over: the recovered
// checkpoint when one exists, cfg.DB otherwise.
func (s *Service) openDurable(cfg Config) (*relation.Database, relation.CheckpointInfo, bool, error) {
	d := cfg.Durable
	if d.Dir == "" {
		return nil, relation.CheckpointInfo{}, false, errors.New("serve: DurableConfig.Dir is required")
	}
	s.dataDir = d.Dir
	s.fsys = d.FS
	if s.fsys == nil {
		s.fsys = fault.OS
	}
	db := cfg.DB
	var info relation.CheckpointInfo
	have := false
	recovered, ckinfo, err := relation.LoadCheckpoint(d.Dir, s.schemas)
	switch {
	case errors.Is(err, relation.ErrNoCheckpoint):
		// First boot: start from Config.DB as given.
		s.logger.Info("recovery: no checkpoint, starting fresh", "dir", d.Dir)
	case err != nil:
		return nil, info, false, fmt.Errorf("serve: recover: %v", err)
	default:
		db = recovered
		info = ckinfo
		have = true
		s.logger.Info("recovery: checkpoint loaded", "dir", d.Dir, "seq", ckinfo.Seq)
	}
	w, err := wal.Open(walDir(d.Dir), wal.Options{
		SyncEvery:    d.SyncEvery,
		SyncInterval: d.SyncInterval,
		SegmentBytes: d.SegmentBytes,
		Preallocate:  d.Preallocate,
		Wrap:         d.Wrap,
		FS:           d.FS,
	})
	if err != nil {
		return nil, info, false, fmt.Errorf("serve: recover: %v", err)
	}
	s.wal = w
	return db, info, have, nil
}

// replayWAL replays every WAL record past the checkpoint through the
// already-seeded monitor, advancing seed in place. One record is one
// coalesced commit batch in the oplog wire format; op errors replay
// exactly as they originally ran (the prefix before the failing op
// applied, the suffix skipped), so the replayed state matches the
// acknowledged one byte for byte.
func (s *Service) replayWAL(seed *State) error {
	start := time.Now()
	from := seed.Seq
	records := 0
	err := s.wal.Replay(seed.Seq, func(seq uint64, payload []byte) error {
		records++
		ops, err := decodeBatch(payload, s.schemas)
		if err != nil {
			return fmt.Errorf("serve: recover: wal record %d: %v", seq, err)
		}
		gained, cleared, aerr := s.apply(ops)
		seed.Seq = seq
		seed.Ops += uint64(len(ops))
		seed.Gained += uint64(len(gained))
		seed.Cleared += uint64(len(cleared))
		if aerr != nil {
			seed.Errs++
		}
		return nil
	})
	if err == nil && records > 0 {
		s.logger.Info("recovery: wal tail replayed",
			"fromSeq", from, "toSeq", seed.Seq, "records", records,
			"elapsed", time.Since(start))
	}
	return err
}

// decodeBatch parses one WAL record back into the commit batch it
// logged.
func decodeBatch(payload []byte, schemas map[string]*relation.Schema) ([]detect.DBOp, error) {
	return oplog.NewReader(bytes.NewReader(payload), schemas).Next()
}

// encBufs pools the wire-encode scratch buffers: one commit encode per
// Get/Put, so steady-state ingest stops allocating a fresh buffer (and
// its doublings) per batch. The returned payload aliases the buffer —
// Put only after the WAL append consumed it.
var encBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBatchInto renders one commit batch as a WAL record payload into
// buf (reset first). The returned slice aliases buf's storage.
func encodeBatchInto(buf *bytes.Buffer, ops []detect.DBOp, schemas map[string]*relation.Schema) ([]byte, error) {
	buf.Reset()
	if err := oplog.Format(buf, [][]detect.DBOp{ops}, schemas); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// walDir is where the log segments live under a data directory.
func walDir(dataDir string) string { return dataDir + "/wal" }

// finalCheckpointAttempts bounds the retry loop of the final
// checkpoint pass at Stop — a few tries for a condition the operator
// may be fixing right now, not an unbounded stall of shutdown.
const finalCheckpointAttempts = 3

// checkpointer is the background persistence loop: whenever enough
// commits (CheckpointEvery) or time (CheckpointInterval) accumulated
// past the last checkpoint — or none exists yet, or the service is
// stopping with unpersisted commits — it writes the published State as
// a checkpoint and truncates the covered WAL prefix. Checkpoints read
// only immutable published snapshots, so the loop never blocks or
// races the writer. A failed attempt is counted and retried with
// capped exponential backoff (retry.Policy defaults): transient
// conditions like a full disk heal without hammering the device, and a
// recovered condition resumes checkpointing automatically.
func (s *Service) checkpointer(have bool, last uint64) {
	defer close(s.ckptDone)
	ticker := time.NewTicker(checkpointPoll)
	defer ticker.Stop()
	lastAt := time.Now()
	var pol retry.Policy // zero value: DefaultBase/DefaultMax/DefaultFactor
	fails := 0
	var notBefore time.Time
	for {
		final := false
		select {
		case <-ticker.C:
		case <-s.done:
			final = true
		}
		st := s.state.Load()
		due := !have || (st.Seq > last &&
			(final ||
				st.Seq-last >= uint64(s.ckptEvery) ||
				(s.ckptInterval > 0 && time.Since(lastAt) >= s.ckptInterval)))
		if s.ckptEvery < 0 {
			due = false
		}
		if due && !final && time.Now().Before(notBefore) {
			due = false // backing off after a failed attempt
		}
		if due {
			var err error
			if final {
				// Last chance before the WAL closes: retry transient
				// failures (an ENOSPC the operator may be clearing) a few
				// times instead of losing the pass to one bad attempt.
				err = retry.Do(context.Background(), pol, finalCheckpointAttempts,
					retry.Transient, func() error { return s.writeCheckpoint(st) })
			} else {
				err = s.writeCheckpoint(st)
			}
			if err != nil {
				s.ckptErrs.Add(1)
				fails++
				notBefore = time.Now().Add(pol.Delay(fails - 1))
				s.logger.Error("checkpoint failed",
					"seq", st.Seq, "attempt", fails, "err", err,
					"retryAt", notBefore)
			} else {
				have, last, lastAt = true, st.Seq, time.Now()
				fails = 0
				notBefore = time.Time{}
			}
		}
		if final {
			return
		}
	}
}

// writeCheckpoint persists one published State and drops the WAL
// prefix it covers.
func (s *Service) writeCheckpoint(st *State) error {
	dbs, err := st.whole(context.Background())
	if err != nil {
		return err
	}
	info := relation.CheckpointInfo{Seq: st.Seq, NextTIDs: st.NextTIDs, ShardKeys: s.shardKeys}
	start := time.Now()
	n, err := relation.WriteCheckpointFS(s.fsys, s.dataDir, dbs, info)
	if err != nil {
		return err
	}
	if err := s.wal.TruncateTo(st.Seq); err != nil {
		return err
	}
	s.ckptSeq.Store(st.Seq)
	s.ckptCount.Add(1)
	s.ckptBytes.Add(n)
	s.logger.Info("checkpoint written",
		"seq", st.Seq, "bytes", n, "elapsed", time.Since(start))
	return nil
}

// DurabilityStats summarizes the durability layer for monitoring.
type DurabilityStats struct {
	WAL               wal.Stats `json:"wal"`
	LastCheckpointSeq uint64    `json:"lastCheckpointSeq"`
	Checkpoints       uint64    `json:"checkpoints"`
	CheckpointErrs    uint64    `json:"checkpointErrs"`
	CheckpointBytes   int64     `json:"checkpointBytes"`
}

// Durability reports the WAL and checkpoint state; ok is false on a
// non-durable service.
func (s *Service) Durability() (DurabilityStats, bool) {
	if s.wal == nil {
		return DurabilityStats{}, false
	}
	return DurabilityStats{
		WAL:               s.wal.Stats(),
		LastCheckpointSeq: s.ckptSeq.Load(),
		Checkpoints:       s.ckptCount.Load(),
		CheckpointErrs:    s.ckptErrs.Load(),
		CheckpointBytes:   s.ckptBytes.Load(),
	}, true
}

package relation

import (
	"sort"
	"sync/atomic"
)

// The instance changelog — the substrate of incremental snapshot and
// index maintenance. Every mutation of tuple data appends one
// (version, op, tid, pos) entry to a bounded in-memory log; derived
// structures built at version v can later catch up to version v' by
// replaying ChangesSince(v) instead of rebuilding from scratch
// (Snapshot.Apply, CodeIndex maintenance, the detect monitors). The log
// is bounded: a cache that has fallen behind a truncated log gets
// (nil, false) from ChangesSince and must rebuild in full.

// ChangeOp is the kind of a changelog entry.
type ChangeOp uint8

// The changelog operations.
const (
	// ChangeInsert: a tuple with a fresh TID was inserted.
	ChangeInsert ChangeOp = iota
	// ChangeDelete: the tuple was removed.
	ChangeDelete
	// ChangeUpdate: one cell (TID, Pos) was replaced.
	ChangeUpdate
)

// String names the op.
func (op ChangeOp) String() string {
	switch op {
	case ChangeInsert:
		return "insert"
	case ChangeDelete:
		return "delete"
	default:
		return "update"
	}
}

// ChangeEntry is one changelog record: the instance version after the
// mutation, the operation, the affected TID, and for updates the
// modified attribute position (-1 otherwise). Updated values are not
// recorded — replay reads the current value from the instance, which is
// correct because catch-up always replays the log to its head.
type ChangeEntry struct {
	Version uint64
	Op      ChangeOp
	TID     TID
	Pos     int
}

// defaultChangelogCap bounds the in-memory changelog. At 24 bytes per
// entry the default costs ~100 KiB per instance; when the log overflows
// the oldest half is dropped, so amortized append stays O(1).
const defaultChangelogCap = 4096

// changelogCapDefault overrides defaultChangelogCap process-wide when
// nonzero (see SetChangelogCap, the deprecated global setter). It only
// affects instances that never had a per-instance cap set.
var changelogCapDefault atomic.Int64

// ChangelogCapDefault returns the cap used by instances without a
// per-instance override.
func ChangelogCapDefault() int {
	if n := changelogCapDefault.Load(); n != 0 {
		return int(n)
	}
	return defaultChangelogCap
}

// SetChangelogCap sets the process-wide default changelog cap (n <= 0
// disables logging by default). It exists so legacy callers that sized
// "the" changelog globally keep working; it cannot size shards
// independently, which is exactly the footgun per-instance caps fix.
//
// Deprecated: use (*Instance).SetChangelogCap — or
// (*ShardedDB).SetChangelogCap for a whole shard set — so each
// instance/shard sizes its log for its own write rate.
func SetChangelogCap(n int) {
	if n <= 0 {
		n = -1
	}
	changelogCapDefault.Store(int64(n))
}

// SetChangelogCap bounds this instance's changelog to at most n entries
// (n <= 0 disables logging entirely: every ChangesSince call reports
// "too far behind" and derived caches always rebuild in full). The
// default is ChangelogCapDefault. Shrinking the cap truncates
// immediately.
func (in *Instance) SetChangelogCap(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n <= 0 {
		in.logCap = -1 // disabled (0 is reserved for "use the default")
		in.log = nil
		in.logStart = in.version
		in.evictStrandedLocked()
		return
	}
	in.logCap = n
	if len(in.log) > n {
		in.truncateLogLocked(len(in.log) - n)
	}
}

// logAppend records one mutation. Callers must have already bumped
// in.version to the entry's version. Must be called with in.mu held.
func (in *Instance) logAppend(op ChangeOp, id TID, pos int) {
	cap := in.logCap
	if cap == 0 {
		cap = ChangelogCapDefault()
	}
	if cap < 0 {
		in.logStart = in.version
		// With logging disabled every mutation strands the cached
		// snapshot (it can never catch up); release it like a truncation
		// would, or a long-lived process pins every frozen snapshot.
		in.evictStrandedLocked()
		return
	}
	in.log = append(in.log, ChangeEntry{Version: in.version, Op: op, TID: id, Pos: pos})
	if len(in.log) > cap {
		// Drop the oldest half so appends stay amortized O(1).
		in.truncateLogLocked(len(in.log) - cap/2)
	}
}

// truncateLogLocked drops the oldest n entries, advances logStart and
// evicts any derived cache the truncation stranded. Must be called with
// in.mu held.
func (in *Instance) truncateLogLocked(n int) {
	if n <= 0 {
		return
	}
	if n >= len(in.log) {
		in.log = in.log[:0]
		in.logStart = in.version
	} else {
		in.logStart = in.log[n-1].Version
		copy(in.log, in.log[n:])
		in.log = in.log[:len(in.log)-n]
	}
	in.evictStrandedLocked()
}

// evictStrandedLocked drops the cached snapshot when the changelog can
// no longer reach back to its version: such a snapshot can never catch
// up via delta, so retaining it only pins its frozen columns and group
// indexes in memory (the long-lived-process leak). Must be called with
// in.mu held.
func (in *Instance) evictStrandedLocked() {
	if s := in.snapCache; s != nil && s.version < in.logStart {
		in.snapCache = nil
	}
}

// ChangesSince returns a copy of the changelog entries recorded after
// version v, in order, and whether the log reaches back that far. The
// second result is false when the bounded log has been truncated past v
// (or logging is disabled): the caller's derived structure is too far
// behind and must rebuild from scratch. v equal to the current version
// yields (nil, true).
func (in *Instance) ChangesSince(v uint64) ([]ChangeEntry, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if v == in.version {
		return nil, true
	}
	if v < in.logStart || v > in.version {
		return nil, false
	}
	// Versions are contiguous (+1 per entry), so the first entry after v
	// sits at offset v - logStart.
	i := int(v - in.logStart)
	out := make([]ChangeEntry, len(in.log)-i)
	copy(out, in.log[i:])
	return out, true
}

// ChangelogLen returns the number of retained changelog entries.
func (in *Instance) ChangelogLen() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// Delta is the net effect of a contiguous changelog slice: which TIDs
// were inserted (and survive), which pre-existing TIDs were deleted, and
// which pre-existing TIDs had which attribute positions updated. A tuple
// inserted and deleted within the slice cancels out; updates to a tuple
// that is later deleted fold into the delete; updates to a tuple
// inserted within the slice fold into the insert (the insert replays the
// whole current tuple anyway).
type Delta struct {
	// Inserted lists surviving new TIDs in ascending order (TIDs are
	// allocated monotonically, so they all sort after every pre-existing
	// TID).
	Inserted []TID
	// Deleted lists removed pre-existing TIDs in ascending order.
	Deleted []TID
	// Updated maps each surviving pre-existing TID to the ascending set
	// of attribute positions whose value changed.
	Updated map[TID][]int
}

// Empty reports whether the delta nets out to no change.
func (d *Delta) Empty() bool {
	return len(d.Inserted) == 0 && len(d.Deleted) == 0 && len(d.Updated) == 0
}

// Touches reports whether the delta updates any of the given attribute
// positions of tid. Inserted and deleted TIDs are not "updates".
func (d *Delta) Touches(tid TID, pos []int) bool {
	ps, ok := d.Updated[tid]
	if !ok {
		return false
	}
	for _, p := range ps {
		for _, q := range pos {
			if p == q {
				return true
			}
		}
	}
	return false
}

// NetDelta folds a contiguous changelog slice into its net effect.
func NetDelta(entries []ChangeEntry) Delta {
	inserted := make(map[TID]bool)
	deleted := make(map[TID]bool)
	updated := make(map[TID]map[int]bool)
	for _, e := range entries {
		switch e.Op {
		case ChangeInsert:
			inserted[e.TID] = true
		case ChangeDelete:
			if inserted[e.TID] {
				delete(inserted, e.TID) // born and died within the slice
			} else {
				deleted[e.TID] = true
			}
			delete(updated, e.TID)
		case ChangeUpdate:
			if inserted[e.TID] {
				continue // folded into the insert
			}
			ps, ok := updated[e.TID]
			if !ok {
				ps = make(map[int]bool)
				updated[e.TID] = ps
			}
			ps[e.Pos] = true
		}
	}
	d := Delta{}
	for id := range inserted {
		d.Inserted = append(d.Inserted, id)
	}
	for id := range deleted {
		d.Deleted = append(d.Deleted, id)
	}
	sortTIDs(d.Inserted)
	sortTIDs(d.Deleted)
	if len(updated) > 0 {
		d.Updated = make(map[TID][]int, len(updated))
		for id, ps := range updated {
			poss := make([]int, 0, len(ps))
			for p := range ps {
				poss = append(poss, p)
			}
			sort.Ints(poss)
			d.Updated[id] = poss
		}
	}
	return d
}

func sortTIDs(ids []TID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

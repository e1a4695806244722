package detect

import (
	"fmt"

	"repro/internal/relation"
)

// DBMonitor is the stateful face of incremental detection over one
// database: it owns an engine, the live DBSnapshot of the database, and
// the current violation set of a mixed constraint batch (CFDs, CINDs,
// eCFDs), and keeps all of them consistent under a stream of update
// batches that may touch several relations at once. Where
// Engine.DetectBatch answers "what is wrong now" in full, a
// DBMonitor answers "what just broke and what just got fixed":
//
//	gained, cleared, err := m.Apply(batch)
//
// routes each relation's ops through its instance changelog, catches
// the per-relation snapshots up via relation.SnapshotOf (structural
// sharing, O(|Δ|) dictionary work, spliced group indexes), asks every
// constraint for the primary-relation TIDs its violations could have
// changed on (Constraint.Touched — for a CIND that covers updates on
// both the source and the target side of the inclusion), evaluates
// those TIDs against both the pre- and the post-batch snapshots, and
// diffs the results against the stored set — the one-shard case of the
// core ShardedDBMonitor shares (see monitorCore).
//
// The maintained invariant, asserted by randomized tests: after every
// Apply, Violations() is exactly Engine.DetectBatch of the mutated
// database.
//
// A DBMonitor is single-writer, like the instances it watches: Apply
// (and Sync) must not run concurrently with each other or with other
// mutations of the database. Mutations made between calls outside the
// monitor are fine — the next Sync picks them up from the changelogs.
// The relation set is fixed at construction: adding or replacing
// instances afterwards forces a full resync.
type DBMonitor struct {
	monitorCore
	db  *relation.Database
	dbs *relation.DBSnapshot
}

// DBOp is one mutation of a DBMonitor batch: an Op aimed at a named
// relation.
type DBOp struct {
	Rel string
	Op  Op
}

// InsertInto returns an insert op for the named relation.
func InsertInto(rel string, t relation.Tuple) DBOp { return DBOp{Rel: rel, Op: Insert(t)} }

// DeleteFrom returns a delete op for the named relation.
func DeleteFrom(rel string, id relation.TID) DBOp { return DBOp{Rel: rel, Op: Delete(id)} }

// UpdateIn returns a single-cell update op for the named relation.
func UpdateIn(rel string, id relation.TID, pos int, v relation.Value) DBOp {
	return DBOp{Rel: rel, Op: Update(id, pos, v)}
}

// NewDBMonitor builds a monitor over the database and mixed constraint
// batch, paying one full detection to seed the violation set (and,
// through it, the DBSnapshot and every shared group index the steady
// state will reuse). A nil engine gets the default configuration.
func NewDBMonitor(e *Engine, db *relation.Database, cs []Constraint) *DBMonitor {
	m := &DBMonitor{monitorCore: newMonitorCore(e, cs), db: db, dbs: relation.DBSnapshotOf(db)}
	m.seed([][]Violation{m.engine.DetectBatchOn(m.dbs, cs)})
	return m
}

// Apply applies the batch to the database and returns the violations it
// gained (newly broken) and cleared (newly fixed), each in the
// canonical mixed order. Ops are applied in sequence; on the first
// failing op the remaining ops are skipped, the monitor resynchronizes
// with whatever prefix was applied, and the error is returned alongside
// the diff.
//
// Apply is single-writer: it must not run concurrently with another
// Apply or Sync, with Violations/Len/Snapshot on the same monitor, or
// with any other mutation of the watched database — the monitor
// inherits the instances' own single-writer rule and additionally
// mutates its stored violation set. Concurrent READERS are safe only
// against values the writer has already handed off: the *DBSnapshot a
// previous Apply/Sync returned via Snapshot() stays immutable and
// readable (COW tuple arrays, append-only dictionaries) while the next
// Apply derives its successor — the hand-off internal/serve's
// single-writer ingest loop makes to its concurrent read endpoints with
// the per-shard snapshots of a ShardedDBMonitor.
func (m *DBMonitor) Apply(batch []DBOp) (gained, cleared []Violation, err error) {
	for _, op := range batch {
		in, ok := m.db.Instance(op.Rel)
		if !ok {
			err = fmt.Errorf("dbmonitor: no relation %q", op.Rel)
			break
		}
		switch op.Op.Kind {
		case OpInsert:
			if _, e := in.Insert(op.Op.Tuple); e != nil {
				err = fmt.Errorf("dbmonitor: %v", e)
			}
		case OpDelete:
			in.Delete(op.Op.TID)
		case OpUpdate:
			if e := in.Update(op.Op.TID, op.Op.Pos, op.Op.Val); e != nil {
				err = fmt.Errorf("dbmonitor: %v", e)
			}
		}
		if err != nil {
			break
		}
	}
	gained, cleared = m.Sync()
	return gained, cleared, err
}

// Sync brings the monitor up to date with mutations made directly on
// the database (outside Apply) and returns the violation diff, like
// Apply without the mutation step.
//
// Sync shares Apply's single-writer contract: one goroutine at a time,
// never concurrent with Apply or with database mutations; concurrent
// readers must hold a previously returned Snapshot rather than calling
// into the monitor (see Apply).
func (m *DBMonitor) Sync() (gained, cleared []Violation) {
	old := m.dbs
	deltas, resync := m.scan(m.db, old)
	if resync {
		m.dbs = relation.DBSnapshotOf(m.db)
		return m.resync([][]Violation{m.engine.DetectBatchOn(m.dbs, m.cs)})
	}
	if deltas == nil {
		return nil, nil
	}
	m.dbs = relation.DBSnapshotOf(m.db) // per-relation delta catch-up
	tc := &TouchCtx{db: m.db, old: old, new: m.dbs, deltas: deltas}
	touched := make([][]relation.TID, len(m.cs))
	for i, c := range m.cs {
		touched[i] = c.Touched(tc)
	}
	return m.diff(
		[][]Violation{m.engine.DetectBatchTouchedOn(old, m.cs, touched)},
		[][]Violation{m.engine.DetectBatchTouchedOn(m.dbs, m.cs, touched)})
}

// Snapshot returns the maintained database snapshot (current as of the
// last Apply/Sync).
func (m *DBMonitor) Snapshot() *relation.DBSnapshot { return m.dbs }

// Database returns the watched database.
func (m *DBMonitor) Database() *relation.Database { return m.db }

// TouchCtx is the view Constraint.Touched reasons over: the pre- and
// post-batch snapshots of every relation, the net delta each relation's
// changelog recorded between them, and a memo of group co-member lists
// shared by every constraint grouping on the same (relation, LHS
// positions).
type TouchCtx struct {
	db     *relation.Database
	old    *relation.DBSnapshot
	new    *relation.DBSnapshot
	deltas map[string]*relation.Delta
	co     map[string][]relation.TID

	// coverInserts widens CoMembers to inserted TIDs. A single partition
	// (DBMonitor, or a one-shard ShardedDBMonitor) never needs it —
	// fresh TIDs sort after every group member, so an insert cannot
	// change a group's representative — but with several shards a
	// delta's inserts include cross-shard moves carrying old TIDs, which
	// can steal representativeship of the group they join; the joined
	// group then needs an old-side co-member too.
	coverInserts bool
}

// Delta returns the net delta of the named relation, or nil when the
// batch did not touch it.
func (tc *TouchCtx) Delta(rel string) *relation.Delta { return tc.deltas[rel] }

// Old returns the pre-batch snapshot of the named relation (nil when
// absent).
func (tc *TouchCtx) Old(rel string) *relation.Snapshot {
	s, _ := tc.old.Snapshot(rel)
	return s
}

// New returns the post-batch snapshot of the named relation (nil when
// absent).
func (tc *TouchCtx) New(rel string) *relation.Snapshot {
	s, _ := tc.new.Snapshot(rel)
	return s
}

// CoMembers returns, for each TID of rel leaving or joining a group of
// the given position set during the batch, one old co-member of the
// affected group — the TIDs that keep shrunken groups re-detected on
// the new side (their representative may have left) and joined groups
// re-derived on the old side (the mover may have stolen
// representativeship). Inserted TIDs never need a co-member: fresh TIDs
// sort after every member, so the destination group keeps its
// representative. The list is memoized per (relation, position set) —
// every constraint class grouping on the same LHS shares it.
func (tc *TouchCtx) CoMembers(rel string, pos []int) []relation.TID {
	key := relPosKey(rel, pos)
	if co, ok := tc.co[key]; ok {
		return co
	}
	var co []relation.TID
	d := tc.deltas[rel]
	old := tc.Old(rel)
	in, _ := tc.db.Instance(rel)
	if d != nil && old != nil && in != nil {
		deleted := make(map[relation.TID]bool, len(d.Deleted))
		for _, id := range d.Deleted {
			deleted[id] = true
		}
		cx := old.CodeIndexOn(pos)
		coMember := func(tid relation.TID) {
			row, ok := old.Row(tid)
			if !ok {
				return
			}
			for _, r := range cx.GroupOf(row) {
				id := old.TID(int(r))
				if id == tid || deleted[id] || d.Touches(id, pos) {
					continue // gone or moved itself: cannot vouch for the group
				}
				co = append(co, id)
				return
			}
		}
		for _, id := range d.Deleted {
			coMember(id)
		}
		for id := range d.Updated {
			if !d.Touches(id, pos) {
				continue // same group on both sides; id itself covers it
			}
			coMember(id)
			if t, ok := in.Tuple(id); ok {
				if ids := cx.Lookup(t); len(ids) > 0 {
					co = append(co, ids[0])
				}
			}
		}
		if tc.coverInserts {
			// An inserted TID below the group's members (a cross-shard
			// move) may become the new representative; re-derive the
			// joined group on the old side via its old representative,
			// exactly like the update-join path above.
			for _, id := range d.Inserted {
				if t, ok := in.Tuple(id); ok {
					if ids := cx.Lookup(t); len(ids) > 0 {
						co = append(co, ids[0])
					}
				}
			}
		}
	}
	if tc.co == nil {
		tc.co = make(map[string][]relation.TID)
	}
	tc.co[key] = co
	return co
}

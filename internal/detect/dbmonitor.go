package detect

import (
	"repro/internal/cind"
	"repro/internal/relation"
)

// DBOp is one mutation of a monitor batch: an Op aimed at a named
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

// NewDBMonitor builds the incremental monitor over one database: the
// one-shard ShardedDBMonitor, with db adopted as its shard 0
// (relation.Adopt — no tuple is copied), paying one full detection to
// seed the violation set. One shard holds every group and every CIND
// target, so any constraint batch is accepted and construction cannot
// fail. A nil engine gets the default configuration.
//
// Mutations made directly on db's instances between calls are picked
// up by the next Sync from the changelogs, as on any shard.
func NewDBMonitor(e *Engine, db *relation.Database, cs []Constraint) *ShardedDBMonitor {
	return newShardedDBMonitor(e, relation.Adopt(db), cs)
}

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

	// yChanges holds, per CIND, the Y projections of every target tuple
	// the batch moved in or out of the CIND's Y ∪ Yp projection on ANY
	// shard — the broadcast every shard's source side is probed with
	// (see cindConstraint.Touched).
	yChanges map[*cind.CIND][][]relation.Value

	// coverInserts widens CoMembers to inserted TIDs. One shard never
	// needs it — fresh TIDs sort after every group member, so an insert
	// cannot change a group's representative — but with several shards
	// a delta's inserts include cross-shard moves carrying old TIDs,
	// which can steal representativeship of the group they join; the
	// joined group then needs an old-side co-member too.
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

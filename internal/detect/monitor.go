package detect

import (
	"sort"

	"repro/internal/relation"
)

// OpKind is the kind of a monitor operation.
type OpKind uint8

// The operation kinds.
const (
	OpInsert OpKind = iota
	OpDelete
	OpUpdate
)

// Op is one mutation of a monitor batch.
type Op struct {
	Kind  OpKind
	TID   relation.TID   // Delete, Update
	Pos   int            // Update: attribute position
	Val   relation.Value // Update: new value
	Tuple relation.Tuple // Insert: the new tuple
}

// Insert returns an insert op.
func Insert(t relation.Tuple) Op { return Op{Kind: OpInsert, Tuple: t} }

// Delete returns a delete op (a no-op if the TID does not exist).
func Delete(id relation.TID) Op { return Op{Kind: OpDelete, TID: id} }

// Update returns a single-cell update op.
func Update(id relation.TID, pos int, v relation.Value) Op {
	return Op{Kind: OpUpdate, TID: id, Pos: pos, Val: v}
}

// monitorCore is the incremental-maintenance state of a
// ShardedDBMonitor: the engine, the constraint batch, the stored
// violation set and its diff protocol. Evaluations reach the core split
// by shard ([][]Violation, indexed by shard), and the core tags each
// stored violation with the shard whose evaluation produced it.
//
// The tag is exact without any lookup of where a tuple lives: a shard-local violation
// is only ever derived on the shard holding its primary tuple (CFD and
// eCFD groups lie wholly inside one shard; a CIND violation is its
// source tuple's), and a tuple that moves shards is touched on both
// shards in the same commit, so the new side re-derives — and retags —
// every violation the move re-homes.
type monitorCore struct {
	engine    *Engine
	cs        []Constraint
	reads     []string // sorted union of the constraints' Reads()
	sigma     map[any]int
	current   map[Violation]int // stored violation -> shard tag
	counts    []int             // stored violations per shard tag
	fullSyncs int               // times the changelog fallback forced a full re-detection
}

// newMonitorCore is the constructor prologue: a nil engine gets the
// default configuration.
func newMonitorCore(e *Engine, cs []Constraint) monitorCore {
	if e == nil {
		e = New(0)
	}
	c := monitorCore{engine: e, cs: cs, sigma: SigmaOf(cs)}
	seen := make(map[string]bool)
	for _, con := range cs {
		for _, rel := range con.Reads() {
			if !seen[rel] {
				seen[rel] = true
				c.reads = append(c.reads, rel)
			}
		}
	}
	sort.Strings(c.reads)
	return c
}

// seed replaces the stored set with a full evaluation split by shard.
func (c *monitorCore) seed(fresh [][]Violation) {
	n := 0
	for _, vs := range fresh {
		n += len(vs)
	}
	c.current = make(map[Violation]int, n)
	c.counts = make([]int, len(fresh))
	for s, vs := range fresh {
		c.counts[s] = len(vs)
		for _, v := range vs {
			c.current[v] = s
		}
	}
}

// scan collects, from db's changelogs, the net delta of every relation
// the batch reads since the snapshot old. Relations no constraint reads
// cannot change the violation set, so their changelogs are ignored (and
// cannot force a full resync). resync reports that a relation was added
// or replaced after old was taken, or that its changelog was truncated
// past old; deltas is nil when nothing read changed.
func (c *monitorCore) scan(db *relation.Database, old *relation.DBSnapshot) (deltas map[string]*relation.Delta, resync bool) {
	for _, name := range c.reads {
		in, ok := db.Instance(name)
		if !ok {
			continue // never existed: nothing to diff
		}
		oldSnap, ok := old.Snapshot(name)
		if !ok || oldSnap.Source() != in {
			return nil, true // relation added or replaced since old
		}
		entries, ok := in.ChangesSince(oldSnap.Version())
		if !ok {
			return nil, true // changelog truncated past the snapshot
		}
		if len(entries) == 0 {
			continue
		}
		d := relation.NetDelta(entries)
		if deltas == nil {
			deltas = make(map[string]*relation.Delta)
		}
		deltas[name] = &d
	}
	return deltas, false
}

// diff folds one incremental step into the stored set and returns the
// canonical gained/cleared diff. oldTouched and newTouched are the
// touched evaluations on the pre- and post-batch snapshots, split by
// shard. The stored set equals the full evaluation of the pre-batch
// snapshots, and the old side is its restriction to the touched
// witnesses, so replacing that slice with the new side re-establishes
// the invariant for the post-batch snapshots (violations outside every
// touched list carry over — that is Constraint.Touched's contract).
//
// Every old-side violation is stored under the index of its list (see
// the tag invariant on monitorCore), so clearing one needs no tag
// lookup; a new-side violation already stored is retagged when its
// primary tuple changed shards.
func (c *monitorCore) diff(oldTouched, newTouched [][]Violation) (gained, cleared []Violation) {
	n := 0
	for _, vs := range newTouched {
		n += len(vs)
	}
	newSet := make(map[Violation]struct{}, n)
	for s, vs := range newTouched {
		for _, v := range vs {
			newSet[v] = struct{}{}
			// Diff against the pre-batch stored set, not the old side: a
			// violation the new side re-reports that the old side did not
			// (redundantly) cover is identical to a stored one — not a gain.
			tag, had := c.current[v]
			if had && tag == s {
				continue
			}
			if had {
				c.counts[tag]--
			} else {
				gained = append(gained, v)
			}
			c.current[v] = s
			c.counts[s]++
		}
	}
	for s, vs := range oldTouched {
		for _, v := range vs {
			if _, still := newSet[v]; !still {
				cleared = append(cleared, v)
				delete(c.current, v)
				c.counts[s]--
			}
		}
	}
	SortViolations(gained, c.sigma)
	SortViolations(cleared, c.sigma)
	return gained, cleared
}

// resync is the fallback when some bounded changelog no longer reaches
// back to the monitor's snapshots (or a relation was replaced): it
// replaces the stored set with a fresh full evaluation and diffs the
// two, so the exact gained/cleared contract holds on this path too.
func (c *monitorCore) resync(fresh [][]Violation) (gained, cleared []Violation) {
	c.fullSyncs++
	prev := c.current
	c.seed(fresh)
	for v := range c.current {
		if _, had := prev[v]; !had {
			gained = append(gained, v)
		}
	}
	for v := range prev {
		if _, still := c.current[v]; !still {
			cleared = append(cleared, v)
		}
	}
	SortViolations(gained, c.sigma)
	SortViolations(cleared, c.sigma)
	return gained, cleared
}

// Violations returns the current violation set in the canonical mixed
// order — byte-identical to Engine.DetectBatch of the watched database
// (for a sharded monitor, of the equivalent unsharded one) in its
// present state.
func (c *monitorCore) Violations() []Violation {
	if len(c.current) == 0 {
		return nil // matches DetectBatch's nil on a clean database
	}
	out := make([]Violation, 0, len(c.current))
	for v := range c.current {
		out = append(out, v)
	}
	SortViolations(out, c.sigma)
	return out
}

// Len returns the size of the current violation set.
func (c *monitorCore) Len() int { return len(c.current) }

// Engine returns the monitor's engine (always on the columnar path).
func (c *monitorCore) Engine() *Engine { return c.engine }

// FullSyncs reports how many times the monitor had to fall back to a
// full re-detection.
func (c *monitorCore) FullSyncs() int { return c.fullSyncs }

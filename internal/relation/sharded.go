package relation

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardedDB partitions a Database horizontally: every relation exists in
// every shard, each shard holding the tuples the Partitioner hashes to
// it, as an ordinary Instance with its own version counter, changelog,
// snapshot cache and group indexes. TIDs are allocated globally (the
// ShardedDB owns the per-relation counter) and stored sparsely in the
// shard instances, so a tuple keeps its identity no matter which shard
// it lives on — the invariant that makes sharded detection output
// byte-identical to the single-partition engine.
//
// Like Instance and Database it is single-writer: all mutation flows
// through a Routing (route phase, sequential) followed by ApplyShard
// calls (apply phase, parallel across shards, each shard applied by at
// most one goroutine). Readers work off per-shard DBSnapshots, which
// remain immutable under concurrent writes.
type ShardedDB struct {
	part    *Partitioner
	shards  []*Database
	schemas map[string]*Schema
	nextID  map[string]TID
	// dir maps every live tuple to its shard. It is maintained by the
	// route phase (not apply), so routing later ops of the same batch
	// sees moves already performed by earlier ones.
	dir map[string]map[TID]int
}

// NewShardedDB returns an empty sharded database cut by the partitioner.
func NewShardedDB(p *Partitioner) *ShardedDB {
	shards := make([]*Database, p.Shards())
	for i := range shards {
		shards[i] = NewDatabase()
	}
	return &ShardedDB{
		part:    p,
		shards:  shards,
		schemas: make(map[string]*Schema),
		nextID:  make(map[string]TID),
		dir:     make(map[string]map[TID]int),
	}
}

// Partition builds a ShardedDB from an existing database: every
// instance is cut across the partitioner's shards with AddInstance.
func Partition(db *Database, p *Partitioner) (*ShardedDB, error) {
	s := NewShardedDB(p)
	for _, name := range db.Names() {
		if err := s.AddInstance(db.MustInstance(name)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Partitioner returns the partitioner the database was cut by.
func (s *ShardedDB) Partitioner() *Partitioner { return s.part }

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// Shard returns shard i's database. Every relation of the ShardedDB is
// present (possibly empty) in every shard.
func (s *ShardedDB) Shard(i int) *Database { return s.shards[i] }

// Schema returns the schema of the named relation.
func (s *ShardedDB) Schema(name string) (*Schema, bool) {
	sch, ok := s.schemas[name]
	return sch, ok
}

// Names returns the relation names in sorted order.
func (s *ShardedDB) Names() []string { return s.shards[0].Names() }

// Size returns the total number of tuples across all relations and
// shards.
func (s *ShardedDB) Size() int {
	n := 0
	for _, db := range s.shards {
		n += db.Size()
	}
	return n
}

// ShardOfTID returns the shard currently holding the tuple.
func (s *ShardedDB) ShardOfTID(rel string, id TID) (int, bool) {
	shard, ok := s.dir[rel][id]
	return shard, ok
}

// AddInstance partitions an existing instance across the shards,
// preserving TIDs and cell weights, and registers the relation in every
// shard (a shard with no tuples still gets an empty instance, so
// per-shard snapshots cover the full relation set). Tuples of the
// source instance are copied; it is not retained.
func (s *ShardedDB) AddInstance(in *Instance) error {
	name := in.Schema().Name()
	s.schemas[name] = in.Schema()
	insts := make([]*Instance, len(s.shards))
	for i, db := range s.shards {
		si := NewInstance(in.Schema())
		db.Add(si)
		insts[i] = si
	}
	dir := make(map[TID]int, in.Len())
	s.dir[name] = dir
	for _, id := range in.IDs() {
		t, _ := in.Tuple(id)
		shard := s.part.ShardOf(name, t)
		// insertShared: the source instance owns the tuple and replaces
		// on update (copy-on-write), so replicas alias its storage — a
		// partition must not double the tuple heap.
		if err := insts[shard].insertShared(id, t); err != nil {
			return fmt.Errorf("relation: partitioning %s: %w", name, err)
		}
		if ws, ok := in.weights[id]; ok {
			insts[shard].weights[id] = append([]float64(nil), ws...)
		}
		dir[id] = shard
	}
	if s.nextID[name] < in.nextID {
		s.nextID[name] = in.nextID
	}
	return nil
}

// NextTID returns the TID the next routed insert into the relation
// would allocate. Single-writer like all mutation state: read it from
// the sequencer (the goroutine that creates Routings).
func (s *ShardedDB) NextTID(rel string) TID { return s.nextID[rel] }

// RebuildDir reconstructs the tuple directory by scanning every shard —
// the recovery step after a partially-applied sub-batch left the routed
// directory ahead of (or behind) what the shards actually hold. A TID
// found in more than one shard (a cross-shard move whose insert applied
// but whose delete did not, because that shard's apply failed) is
// repaired on the spot: the lowest shard's copy is kept and the others
// deleted — through Instance.Delete, so the monitor's next sync sees
// the repair — restoring a valid (if partial) partition.
func (s *ShardedDB) RebuildDir() {
	for rel := range s.schemas {
		dir := make(map[TID]int)
		for shard, db := range s.shards {
			if in, ok := db.Instance(rel); ok {
				for _, id := range in.IDs() {
					if _, dup := dir[id]; dup {
						in.Delete(id)
						continue
					}
					dir[id] = shard
				}
			}
		}
		s.dir[rel] = dir
	}
}

// SetChangelogCap sets the changelog cap on every instance of every
// shard. Per-shard tuning (a hot shard sizing its log for its own write
// rate) goes through Shard(i) directly.
func (s *ShardedDB) SetChangelogCap(n int) {
	for _, db := range s.shards {
		for _, name := range db.Names() {
			db.MustInstance(name).SetChangelogCap(n)
		}
	}
}

// Snapshots freezes every shard (via DBSnapshotOf, so unchanged shards
// reuse their cached snapshots) and returns one DBSnapshot per shard.
// Shards catch up concurrently, bounded by GOMAXPROCS: each shard is a
// disjoint Database, so the per-shard snapshot builds (column interning,
// changelog catch-up, index splicing) share nothing. Writers must be
// quiescent, as for any snapshot build — the usual single-writer
// barrier the sequencer already provides.
func (s *ShardedDB) Snapshots() []*DBSnapshot {
	out := make([]*DBSnapshot, len(s.shards))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(s.shards) {
		workers = len(s.shards)
	}
	if workers <= 1 {
		for i, db := range s.shards {
			out[i] = DBSnapshotOf(db)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.shards) {
					return
				}
				out[i] = DBSnapshotOf(s.shards[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ShardedOp is one physical operation routed to a single shard. A
// logical update that changes a partition-key attribute routes as two
// ShardedOps: a delete on the old shard and an insert (carrying the
// updated tuple and the cell weights) on the new one.
type ShardedOp struct {
	Shard   int
	Rel     string
	Kind    ChangeOp
	TID     TID
	Pos     int   // ChangeUpdate: attribute position
	Val     Value // ChangeUpdate: new value
	Tuple   Tuple // ChangeInsert: full tuple
	weights []float64
}

// Routing plans one commit batch against the sharded database. Ops are
// routed sequentially — validation, TID allocation, directory updates
// and cross-shard move decisions all happen here, against a same-batch
// overlay so a later op sees tuples inserted or updated by an earlier
// one — producing per-shard sub-batches whose application (in order
// within a shard, concurrently across shards) is equivalent to applying
// the original batch sequentially against one partition.
//
// Routing mutates the directory and TID counters eagerly, so a routed
// batch MUST be applied (ApplyShard on every non-empty sub-batch)
// before the next Routing is created; route-then-apply are the two
// phases of one single-writer commit.
type Routing struct {
	s        *ShardedDB
	perShard [][]ShardedOp
	over     map[string]map[TID]Tuple
	pend     map[string]map[TID][]cellPatch
}

// cellPatch is a deferred single-cell update: a non-key Update routes
// the raw (pos, value) pair and records a patch instead of cloning the
// whole tuple; tupleOf composes the patches lazily iff a later op in
// the same batch actually needs the tuple's current value.
type cellPatch struct {
	pos int
	val Value
}

// NewRouting starts planning a commit batch.
func (s *ShardedDB) NewRouting() *Routing {
	return &Routing{
		s:        s,
		perShard: make([][]ShardedOp, len(s.shards)),
		over:     make(map[string]map[TID]Tuple),
		pend:     make(map[string]map[TID][]cellPatch),
	}
}

// PerShard returns the routed sub-batches, indexed by shard. Shards the
// batch never touched have nil slices.
func (r *Routing) PerShard() [][]ShardedOp { return r.perShard }

// Ops returns the total number of physical ops routed so far.
func (r *Routing) Ops() int {
	n := 0
	for _, ops := range r.perShard {
		n += len(ops)
	}
	return n
}

func (r *Routing) push(shard int, op ShardedOp) {
	op.Shard = shard
	r.perShard[shard] = append(r.perShard[shard], op)
}

// anyInstance returns a representative instance of the relation (all
// shards share the schema; shard 0's copy serves for validation).
func (r *Routing) anyInstance(rel string) *Instance {
	return r.s.shards[0].MustInstance(rel)
}

// tupleOf resolves the current value of a live tuple: the same-batch
// overlay first, then the owning shard's instance, with any deferred
// single-cell patches composed on top (and folded into the overlay, so
// repeated reads pay the clone once).
func (r *Routing) tupleOf(rel string, id TID, shard int) (Tuple, error) {
	t, ok := r.over[rel][id]
	if !ok {
		t, ok = r.s.shards[shard].MustInstance(rel).Tuple(id)
		if !ok {
			return nil, fmt.Errorf("relation: sharded %s: directory has tuple %d but shard %d does not (unapplied routing?)", rel, id, shard)
		}
	}
	if ps := r.pend[rel][id]; len(ps) > 0 {
		t = t.Clone()
		for _, p := range ps {
			t[p.pos] = p.val
		}
		r.setOver(rel, id, t)
		delete(r.pend[rel], id)
	}
	return t, nil
}

func (r *Routing) setOver(rel string, id TID, t Tuple) {
	m, ok := r.over[rel]
	if !ok {
		m = make(map[TID]Tuple)
		r.over[rel] = m
	}
	m[id] = t
}

// Insert routes a tuple insert: validates it exactly like
// Instance.Insert, allocates the next global TID, and assigns the
// tuple's shard.
func (r *Routing) Insert(rel string, t Tuple) (TID, error) {
	if err := r.anyInstance(rel).CheckTuple(t); err != nil {
		return 0, err
	}
	id := r.s.nextID[rel]
	r.s.nextID[rel] = id + 1
	shard := r.s.part.ShardOf(rel, t)
	r.s.dir[rel][id] = shard
	r.setOver(rel, id, t)
	r.push(shard, ShardedOp{Rel: rel, Kind: ChangeInsert, TID: id, Pos: -1, Tuple: t})
	return id, nil
}

// Delete routes a tuple delete; like Instance.Delete it reports whether
// the tuple existed and is a no-op otherwise.
func (r *Routing) Delete(rel string, id TID) bool {
	shard, ok := r.s.dir[rel][id]
	if !ok {
		return false
	}
	delete(r.s.dir[rel], id)
	if m, ok := r.over[rel]; ok {
		delete(m, id)
	}
	if m, ok := r.pend[rel]; ok {
		delete(m, id)
	}
	r.push(shard, ShardedOp{Rel: rel, Kind: ChangeDelete, TID: id, Pos: -1})
	return true
}

// Update routes a single-cell update. When the new value moves the
// tuple's partition key to a different shard, the update becomes a
// delete on the old shard plus an insert (same TID, updated tuple,
// weights carried along) on the new one.
func (r *Routing) Update(rel string, id TID, pos int, v Value) error {
	shard, ok := r.s.dir[rel][id]
	if !ok {
		return fmt.Errorf("relation: %s: no tuple %d", rel, id)
	}
	in := r.anyInstance(rel)
	if pos < 0 || pos >= in.Schema().Arity() {
		return fmt.Errorf("relation: %s: position %d out of range (arity %d)",
			rel, pos, in.Schema().Arity())
	}
	if !in.Schema().Attr(pos).Domain.Contains(v) {
		return fmt.Errorf("relation: %s: value %v not in dom(%s)", rel, v, in.Schema().Attr(pos).Name)
	}
	if !r.s.part.KeyTouches(rel, pos) {
		// The partition key is untouched, so the tuple cannot move:
		// route the raw single-cell update and defer composition to a
		// cellPatch — the hot path never clones the tuple.
		m, ok := r.pend[rel]
		if !ok {
			m = make(map[TID][]cellPatch)
			r.pend[rel] = m
		}
		m[id] = append(m[id], cellPatch{pos: pos, val: v})
		r.push(shard, ShardedOp{Rel: rel, Kind: ChangeUpdate, TID: id, Pos: pos, Val: v})
		return nil
	}
	cur, err := r.tupleOf(rel, id, shard)
	if err != nil {
		return err
	}
	nt := cur.Clone()
	nt[pos] = v
	r.setOver(rel, id, nt)
	newShard := r.s.part.ShardOf(rel, nt)
	if newShard == shard {
		r.push(shard, ShardedOp{Rel: rel, Kind: ChangeUpdate, TID: id, Pos: pos, Val: v})
		return nil
	}
	// Cross-shard move. Weights live only on the owning shard's
	// instance; copy them at route time (the apply phase runs shards
	// concurrently, so the insert on the new shard must not read the old
	// shard's instance).
	var ws []float64
	if old, ok := r.s.shards[shard].MustInstance(rel).weights[id]; ok {
		ws = append([]float64(nil), old...)
	}
	r.s.dir[rel][id] = newShard
	r.push(shard, ShardedOp{Rel: rel, Kind: ChangeDelete, TID: id, Pos: -1})
	r.push(newShard, ShardedOp{Rel: rel, Kind: ChangeInsert, TID: id, Pos: -1, Tuple: nt, weights: ws})
	return nil
}

// ApplyShard applies one shard's routed sub-batch, in order. Sub-batches
// of distinct shards touch disjoint instances and may be applied
// concurrently (one goroutine per shard). Ops were fully validated at
// route time, so an error here means the routing invariants broke (a
// poisoned batch, a directory out of step with a shard): ApplyShard
// stops at the failing op and returns the error instead of killing the
// process, leaving the caller to degrade — rebuild the directory
// (RebuildDir) and resynchronize through the changelogs, which is what
// detect.ShardedDBMonitor.ApplyRouting and Sync do.
func (s *ShardedDB) ApplyShard(shard int, ops []ShardedOp) error {
	db := s.shards[shard]
	for _, op := range ops {
		in, ok := db.Instance(op.Rel)
		if !ok {
			return fmt.Errorf("relation: sharded apply: shard %d has no relation %q", shard, op.Rel)
		}
		switch op.Kind {
		case ChangeInsert:
			if err := in.InsertWithTID(op.TID, op.Tuple); err != nil {
				return fmt.Errorf("relation: sharded apply: %w", err)
			}
			if op.weights != nil {
				in.weights[op.TID] = op.weights
			}
		case ChangeDelete:
			in.Delete(op.TID)
		case ChangeUpdate:
			if err := in.Update(op.TID, op.Pos, op.Val); err != nil {
				return fmt.Errorf("relation: sharded apply: %w", err)
			}
		}
	}
	return nil
}

// GatherSnapshots merges per-shard snapshots back into one Database:
// for every relation, the union of all shards' frozen tuples under
// their global TIDs. The result is detached — mutating it affects
// neither the snapshots nor the sharded database — and is what
// cross-partition readers (the /check endpoint) run the ordinary
// engine on.
// An error (two shards claiming one TID — shard state diverged from the
// routing invariants) aborts the gather rather than killing the server.
func GatherSnapshots(snaps []*DBSnapshot) (*Database, error) {
	return GatherSnapshotsCtx(context.Background(), snaps)
}

// gatherCheckEvery is how many gathered rows pass between context
// checks: cheap enough to keep cancellation latency in the tens of
// microseconds without a per-row atomic load.
const gatherCheckEvery = 4096

// GatherSnapshotsCtx is GatherSnapshots under a deadline: a gather over
// large shards is O(total rows), so request-scoped readers pass their
// context and a cancelled request stops copying instead of finishing a
// merge nobody will read.
func GatherSnapshotsCtx(ctx context.Context, snaps []*DBSnapshot) (*Database, error) {
	db := NewDatabase()
	if len(snaps) == 0 {
		return db, nil
	}
	rows := 0
	for _, name := range snaps[0].Names() {
		first, _ := snaps[0].Snapshot(name)
		in := NewInstance(first.Schema())
		db.Add(in)
		for _, ds := range snaps {
			snap, ok := ds.Snapshot(name)
			if !ok {
				continue
			}
			for row := 0; row < snap.Len(); row++ {
				if rows%gatherCheckEvery == 0 {
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("relation: gather %s: %w", name, err)
					}
				}
				rows++
				if err := in.InsertWithTID(snap.TID(row), snap.TupleAt(row)); err != nil {
					return nil, fmt.Errorf("relation: gather %s: %w", name, err)
				}
			}
		}
	}
	return db, nil
}

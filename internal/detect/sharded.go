package detect

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/relation"
)

// Sharded scatter-gather detection: the engine and monitor variants
// that run over a relation.ShardedDB instead of one Database. The
// cross-shard seam is explicit and small:
//
//   - CFDs and eCFDs must be shard-local: the relation's partition key
//     must be contained in the LHS, so every LHS group lies wholly
//     inside one shard and per-shard evaluation is exactly the
//     restriction of the global one. CheckShardable rejects batches
//     that violate this (pick the key with DeriveShardKeys, or pass
//     -shard-key so every LHS contains it).
//   - CINDs are never shard-local — a source tuple's match may live in
//     any target shard — so target membership is replicated: one small
//     cind.KeyIndex per (target relation, Y ∪ Yp positions) holds every
//     shard's target keys, source shards probe it locally, and
//     target-side changes are broadcast (the replica is updated and the
//     changed Y projections are probed against every shard's source
//     index to find the flipped source tuples).
//
// Because TIDs are global (the ShardedDB allocates them) and the
// per-shard results are merged through the same SortViolations
// comparator, sharded output is byte-identical to the single-partition
// engine — the randomized oracle tests assert exactly that.

// CheckShardable reports why a constraint batch cannot run sharded
// under the partitioner, nil when it can. CFDs and eCFDs require the
// primary relation's partition key to be a subset of their LHS; CINDs
// always shard (via the replicated target-key index); constraint
// classes beyond the built-ins are rejected.
func CheckShardable(p *relation.Partitioner, cs []Constraint) error {
	for _, c := range cs {
		var lhs []int
		var sch *relation.Schema
		switch d := c.Dep().(type) {
		case *cfd.CFD:
			lhs, sch = d.LHS(), d.Schema()
		case *ecfd.ECFD:
			lhs, sch = d.LHS(), d.Schema()
		case *cind.CIND:
			continue
		default:
			return fmt.Errorf("detect: sharded evaluation supports CFD/CIND/eCFD constraints only, got %T", c.Dep())
		}
		key := p.Key(c.Primary())
		if key == nil {
			return fmt.Errorf("detect: %s on %s is not shard-local: relation %s hashes on the whole tuple; set a shard key contained in the LHS %s (see DeriveShardKeys)",
				c.Class(), c.Primary(), c.Primary(), attrNames(sch, lhs))
		}
		if !subsetOf(key, lhs) {
			return fmt.Errorf("detect: %s on %s is not shard-local: partition key %s is not contained in the LHS %s; choose a shard key every CFD/eCFD LHS of %s contains",
				c.Class(), c.Primary(), attrNames(sch, key), attrNames(sch, lhs), c.Primary())
		}
	}
	return nil
}

func subsetOf(sub, super []int) bool {
	for _, p := range sub {
		found := false
		for _, q := range super {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func attrNames(sch *relation.Schema, pos []int) string {
	parts := make([]string, len(pos))
	for i, p := range pos {
		parts[i] = sch.Attr(p).Name
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// DeriveShardKeys computes a partition key per relation that makes the
// batch shardable: for a relation with CFDs/eCFDs, the intersection of
// their LHS position sets (every group-defining attribute set contains
// it, so all constraints stay shard-local); a relation appearing only
// as a CIND side keys on the first CIND's X (source) or Y (target)
// positions, which co-locates same-key source tuples without being
// required for correctness. Relations whose LHSs share no attribute
// cannot be derived — the caller must pick a key (and possibly split
// the rule set).
func DeriveShardKeys(cs []Constraint) (map[string][]int, error) {
	type relInfo struct {
		hasFD   bool
		inter   map[int]bool // LHS intersection so far
		cindPos []int
	}
	infos := make(map[string]*relInfo)
	get := func(rel string) *relInfo {
		ri, ok := infos[rel]
		if !ok {
			ri = &relInfo{}
			infos[rel] = ri
		}
		return ri
	}
	mergeLHS := func(rel string, lhs []int) {
		ri := get(rel)
		if !ri.hasFD {
			ri.hasFD = true
			ri.inter = make(map[int]bool, len(lhs))
			for _, p := range lhs {
				ri.inter[p] = true
			}
			return
		}
		for p := range ri.inter {
			if !containsPos(lhs, p) {
				delete(ri.inter, p)
			}
		}
	}
	for _, c := range cs {
		switch d := c.Dep().(type) {
		case *cfd.CFD:
			mergeLHS(c.Primary(), d.LHS())
		case *ecfd.ECFD:
			mergeLHS(c.Primary(), d.LHS())
		case *cind.CIND:
			if ri := get(d.Src().Name()); ri.cindPos == nil {
				ri.cindPos = dedupSorted(d.X())
			}
			if ri := get(d.Dst().Name()); ri.cindPos == nil {
				ri.cindPos = dedupSorted(d.Y())
			}
		default:
			return nil, fmt.Errorf("detect: sharded evaluation supports CFD/CIND/eCFD constraints only, got %T", c.Dep())
		}
	}
	rels := make([]string, 0, len(infos))
	for rel := range infos {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	out := make(map[string][]int, len(infos))
	for _, rel := range rels {
		ri := infos[rel]
		if ri.hasFD {
			if len(ri.inter) == 0 {
				return nil, fmt.Errorf("detect: cannot derive a shard key for %s: its CFD/eCFD LHSs share no attribute; pass an explicit shard key", rel)
			}
			key := make([]int, 0, len(ri.inter))
			for p := range ri.inter {
				key = append(key, p)
			}
			sort.Ints(key)
			out[rel] = key
			continue
		}
		if ri.cindPos != nil {
			out[rel] = ri.cindPos
		}
	}
	return out, nil
}

func containsPos(pos []int, p int) bool {
	for _, q := range pos {
		if q == p {
			return true
		}
	}
	return false
}

func dedupSorted(pos []int) []int {
	out := append([]int(nil), pos...)
	sort.Ints(out)
	w := 0
	for i, p := range out {
		if i == 0 || p != out[w-1] {
			out[w] = p
			w++
		}
	}
	return out[:w]
}

// tkKey is the map key replicated target-key indexes share: one index
// per distinct (target relation, Y ∪ Yp positions) across the batch,
// mirroring the planner's target-index sharing.
func tkKey(c *cind.CIND) string { return relPosKey(c.Dst().Name(), c.TargetKeyPos()) }

// buildTargetKeys scans every shard's target snapshots into the
// replicated key multisets.
func buildTargetKeys(snaps []*relation.DBSnapshot, cs []Constraint) map[string]*cind.KeyIndex {
	tk := make(map[string]*cind.KeyIndex)
	for _, c := range cs {
		cc, ok := c.(cindConstraint)
		if !ok {
			continue
		}
		key := tkKey(cc.c)
		if _, ok := tk[key]; ok {
			continue
		}
		idx := cind.NewKeyIndex()
		keyPos := cc.c.TargetKeyPos()
		buf := make([]byte, 0, 64)
		for _, ds := range snaps {
			snap, ok := ds.Snapshot(cc.c.Dst().Name())
			if !ok {
				continue
			}
			for r := 0; r < snap.Len(); r++ {
				buf = cind.AppendRowKey(buf[:0], snap, r, keyPos)
				idx.Add(buf)
			}
		}
		tk[key] = idx
	}
	return tk
}

// shardedEvalAll evaluates the full batch over per-shard snapshots:
// every (constraint, shard) pair is one task on the worker pool —
// CFDs/eCFDs through their ordinary per-shard Eval (shard-locality
// makes that exact), CINDs through the replicated key index — and the
// results are gathered per shard. Each source tuple lives on exactly
// one shard, so the concatenation has exactly the unsharded
// multiplicities.
func (e *Engine) shardedEvalAll(snaps []*relation.DBSnapshot, cs []Constraint, tk map[string]*cind.KeyIndex) [][]Violation {
	ctxs := make([]*Ctx, len(snaps))
	for s := range ctxs {
		ctxs[s] = e.planBatch(snaps[s], cs)
	}
	return e.fanShards(len(cs), len(snaps), func(ci, s int) []Violation {
		if cc, ok := cs[ci].(cindConstraint); ok {
			src, _ := snaps[s].Snapshot(cc.c.Src().Name())
			return box(cind.DetectWithKeys(src, cc.c, tk[tkKey(cc.c)]))
		}
		return cs[ci].Eval(ctxs[s])
	})
}

// fanShards runs eval for every (constraint, shard) pair on the worker
// pool and gathers the results per shard, each shard's list in
// constraint order.
func (e *Engine) fanShards(nc, S int, eval func(ci, s int) []Violation) [][]Violation {
	out := make([][]Violation, S)
	next := 0 // runOrdered emits in task order
	runOrdered(e.workers(), nc*S, func(k int) []Violation {
		return eval(k/S, k%S)
	}, func(vs []Violation) {
		out[next%S] = append(out[next%S], vs...)
		next++
	})
	return out
}

// DetectBatchSharded is DetectBatch over a sharded database:
// scatter-gather evaluation of the mixed batch, byte-identical to the
// single-partition engine on the equivalent Database (the final stable
// sort puts the merged per-shard stream in canonical order). It fails
// when the batch is not shardable under the database's partitioner (see
// CheckShardable).
func (e *Engine) DetectBatchSharded(sdb *relation.ShardedDB, cs []Constraint) ([]Violation, error) {
	if err := CheckShardable(sdb.Partitioner(), cs); err != nil {
		return nil, err
	}
	snaps := sdb.Snapshots()
	var out []Violation
	for _, vs := range e.shardedEvalAll(snaps, cs, buildTargetKeys(snaps, cs)) {
		out = append(out, vs...)
	}
	SortViolations(out, SigmaOf(cs))
	return out, nil
}

// ShardedDBMonitor is DBMonitor over a ShardedDB: it owns the per-shard
// snapshots, the replicated target-key indexes and the global violation
// set, and keeps all of them consistent under routed update batches.
// The maintained invariant is the sharded twin of DBMonitor's: after
// every Apply, Violations() is byte-identical to what DetectBatch would
// report on the equivalent unsharded database.
//
// The monitor is single-writer. Apply is three steps, which callers
// that time each stage (the serve layer's commit, bench's replay) run
// themselves:
//
//	r, err := m.Route(batch)     // sequential: validate, allocate, route
//	aerr := m.ApplyRouting(r)    // scatter over the worker pool, panics isolated
//	gained, cleared := m.Sync()  // sequential diff over concurrent per-shard catch-up
type ShardedDBMonitor struct {
	monitorCore
	sdb   *relation.ShardedDB
	snaps []*relation.DBSnapshot
	tkeys map[string]*cind.KeyIndex
	// panics counts the shard-apply panics ApplyRouting has recovered;
	// atomic, because metrics scrapes read it beside the writer.
	panics atomic.Uint64
	// hook, set only by SetShardHookForTest, runs before each shard's
	// sub-batch is applied.
	hook func(shard int, ops []relation.ShardedOp)
}

// NewShardedDBMonitor builds the monitor and pays one full sharded
// detection to seed the violation set. It fails when the batch is not
// shardable under sdb's partitioner.
func NewShardedDBMonitor(e *Engine, sdb *relation.ShardedDB, cs []Constraint) (*ShardedDBMonitor, error) {
	if err := CheckShardable(sdb.Partitioner(), cs); err != nil {
		return nil, err
	}
	m := &ShardedDBMonitor{monitorCore: newMonitorCore(e, cs), sdb: sdb}
	m.seed(m.evalAll())
	return m, nil
}

// evalAll refreezes every shard, rebuilds the replicated key indexes
// and evaluates the full batch — the seed and the full-resync fallback.
func (m *ShardedDBMonitor) evalAll() [][]Violation {
	m.snaps = m.sdb.Snapshots()
	m.tkeys = buildTargetKeys(m.snaps, m.cs)
	return m.engine.shardedEvalAll(m.snaps, m.cs, m.tkeys)
}

// Route validates and routes a logical batch into per-shard sub-batches
// (sequential, single-writer). Semantics match DBMonitor.Apply's
// mutation step exactly: ops route in order, the first failing op stops
// the batch (the routed prefix stands) and returns the identical
// wrapped error. The returned routing MUST be applied with ApplyRouting
// before the next Route.
func (m *ShardedDBMonitor) Route(batch []DBOp) (*relation.Routing, error) {
	r := m.sdb.NewRouting()
	for _, op := range batch {
		if _, ok := m.sdb.Schema(op.Rel); !ok {
			return r, fmt.Errorf("dbmonitor: no relation %q", op.Rel)
		}
		switch op.Op.Kind {
		case OpInsert:
			if _, err := r.Insert(op.Rel, op.Op.Tuple); err != nil {
				return r, fmt.Errorf("dbmonitor: %v", err)
			}
		case OpDelete:
			r.Delete(op.Rel, op.Op.TID)
		case OpUpdate:
			if err := r.Update(op.Rel, op.Op.TID, op.Op.Pos, op.Op.Val); err != nil {
				return r, fmt.Errorf("dbmonitor: %v", err)
			}
		}
	}
	return r, nil
}

// ApplyRouting applies every routed sub-batch, fanning shards out over
// the engine's worker pool (each shard is applied by exactly one
// goroutine, in routed order). A failing shard does not stop the
// others: an ApplyShard error (routing invariants broken by a poisoned
// batch) or a panic, which is recovered into that shard's error and
// counted (Panics), is reported as the first failing shard's error in
// shard order. On any failure ApplyRouting rebuilds the tuple directory
// from what the shards actually hold (RebuildDir), so the next Sync
// restores a consistent view of whatever did apply.
func (m *ShardedDBMonitor) ApplyRouting(r *relation.Routing) error {
	per := r.PerShard()
	var firstErr error
	runOrdered(m.engine.workers(), len(per), func(s int) error {
		return m.applyShard(s, per[s])
	}, func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		m.sdb.RebuildDir()
	}
	return firstErr
}

// applyShard applies one shard's sub-batch, recovering a panic in the
// apply (or the test hook) into the shard's error.
func (m *ShardedDBMonitor) applyShard(s int, ops []relation.ShardedOp) (err error) {
	if len(ops) == 0 {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			err = fmt.Errorf("detect: shard %d apply panic: %v", s, r)
		}
	}()
	if m.hook != nil {
		m.hook(s, ops)
	}
	return m.sdb.ApplyShard(s, ops)
}

// Panics reports how many shard-apply panics ApplyRouting has recovered
// since the monitor was built. Safe to call concurrently with the
// writer.
func (m *ShardedDBMonitor) Panics() uint64 { return m.panics.Load() }

// SetShardHookForTest installs h to run in ApplyRouting just before each
// shard applies its sub-batch — the scheduling-fault seam: tests stall
// one shard (latency) or panic in it (crash isolation). h may run
// concurrently for distinct shards. Not safe to call while a batch is
// being applied.
func (m *ShardedDBMonitor) SetShardHookForTest(h func(shard int, ops []relation.ShardedOp)) {
	m.hook = h
}

// Apply routes the batch, applies the sub-batches concurrently, and
// syncs — the sharded counterpart of DBMonitor.Apply, with the same
// error-prefix semantics and the same gained/cleared contract. A routed
// op error keeps precedence over an apply-phase failure, since it names
// the op the caller sent wrong; either way Sync restores consistency
// with what actually applied.
func (m *ShardedDBMonitor) Apply(batch []DBOp) (gained, cleared []Violation, err error) {
	r, err := m.Route(batch)
	if aerr := m.ApplyRouting(r); err == nil {
		err = aerr
	}
	gained, cleared = m.Sync()
	return gained, cleared, err
}

// Sync brings the monitor up to date with applied routings (or any
// direct single-writer mutation of the shard instances) and returns the
// canonical violation diff. The phases, in order:
//
//  1. per-shard, per-relation deltas from the instance changelogs
//     (truncation or a replaced relation → full resync);
//  2. per-shard snapshot catch-up (each shard pays O(|its Δ|));
//  3. touched lists per (constraint, shard) — shard-local reasoning for
//     CFDs/eCFDs, and for CINDs the union of the shard's own source
//     delta with the broadcast probes of every shard's target-side
//     changes against this shard's old source index;
//  4. old-side evaluation of the touched lists (against the replicated
//     key state the old violations were computed under);
//  5. the target-key replica absorbs the batch's target-side deltas;
//  6. new-side evaluation, then the stored-set diff DBMonitor shares.
func (m *ShardedDBMonitor) Sync() (gained, cleared []Violation) {
	S := m.sdb.Shards()
	// Phase 1 fans per shard across the worker pool: shards are
	// disjoint Databases, so the changelog scans and delta netting
	// share nothing. The full-resync triggers are gathered as per-shard
	// flags and decided sequentially after the barrier, so the fallback
	// still runs on the sequencer's goroutine.
	type shardScan struct {
		deltas map[string]*relation.Delta
		resync bool
	}
	deltas := make([]map[string]*relation.Delta, S)
	resync, changed := false, false
	next := 0
	runOrdered(m.engine.workers(), S, func(s int) shardScan {
		d, r := m.scan(m.sdb.Shard(s), m.snaps[s])
		return shardScan{d, r}
	}, func(sc shardScan) {
		deltas[next] = sc.deltas
		resync = resync || sc.resync
		changed = changed || sc.deltas != nil
		next++
	})
	if resync {
		return m.resync(m.evalAll())
	}
	if !changed {
		return nil, nil
	}
	// Phase 2: per-shard snapshot catch-up, concurrent inside
	// ShardedDB.Snapshots (each shard pays O(|its Δ|) on its own core).
	oldSnaps, newSnaps := m.snaps, m.sdb.Snapshots()

	tcs := make([]*TouchCtx, S)
	for s := 0; s < S; s++ {
		tcs[s] = &TouchCtx{
			db: m.sdb.Shard(s), old: oldSnaps[s], new: newSnaps[s],
			deltas: deltas[s], coverInserts: true,
		}
	}
	yChanges := m.collectYChanges(deltas, oldSnaps, newSnaps)
	// Phase 3 fans per shard, not per constraint: a TouchCtx memoizes
	// CoMembers lazily, so every constraint of one shard must run on
	// one goroutine, while distinct shards touch disjoint contexts and
	// snapshots. Results land in disjoint [i][s] slots and each list is
	// a pure function of per-shard pre-batch state, so scheduling
	// cannot change the outcome.
	touched := make([][][]relation.TID, len(m.cs))
	for i := range m.cs {
		touched[i] = make([][]relation.TID, S)
	}
	runOrdered(m.engine.workers(), S, func(s int) struct{} {
		for i, c := range m.cs {
			if cc, ok := c.(cindConstraint); ok {
				touched[i][s] = cindTouched(cc.c, tcs[s], yChanges[i])
			} else if deltas[s] != nil {
				touched[i][s] = c.Touched(tcs[s])
			}
		}
		return struct{}{}
	}, func(struct{}) {})

	// Old side first: the stored set was computed against the replica's
	// pre-batch state, so re-deriving its touched restriction must probe
	// that same state; only then does the replica absorb the deltas.
	oldTouched := m.evalTouched(oldSnaps, touched)
	m.applyKeyDeltas(deltas, oldSnaps, newSnaps)
	m.snaps = newSnaps
	return m.diff(oldTouched, m.evalTouched(newSnaps, touched))
}

// collectYChanges gathers, per CIND constraint, the Y projections of
// every target tuple that entered, left, or changed its Y ∪ Yp
// projection on ANY shard — the broadcast payload probed against every
// shard's source index in phase 3.
func (m *ShardedDBMonitor) collectYChanges(deltas []map[string]*relation.Delta, oldSnaps, newSnaps []*relation.DBSnapshot) [][][]relation.Value {
	out := make([][][]relation.Value, len(m.cs))
	for i, c := range m.cs {
		cc, ok := c.(cindConstraint)
		if !ok {
			continue
		}
		dst := cc.c.Dst().Name()
		for s, ds := range deltas {
			oldDst, _ := oldSnaps[s].Snapshot(dst)
			newDst, _ := newSnaps[s].Snapshot(dst)
			out[i] = targetYChanges(cc.c, ds[dst], oldDst, newDst, out[i])
		}
	}
	return out
}

// evalTouched evaluates the per-(constraint, shard) touched lists over
// the given per-shard snapshots, probing the replica's CURRENT key
// state for CINDs (the caller sequences the replica update between the
// old- and new-side calls). Results feed the stored-set diff, so no
// sort.
func (m *ShardedDBMonitor) evalTouched(snaps []*relation.DBSnapshot, touched [][][]relation.TID) [][]Violation {
	// Plan only the shards with touched work: a small batch lands on one
	// shard, and paying the per-shard plan (maps, lazy index handles) for
	// every idle shard twice per commit would dominate the steady state.
	ctxs := make([]*Ctx, len(snaps))
	for ci := range touched {
		for s, tl := range touched[ci] {
			if len(tl) > 0 && ctxs[s] == nil {
				ctxs[s] = m.engine.planBatch(snaps[s], m.cs)
			}
		}
	}
	return m.engine.fanShards(len(m.cs), len(snaps), func(ci, s int) []Violation {
		tl := touched[ci][s]
		if len(tl) == 0 {
			return nil
		}
		if cc, ok := m.cs[ci].(cindConstraint); ok {
			src, _ := snaps[s].Snapshot(cc.c.Src().Name())
			return box(cind.DetectTouchedWithKeys(src, cc.c, m.tkeys[tkKey(cc.c)], tl))
		}
		return m.cs[ci].EvalTouched(ctxs[s], tl)
	})
}

// applyKeyDeltas folds the batch's target-side deltas into every
// replicated key index: one Remove per departed key, one Add per
// arrived key, Yp-only changes included (TargetKeyPos covers them).
func (m *ShardedDBMonitor) applyKeyDeltas(deltas []map[string]*relation.Delta, oldSnaps, newSnaps []*relation.DBSnapshot) {
	done := make(map[string]bool, len(m.tkeys))
	buf := make([]byte, 0, 64)
	for _, c := range m.cs {
		cc, ok := c.(cindConstraint)
		if !ok {
			continue
		}
		key := tkKey(cc.c)
		if done[key] {
			continue
		}
		done[key] = true
		idx := m.tkeys[key]
		dst := cc.c.Dst().Name()
		keyPos := cc.c.TargetKeyPos()
		for s, ds := range deltas {
			oldDst, _ := oldSnaps[s].Snapshot(dst)
			newDst, _ := newSnaps[s].Snapshot(dst)
			keyChanges(ds[dst], oldDst, newDst, keyPos, func(snap *relation.Snapshot, r int, arrived bool) {
				buf = cind.AppendRowKey(buf[:0], snap, r, keyPos)
				if arrived {
					idx.Add(buf)
				} else {
					idx.Remove(buf)
				}
			})
		}
	}
}

// ShardCounts returns the number of current violations per shard — each
// violation counts toward the shard holding its primary tuple — as a
// fresh slice indexed by shard.
func (m *ShardedDBMonitor) ShardCounts() []int { return append([]int(nil), m.counts...) }

// ShardSnapshots returns the maintained per-shard snapshots (current as
// of the last Apply/Sync). The slice is shared; callers must not modify
// it.
func (m *ShardedDBMonitor) ShardSnapshots() []*relation.DBSnapshot { return m.snaps }

// Sharded returns the watched sharded database.
func (m *ShardedDBMonitor) Sharded() *relation.ShardedDB { return m.sdb }

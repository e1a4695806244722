package detect

import (
	"sort"
	"sync"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/relation"
)

// The constraint-class abstraction: the engine's planning, index
// sharing, worker fan-out and deterministic merge are class-agnostic,
// and each dependency class plugs in through the Constraint interface —
// CFDs (the original engine workload), CINDs (two-relation inclusion
// checks) and eCFDs (set-valued pattern cells) ship here; further
// classes (MDs, denial constraints, discovered candidates) implement
// the same interface and ride the same engine.
//
// A mixed batch evaluates through one shared relation.DBSnapshot: every
// constraint of the batch reads the same consistent freeze of every
// relation, and the planner deduplicates index requirements by
// (relation, position set) across classes — a CFD on LHS [CC, zip] and
// a CIND grouping its source on [CC, zip] share one CodeIndex build.

// Class identifies a constraint class the engine can evaluate.
type Class uint8

// The constraint classes.
const (
	ClassCFD Class = iota
	ClassCIND
	ClassECFD
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCFD:
		return "cfd"
	case ClassCIND:
		return "cind"
	case ClassECFD:
		return "ecfd"
	default:
		return "unknown"
	}
}

// Violation is one detected violation of any constraint class: the
// dynamic type is cfd.Violation, cind.Violation or ecfd.Violation. All
// three are comparable value types, so Violations work as map keys (the
// monitor's diff sets).
type Violation interface{ String() string }

// SplitViolations separates a mixed violation stream by class,
// preserving order — each per-class slice of a DetectBatch result is
// byte-identical to the class's own canonical DetectAll output.
// Violations of classes beyond the three built-ins are not returned;
// callers running custom Constraint implementations must type-switch
// the stream themselves.
func SplitViolations(vs []Violation) (cfds []cfd.Violation, cinds []cind.Violation, ecfds []ecfd.Violation) {
	for _, v := range vs {
		switch v := v.(type) {
		case cfd.Violation:
			cfds = append(cfds, v)
		case cind.Violation:
			cinds = append(cinds, v)
		case ecfd.Violation:
			ecfds = append(ecfds, v)
		}
	}
	return
}

// IndexReq names one group index a constraint's evaluation reads: the
// relation and the attribute position sequence. The planner builds each
// distinct requirement once per batch, lazily, and shares it across
// every constraint — of any class — that requested it.
type IndexReq struct {
	Rel string
	Pos []int
}

// Constraint adapts one dependency to the engine. Implementations must
// be usable from multiple goroutines (the worker pool evaluates
// constraints concurrently) and must return violations in their class's
// canonical per-constraint order, so the engine's reorder buffer yields
// a deterministic stream.
type Constraint interface {
	// Class returns the constraint-class tag.
	Class() Class
	// Dep returns the wrapped dependency (*cfd.CFD, *cind.CIND,
	// *ecfd.ECFD) — the identity violations are attributed to.
	Dep() any
	// Primary returns the relation whose TIDs identify the constraint's
	// violations; incremental maintenance expresses touched lists in its
	// TIDs.
	Primary() string
	// Reads returns every relation the evaluation consults.
	Reads() []string
	// Reqs returns the group indexes the evaluation wants prebuilt.
	Reqs() []IndexReq
	// Eval returns the constraint's violations over the batch snapshot.
	Eval(ctx *Ctx) []Violation
	// EvalTouched restricts Eval to violations witnessed by the given
	// primary-relation TIDs (ascending); TIDs absent from the snapshot
	// are skipped.
	EvalTouched(ctx *Ctx, touched []relation.TID) []Violation
	// Satisfied reports whether the batch snapshot satisfies the
	// constraint, stopping at the first violation.
	Satisfied(ctx *Ctx) bool
	// Touched translates a batch of per-relation deltas into the
	// primary-relation TID list whose violations may have changed — the
	// incremental-maintenance contract: stored violations outside the
	// list are guaranteed unaffected, and EvalTouched over the list on
	// the pre- and post-batch snapshots re-derives the rest exactly.
	Touched(tc *TouchCtx) []relation.TID
}

// WrapCFD adapts a CFD to the Constraint interface.
func WrapCFD(c *cfd.CFD) Constraint { return cfdConstraint{c} }

// WrapCIND adapts a CIND to the Constraint interface.
func WrapCIND(c *cind.CIND) Constraint { return cindConstraint{c} }

// WrapECFD adapts an eCFD to the Constraint interface.
func WrapECFD(e *ecfd.ECFD) Constraint { return ecfdConstraint{e} }

// WrapCFDs adapts a CFD batch.
func WrapCFDs(cs []*cfd.CFD) []Constraint {
	out := make([]Constraint, len(cs))
	for i, c := range cs {
		out[i] = cfdConstraint{c}
	}
	return out
}

// WrapCINDs adapts a CIND batch.
func WrapCINDs(cs []*cind.CIND) []Constraint {
	out := make([]Constraint, len(cs))
	for i, c := range cs {
		out[i] = cindConstraint{c}
	}
	return out
}

// WrapECFDs adapts an eCFD batch.
func WrapECFDs(es []*ecfd.ECFD) []Constraint {
	out := make([]Constraint, len(es))
	for i, e := range es {
		out[i] = ecfdConstraint{e}
	}
	return out
}

// Ctx hands a constraint its slice of the batch: the per-relation
// snapshots of the shared DBSnapshot and the planner's shared lazy
// indexes. Safe for concurrent use by the worker pool.
type Ctx struct {
	dbs *relation.DBSnapshot
	idx map[string]*lazyIndex
	// shards holds every shard's context of the same evaluation, this
	// one included, in shard order — a flat evaluation's holds only
	// itself. A CIND reaches its target on every shard through it.
	shards []*Ctx
}

// Snapshot returns the frozen snapshot of the named relation, or nil
// when the database holds no such relation (a CIND with a missing
// source is vacuous; a missing target fails every probe).
func (ctx *Ctx) Snapshot(rel string) *relation.Snapshot {
	s, _ := ctx.dbs.Snapshot(rel)
	return s
}

// Index returns the shared group index of the relation on the given
// positions, building it on first use. Requirements the planner did not
// see resolve through the snapshot's own index cache; a missing
// relation yields nil (the class primitives rebuild or skip as their
// semantics demand).
func (ctx *Ctx) Index(rel string, pos []int) *relation.CodeIndex {
	if li, ok := ctx.idx[relPosKey(rel, pos)]; ok {
		return li.get()
	}
	s := ctx.Snapshot(rel)
	if s == nil {
		return nil
	}
	return s.CodeIndexOn(pos)
}

// lazyIndex builds its group index on first use, once, and shares it
// across every task that requested the same (relation, positions) —
// whatever the constraint class. Laziness keeps early-cancelled runs
// from paying for indexes they never touched.
type lazyIndex struct {
	once sync.Once
	snap *relation.Snapshot // nil: relation absent from the database
	pos  []int
	cx   *relation.CodeIndex
}

func (li *lazyIndex) get() *relation.CodeIndex {
	li.once.Do(func() {
		if li.snap != nil {
			li.cx = li.snap.CodeIndexOn(li.pos)
		}
	})
	return li.cx
}

// relPosKey renders a (relation, position list) requirement as the
// planner's map key.
func relPosKey(rel string, pos []int) string {
	return rel + "\x00" + lhsKey(pos)
}

// planBatch resolves the batch context: one lazy shared index per
// distinct requirement across the whole mixed batch.
func (e *Engine) planBatch(dbs *relation.DBSnapshot, cs []Constraint) *Ctx {
	ctx := &Ctx{dbs: dbs, idx: make(map[string]*lazyIndex)}
	for _, c := range cs {
		for _, rq := range c.Reqs() {
			key := relPosKey(rq.Rel, rq.Pos)
			if _, ok := ctx.idx[key]; !ok {
				s, _ := dbs.Snapshot(rq.Rel)
				ctx.idx[key] = &lazyIndex{snap: s, pos: rq.Pos}
			}
		}
	}
	ctx.shards = []*Ctx{ctx}
	return ctx
}

// planShards plans one sharded evaluation: a context for every shard
// plan selects (nil elsewhere), all linked through one shard list, so a
// CIND evaluated on any shard probes every shard's target through its
// sibling's shared lazy index — each built at most once per evaluation.
// A CIND may only run when every shard is planned.
func (e *Engine) planShards(snaps []*relation.DBSnapshot, cs []Constraint, plan func(s int) bool) []*Ctx {
	ctxs := make([]*Ctx, len(snaps))
	for s, dbs := range snaps {
		if plan(s) {
			ctxs[s] = e.planBatch(dbs, cs)
			ctxs[s].shards = ctxs
		}
	}
	return ctxs
}

// DetectBatch evaluates a mixed constraint batch over the database —
// every constraint against one shared relation.DBSnapshot — and returns
// all violations in the canonical mixed order (SortViolations). Its
// per-class subsequences are byte-identical to the per-class reference
// detectors (cfd.DetectAll / cind.DetectAll / ecfd.DetectAll).
func (e *Engine) DetectBatch(db *relation.Database, cs []Constraint) []Violation {
	return e.DetectBatchOn(relation.DBSnapshotOf(db), cs)
}

// DetectBatchOn is DetectBatch evaluated on a caller-supplied database
// snapshot (a monitor's maintained shard snapshot, or any freeze the
// caller holds fixed across calls, current or not).
func (e *Engine) DetectBatchOn(dbs *relation.DBSnapshot, cs []Constraint) []Violation {
	var out []Violation
	e.DetectBatchStreamOn(dbs, cs, func(v Violation) { out = append(out, v) })
	SortViolations(out, SigmaOf(cs))
	return out
}

// DetectBatchStream runs DetectBatch but delivers violations to sink as
// they are merged: each constraint's violations arrive as a contiguous
// run, constraints in Σ order, each run in the class's canonical
// per-constraint order — deterministic regardless of worker count.
func (e *Engine) DetectBatchStream(db *relation.Database, cs []Constraint, sink func(Violation)) {
	e.DetectBatchStreamOn(relation.DBSnapshotOf(db), cs, sink)
}

// DetectBatchStreamOn is DetectBatchStream on a caller-supplied
// snapshot.
func (e *Engine) DetectBatchStreamOn(dbs *relation.DBSnapshot, cs []Constraint, sink func(Violation)) {
	ctx := e.planBatch(dbs, cs)
	runOrdered(e.workers(), len(cs), func(i int) []Violation { return cs[i].Eval(ctx) }, func(vs []Violation) {
		for _, v := range vs {
			sink(v)
		}
	})
}

// SatisfiesBatch reports whether the database satisfies every
// constraint of the batch, cancelling outstanding work at the first
// violation any worker finds.
func (e *Engine) SatisfiesBatch(db *relation.Database, cs []Constraint) bool {
	return e.SatisfiesBatchOn(relation.DBSnapshotOf(db), cs)
}

// SatisfiesBatchOn is SatisfiesBatch evaluated on a caller-supplied
// database snapshot — the entry point for probing a frozen view (a
// serve-layer published state) without freezing the live database
// again, and without ever reading the mutable instances: safe to run
// concurrently with a writer mutating the snapshot's source database.
func (e *Engine) SatisfiesBatchOn(dbs *relation.DBSnapshot, cs []Constraint) bool {
	ok, _ := e.satisfiesBatchOn(dbs, cs)
	return ok
}

// satisfiesBatchOn additionally reports how many constraints were
// actually evaluated, which the tests use to observe early cancellation.
func (e *Engine) satisfiesBatchOn(dbs *relation.DBSnapshot, cs []Constraint) (bool, int64) {
	ctx := e.planBatch(dbs, cs)
	return runCancel(e.workers(), len(cs), func(i int) bool {
		return cs[i].Satisfied(ctx)
	})
}

// SigmaOf maps each wrapped dependency to its first batch position —
// the Σ tie-break of the canonical mixed order (see SortViolations).
func SigmaOf(cs []Constraint) map[any]int {
	sigma := make(map[any]int, len(cs))
	for i, c := range cs {
		if _, ok := sigma[c.Dep()]; !ok {
			sigma[c.Dep()] = i
		}
	}
	return sigma
}

// DepOf returns the dependency a violation is attributed to (*cfd.CFD,
// *cind.CIND, *ecfd.ECFD), or nil for violations of classes this
// package does not know.
func DepOf(v Violation) any {
	switch v := v.(type) {
	case cfd.Violation:
		return v.CFD
	case cind.Violation:
		return v.CIND
	case ecfd.Violation:
		return v.ECFD
	}
	return nil
}

// ClassOf returns a violation's class tag, or ^Class(0) for violations
// of classes this package does not know (a future Constraint
// implementation — the same marker SortViolations orders last).
func ClassOf(v Violation) Class {
	switch v.(type) {
	case cfd.Violation:
		return ClassCFD
	case cind.Violation:
		return ClassCIND
	case ecfd.Violation:
		return ClassECFD
	}
	return ^Class(0)
}

// RelationOf returns the primary relation a violation's TIDs live in —
// the violated CFD/eCFD's schema, a CIND's source relation — or ""
// for violations of unknown classes.
func RelationOf(v Violation) string {
	switch v := v.(type) {
	case cfd.Violation:
		return v.CFD.Schema().Name()
	case cind.Violation:
		return v.CIND.Src().Name()
	case ecfd.Violation:
		return v.ECFD.Schema().Name()
	}
	return ""
}

// violationKey is the canonical mixed sort key (see SortViolations).
type violationKey struct {
	class          Class
	t1, t2         relation.TID
	attr, row, sig int
}

func keyOfViolation(v Violation, sigma map[any]int) violationKey {
	switch v := v.(type) {
	case cfd.Violation:
		return violationKey{ClassCFD, v.T1, v.T2, v.Attr, v.Row, sigma[v.CFD]}
	case cind.Violation:
		return violationKey{ClassCIND, v.TID, 0, 0, v.Row, sigma[v.CIND]}
	case ecfd.Violation:
		return violationKey{ClassECFD, v.T1, v.T2, v.Attr, v.Row, sigma[v.ECFD]}
	default:
		// A class this package does not know (a future Constraint
		// implementation): keep its violations after the built-in
		// classes, in the stable order they streamed in.
		return violationKey{class: ^Class(0)}
	}
}

// CompareViolations orders two mixed violations by the canonical key
// (-1, 0, +1): the comparator behind SortViolations, exported so
// maintained sorted violation lists (the serve layer's published state)
// can merge sorted gained/cleared diffs without re-sorting.
func CompareViolations(a, b Violation, sigma map[any]int) int {
	ka, kb := keyOfViolation(a, sigma), keyOfViolation(b, sigma)
	switch {
	case ka.class != kb.class:
		return cmpOrder(ka.class < kb.class)
	case ka.t1 != kb.t1:
		return cmpOrder(ka.t1 < kb.t1)
	case ka.t2 != kb.t2:
		return cmpOrder(ka.t2 < kb.t2)
	case ka.attr != kb.attr:
		return cmpOrder(ka.attr < kb.attr)
	case ka.row != kb.row:
		return cmpOrder(ka.row < kb.row)
	case ka.sig != kb.sig:
		return cmpOrder(ka.sig < kb.sig)
	default:
		return 0
	}
}

func cmpOrder(less bool) int {
	if less {
		return -1
	}
	return 1
}

// SortViolations sorts a mixed violation slice into the canonical mixed
// reporting order: class (CFD, CIND, eCFD), then the class's canonical
// key — (T1, T2, Attr, Row) for CFDs and eCFDs, (TID, Row) for CINDs —
// with ties broken by Σ position (sigma maps each dependency to its
// batch index; see SigmaOf). Restricted to one class it reproduces that
// class's own SortViolations order, which is what keeps DetectBatch's
// per-class subsequences byte-identical to the reference detectors.
func SortViolations(vs []Violation, sigma map[any]int) {
	sort.SliceStable(vs, func(i, j int) bool {
		return CompareViolations(vs[i], vs[j], sigma) < 0
	})
}

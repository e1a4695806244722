package detect

import (
	"sort"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/relation"
)

// The three shipped Constraint implementations. Each is a thin adapter:
// the scan work lives in each class package's one columnar detection
// body, behind its *WithSnapshot entry points, and the adapters wire
// those to the engine's shared snapshots, shared indexes and
// touched-list protocol.

// box lifts a class's typed violation slice into the mixed stream; any
// class whose violation type satisfies Violation rides it unchanged.
func box[T Violation](vs []T) []Violation {
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

// --- CFDs ----------------------------------------------------------------

type cfdConstraint struct{ c *cfd.CFD }

func (w cfdConstraint) Class() Class     { return ClassCFD }
func (w cfdConstraint) Dep() any         { return w.c }
func (w cfdConstraint) Primary() string  { return w.c.Schema().Name() }
func (w cfdConstraint) Reads() []string  { return []string{w.c.Schema().Name()} }
func (w cfdConstraint) Reqs() []IndexReq { return []IndexReq{{Rel: w.Primary(), Pos: w.c.LHS()}} }

func (w cfdConstraint) Eval(ctx *Ctx) []Violation {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return nil
	}
	return box(cfd.DetectWithSnapshot(snap, w.c, ctx.Index(w.Primary(), w.c.LHS())))
}

func (w cfdConstraint) EvalTouched(ctx *Ctx, touched []relation.TID) []Violation {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return nil
	}
	return box(cfd.DetectTouchedWithSnapshot(snap, w.c, ctx.Index(w.Primary(), w.c.LHS()), touched))
}

func (w cfdConstraint) Satisfied(ctx *Ctx) bool {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return true
	}
	return cfd.SatisfiesWithSnapshot(snap, w.c, ctx.Index(w.Primary(), w.c.LHS()))
}

func (w cfdConstraint) Touched(tc *TouchCtx) []relation.TID {
	return fdTouched(tc, w.Primary(), w.c.LHS(), w.c.RHS())
}

// --- eCFDs ---------------------------------------------------------------

type ecfdConstraint struct{ e *ecfd.ECFD }

func (w ecfdConstraint) Class() Class     { return ClassECFD }
func (w ecfdConstraint) Dep() any         { return w.e }
func (w ecfdConstraint) Primary() string  { return w.e.Schema().Name() }
func (w ecfdConstraint) Reads() []string  { return []string{w.e.Schema().Name()} }
func (w ecfdConstraint) Reqs() []IndexReq { return []IndexReq{{Rel: w.Primary(), Pos: w.e.LHS()}} }

func (w ecfdConstraint) Eval(ctx *Ctx) []Violation {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return nil
	}
	return box(ecfd.DetectWithSnapshot(snap, w.e, ctx.Index(w.Primary(), w.e.LHS())))
}

func (w ecfdConstraint) EvalTouched(ctx *Ctx, touched []relation.TID) []Violation {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return nil
	}
	return box(ecfd.DetectTouchedWithSnapshot(snap, w.e, ctx.Index(w.Primary(), w.e.LHS()), touched))
}

func (w ecfdConstraint) Satisfied(ctx *Ctx) bool {
	snap := ctx.Snapshot(w.Primary())
	if snap == nil {
		return true
	}
	return ecfd.SatisfiesWithSnapshot(snap, w.e, ctx.Index(w.Primary(), w.e.LHS()))
}

func (w ecfdConstraint) Touched(tc *TouchCtx) []relation.TID {
	return fdTouched(tc, w.Primary(), w.e.LHS(), w.e.RHS())
}

// --- CINDs ---------------------------------------------------------------

type cindConstraint struct{ c *cind.CIND }

func (w cindConstraint) Class() Class    { return ClassCIND }
func (w cindConstraint) Dep() any        { return w.c }
func (w cindConstraint) Primary() string { return w.c.Src().Name() }

func (w cindConstraint) Reads() []string {
	src, dst := w.c.Src().Name(), w.c.Dst().Name()
	if src == dst {
		return []string{src}
	}
	return []string{src, dst}
}

func (w cindConstraint) Reqs() []IndexReq {
	return []IndexReq{
		{Rel: w.c.Src().Name(), Pos: w.c.SourceGroupPos()},
		{Rel: w.c.Dst().Name(), Pos: w.c.TargetKeyPos()},
	}
}

// targets resolves the partitions of the CIND's target relation: its
// snapshot on every shard of the evaluation, each with the shard's
// shared index. A missing target relation yields none (every probe
// misses, like the empty instance cind.Detect substitutes).
func (w cindConstraint) targets(ctx *Ctx) []cind.Target {
	rel, pos := w.c.Dst().Name(), w.c.TargetKeyPos()
	out := make([]cind.Target, 0, len(ctx.shards))
	for _, sc := range ctx.shards {
		if snap := sc.Snapshot(rel); snap != nil {
			out = append(out, cind.Target{Snap: snap, Index: sc.Index(rel, pos)})
		}
	}
	return out
}

func (w cindConstraint) Eval(ctx *Ctx) []Violation {
	src := w.c.Src().Name()
	return box(cind.DetectWithSnapshot(ctx.Snapshot(src), w.targets(ctx), w.c, ctx.Index(src, w.c.SourceGroupPos())))
}

// EvalTouched probes per touched tuple, so it requests the target
// indexes only: building a source group index would cost a pass over
// the source relation the touched scan never reads.
func (w cindConstraint) EvalTouched(ctx *Ctx, touched []relation.TID) []Violation {
	return box(cind.DetectTouchedWithSnapshot(ctx.Snapshot(w.c.Src().Name()), w.targets(ctx), w.c, touched))
}

func (w cindConstraint) Satisfied(ctx *Ctx) bool {
	src := w.c.Src().Name()
	return cind.SatisfiesWithSnapshot(ctx.Snapshot(src), w.targets(ctx), w.c, ctx.Index(src, w.c.SourceGroupPos()))
}

// Touched assembles the CIND touched list on one shard (a flat
// database is the one-shard case):
//
//   - source side: inserted and deleted source TIDs, plus source TIDs
//     updated on X ∪ Xp — any of these can change which pattern rows
//     the tuple matches or the key it probes with;
//   - target side: a target tuple entering, leaving, or changing its
//     Y ∪ Yp projection can flip the verdict of exactly the source
//     tuples whose X values equal its Y values, on either side of the
//     batch — those are found by probing the pre-batch source index on
//     X with the changed Y projections the monitor broadcasts from
//     every shard (TouchCtx.yChanges, see targetYChanges). Probing the
//     old index suffices: a source tuple that itself moved is already
//     in the list via the source side. Yp-only changes ride the same
//     probes, since Y is then unchanged.
func (w cindConstraint) Touched(tc *TouchCtx) []relation.TID {
	srcRel := w.c.Src().Name()
	set := make(map[relation.TID]struct{})
	if d := tc.Delta(srcRel); d != nil {
		srcPos := w.c.SourceGroupPos()
		for _, id := range d.Inserted {
			set[id] = struct{}{}
		}
		for _, id := range d.Deleted {
			set[id] = struct{}{}
		}
		for id := range d.Updated {
			if d.Touches(id, srcPos) {
				set[id] = struct{}{}
			}
		}
	}
	if oldSrc := tc.Old(srcRel); oldSrc != nil && len(tc.yChanges[w.c]) > 0 {
		srcX := oldSrc.CodeIndexOn(w.c.X())
		for _, vals := range tc.yChanges[w.c] {
			for _, sid := range srcX.LookupValues(vals) {
				set[sid] = struct{}{}
			}
		}
	}
	return sortedTIDs(set)
}

// targetYChanges appends to out the Y projection of every target row
// the delta changed on the CIND's Y ∪ Yp: inserted rows on the new
// side, deleted rows on the old side, and rows updated on Y ∪ Yp on
// both. A nil delta or snapshot contributes nothing.
func targetYChanges(c *cind.CIND, d *relation.Delta, oldSnap, newSnap *relation.Snapshot, out [][]relation.Value) [][]relation.Value {
	if d == nil {
		return out
	}
	y := c.Y()
	at := func(snap *relation.Snapshot, id relation.TID) {
		if snap == nil {
			return
		}
		if r, ok := snap.Row(id); ok {
			vals := make([]relation.Value, len(y))
			for j, p := range y {
				vals[j] = snap.Value(r, p)
			}
			out = append(out, vals)
		}
	}
	for _, id := range d.Inserted {
		at(newSnap, id)
	}
	for _, id := range d.Deleted {
		at(oldSnap, id)
	}
	keyPos := c.TargetKeyPos()
	for id := range d.Updated {
		if d.Touches(id, keyPos) {
			at(oldSnap, id)
			at(newSnap, id)
		}
	}
	return out
}

// --- shared touched-list machinery ---------------------------------------

// fdTouched is the shared CFD/eCFD touched-list builder: both classes
// group the primary relation by an LHS position set and report
// violations within groups, so the same delta reasoning applies —
// every inserted or deleted TID; updated TIDs whose positions intersect
// LHS ∪ RHS; and the group co-members that keep shrunken or joined
// groups covered on both sides of the batch (see TouchCtx.CoMembers).
func fdTouched(tc *TouchCtx, rel string, lhs, rhs []int) []relation.TID {
	d := tc.Delta(rel)
	if d == nil || d.Empty() {
		return nil
	}
	set := make(map[relation.TID]struct{})
	for _, id := range d.Inserted {
		set[id] = struct{}{}
	}
	for _, id := range d.Deleted {
		set[id] = struct{}{}
	}
	for id := range d.Updated {
		if d.Touches(id, lhs) || d.Touches(id, rhs) {
			set[id] = struct{}{}
		}
	}
	for _, id := range tc.CoMembers(rel, lhs) {
		set[id] = struct{}{}
	}
	if len(set) == 0 {
		return nil
	}
	return sortedTIDs(set)
}

func sortedTIDs(set map[relation.TID]struct{}) []relation.TID {
	if len(set) == 0 {
		return nil
	}
	out := make([]relation.TID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

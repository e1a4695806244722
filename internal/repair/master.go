package repair

import (
	"fmt"
	"sort"

	"repro/internal/cfd"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/relation"
)

// Master-data repair — the Section 5.1 Remark of the paper: instead of
// drawing new values from the active domain, repair against master
// (reference) data, using matching dependencies and relative candidate
// keys to identify which master tuple describes the same real-world
// entity. This combines the object-identification and repairing processes
// in one dependency-based framework, exactly the unification the paper
// calls for ("data repairing and object identification interact with
// each other, and the two processes should be combined").

// MasterReport extends the repair report with matching statistics.
type MasterReport struct {
	UReport
	// Matched counts dirty tuples identified in the master data.
	Matched int
	// Unmatched counts violating tuples with no (or ambiguous) master
	// match, repaired by the consensus heuristic instead.
	Unmatched int
}

// String renders the report.
func (r MasterReport) String() string {
	return fmt.Sprintf("%s; master matches: %d, fallback: %d", r.UReport, r.Matched, r.Unmatched)
}

// RepairWithMaster repairs the instance against Σ using master data: for
// every tuple involved in a violation, the relative keys identify its
// master counterpart (rules are evaluated directly, so they must be
// relative keys — no ⇋ premises); when exactly one master tuple matches,
// the dirty tuple's attributes that exist under the same name in the
// master schema are overwritten from the master. Residual violations
// (unmatched tuples, attributes absent from the master) fall back to the
// consensus heuristic RepairCFDs.
func RepairWithMaster(in *relation.Instance, sigma []*cfd.CFD, master *relation.Instance, keys []*md.MD, opts URepairOptions) (MasterReport, error) {
	var rep MasterReport
	if ok, _ := cfd.Consistent(sigma); !ok {
		return rep, fmt.Errorf("repair: Σ is inconsistent; no repair exists")
	}
	for _, k := range keys {
		if !k.IsRelativeKey() {
			return rep, fmt.Errorf("repair: %v is not a relative key (⇋ premises cannot be evaluated directly)", k)
		}
	}
	// Attribute correspondence by name.
	type pair struct{ dirtyPos, masterPos int }
	var shared []pair
	for i, a := range in.Schema().Attrs() {
		if j, ok := master.Schema().Lookup(a.Name); ok {
			shared = append(shared, pair{i, j})
		}
	}

	// Detect over the instance's cached snapshot: during iterating repair
	// runs the snapshot catches up from the changelog after each in-place
	// Update instead of being re-frozen per call.
	dirtyTIDs := cfd.ViolatingTIDs(detectOn(relation.SnapshotOf(in), sigma, cfd.DetectWithSnapshot))
	masterIDs := master.IDs()
	for _, id := range dirtyTIDs {
		t, ok := in.Tuple(id)
		if !ok {
			continue
		}
		// Collect master tuples matched by any key.
		var matches []relation.TID
		for _, mid := range masterIDs {
			mt, _ := master.Tuple(mid)
			for _, k := range keys {
				if match.EvaluateKey(k, t, mt) {
					matches = append(matches, mid)
					break
				}
			}
		}
		matches = dedupTIDs(matches)
		if len(matches) != 1 {
			rep.Unmatched++
			continue
		}
		rep.Matched++
		mt, _ := master.Tuple(matches[0])
		for _, p := range shared {
			if t[p.dirtyPos].Equal(mt[p.masterPos]) {
				continue
			}
			ch := Change{
				TID: id, Pos: p.dirtyPos,
				From: t[p.dirtyPos], To: mt[p.masterPos],
				Cost: ChangeCost(in, id, p.dirtyPos, mt[p.masterPos]),
			}
			if err := in.Update(id, p.dirtyPos, mt[p.masterPos]); err != nil {
				return rep, fmt.Errorf("repair: %v", err)
			}
			rep.Changes = append(rep.Changes, ch)
		}
	}
	// Residue: consensus repair for whatever master data could not fix.
	ur, err := RepairCFDs(in, sigma, opts)
	rep.Changes = append(rep.Changes, ur.Changes...)
	rep.Passes = ur.Passes
	for _, ch := range rep.Changes {
		rep.Cost += ch.Cost
	}
	if err != nil {
		return rep, err
	}
	return rep, nil
}

func dedupTIDs(ids []relation.TID) []relation.TID {
	seen := make(map[relation.TID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RestoredAccuracy measures repair accuracy against a known ground truth:
// the fraction of cells that differ between dirty and truth which the
// repaired instance restored to the truth value (the paper's "precision
// and recall of repairing" concern). dirty, repaired and truth must share
// TIDs.
func RestoredAccuracy(dirtyBefore, repaired, truth *relation.Instance) (restored, corrupted int) {
	for _, id := range truth.IDs() {
		tt, ok1 := truth.Tuple(id)
		dt, ok2 := dirtyBefore.Tuple(id)
		rt, ok3 := repaired.Tuple(id)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		for p := range tt {
			if dt[p].Equal(tt[p]) {
				continue // was not corrupted
			}
			corrupted++
			if rt[p].Equal(tt[p]) {
				restored++
			}
		}
	}
	return restored, corrupted
}

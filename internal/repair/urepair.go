package repair

import (
	"fmt"
	"sort"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// Heuristic U-repair for CFDs (and hence FDs), following the
// equivalence-class approach of Bohannon et al. (SIGMOD 2005) extended to
// pattern tableaux as in Cong et al. (VLDB 2007), with the Section 5.1
// weighted cost metric: resolve each violating LHS-group by rewriting RHS
// values to the cost-minimizing consensus (or the pattern constant when a
// row demands one), and escape contradictory pattern demands by modifying
// an LHS attribute away from the pattern. The algorithm always terminates
// (passes are capped) and either returns a Σ-satisfying instance or an
// explicit error; it does not guarantee cost optimality (the problem is
// NP-complete, Theorem 5.1).

// URepairOptions configures the heuristic.
type URepairOptions struct {
	// MaxPasses caps full detect-and-fix sweeps (default 50).
	MaxPasses int
}

// UReport describes a completed repair.
type UReport struct {
	Changes []Change
	Passes  int
	// Cost is the total weighted cost of all changes.
	Cost float64
}

// String renders a summary.
func (r UReport) String() string {
	return fmt.Sprintf("repair: %d changes over %d passes, cost %.3f", len(r.Changes), r.Passes, r.Cost)
}

// RepairCFDs repairs the instance in place until it satisfies Σ.
func RepairCFDs(in *relation.Instance, sigma []*cfd.CFD, opts URepairOptions) (UReport, error) {
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 50
	}
	if ok, _ := cfd.Consistent(sigma); !ok {
		return UReport{}, fmt.Errorf("repair: Σ is inconsistent; no repair exists")
	}
	norm := cfd.NormalizeSet(sigma)
	var report UReport
	// touch counts modifications per cell; a cell rewritten repeatedly is
	// caught between contradictory pattern demands and must escape via
	// its LHS instead (the Cong et al. move).
	touch := make(map[[2]int64]int)
	for pass := 1; pass <= opts.MaxPasses; pass++ {
		report.Passes = pass
		changed := false
		for _, c := range norm {
			chs, err := repairOne(in, c, touch)
			if err != nil {
				return report, err
			}
			if len(chs) > 0 {
				changed = true
				report.Changes = append(report.Changes, chs...)
			}
		}
		if !changed {
			// The snapshot behind satisfiesOn catches up from the
			// changelog across passes (each pass's Updates are a small
			// delta), so per-pass checking is incremental, not a re-freeze.
			if !satisfiesOn(relation.SnapshotOf(in), sigma) {
				return report, fmt.Errorf("repair: fixpoint reached but Σ still violated")
			}
			for _, ch := range report.Changes {
				report.Cost += ch.Cost
			}
			return report, nil
		}
	}
	if satisfiesOn(relation.SnapshotOf(in), sigma) {
		for _, ch := range report.Changes {
			report.Cost += ch.Cost
		}
		return report, nil
	}
	return report, fmt.Errorf("repair: no fixpoint within %d passes", opts.MaxPasses)
}

// thrashLimit is the number of rewrites of one cell after which the
// repair bends the tuple's LHS away from the pattern instead of touching
// the RHS again (breaking oscillation between contradictory demands).
const thrashLimit = 3

// repairOne fixes all current violations of one normal-form CFD.
func repairOne(in *relation.Instance, c *cfd.CFD, touch map[[2]int64]int) ([]Change, error) {
	row := c.Tableau()[0]
	rhsPos := c.RHS()[0]
	rhsCell := row.RHS[0]
	lhsPos := c.LHS()

	matchLHS := func(t relation.Tuple) bool {
		for j, p := range lhsPos {
			if !row.LHS[j].Matches(t[p]) {
				return false
			}
		}
		return true
	}

	// Group matching tuples by LHS value.
	groups := make(map[string][]relation.TID)
	for _, id := range in.IDs() {
		t, _ := in.Tuple(id)
		if matchLHS(t) {
			groups[t.KeyOn(lhsPos)] = append(groups[t.KeyOn(lhsPos)], id)
		}
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []Change
	for _, k := range keys {
		ids := groups[k]
		target, needEscape := chooseTarget(in, ids, rhsPos, rhsCell)
		if needEscape {
			// The pattern demands an RHS constant that conflicts with
			// another demand (detected upstream as an unsatisfiable
			// group); escape by bending one LHS constant cell away from
			// the pattern. This arises only when Σ's rows disagree, which
			// consistency pre-checking makes rare.
			ch, err := escapeLHS(in, ids[0], c)
			if err != nil {
				return out, err
			}
			out = append(out, ch)
			continue
		}
		for _, id := range ids {
			t, _ := in.Tuple(id)
			if t[rhsPos].Equal(target) {
				continue
			}
			cell := [2]int64{int64(id), int64(rhsPos)}
			if touch[cell] >= thrashLimit {
				ch, err := escapeLHS(in, id, c)
				if err != nil {
					return out, err
				}
				out = append(out, ch)
				continue
			}
			touch[cell]++
			ch := Change{TID: id, Pos: rhsPos, From: t[rhsPos], To: target,
				Cost: ChangeCost(in, id, rhsPos, target)}
			if err := in.Update(id, rhsPos, target); err != nil {
				return out, fmt.Errorf("repair: %v", err)
			}
			out = append(out, ch)
		}
	}
	return out, nil
}

// chooseTarget picks the consensus RHS value for a violating group: the
// pattern constant when the row demands one, else the cost-minimizing
// existing value (the weighted-plurality vote of Bohannon et al.).
func chooseTarget(in *relation.Instance, ids []relation.TID, rhsPos int, rhsCell cfd.Cell) (relation.Value, bool) {
	if !rhsCell.IsWildcard() {
		want := rhsCell.Value()
		if !in.Schema().Attr(rhsPos).Domain.Contains(want) {
			return relation.Value{}, true
		}
		return want, false
	}
	// Candidates: the distinct values present in the group; cost of a
	// candidate = sum of weighted distances from every member.
	type cand struct {
		v    relation.Value
		cost float64
		key  string
	}
	var cands []cand
	seen := make(map[string]bool)
	for _, id := range ids {
		t, _ := in.Tuple(id)
		if k := t[rhsPos].Key(); !seen[k] {
			seen[k] = true
			cands = append(cands, cand{v: t[rhsPos], key: k})
		}
	}
	for i := range cands {
		for _, id := range ids {
			cands[i].cost += ChangeCost(in, id, rhsPos, cands[i].v)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].key < cands[j].key
	})
	return cands[0].v, false
}

// escapeLHS modifies one constant-pattern LHS attribute of the tuple so
// it no longer matches the row's pattern.
func escapeLHS(in *relation.Instance, id relation.TID, c *cfd.CFD) (Change, error) {
	row := c.Tableau()[0]
	for j, p := range c.LHS() {
		cell := row.LHS[j]
		if cell.IsWildcard() {
			continue
		}
		t, _ := in.Tuple(id)
		escape, err := escapeValue(in.Schema().Attr(p), cell.Value())
		if err != nil {
			continue
		}
		ch := Change{TID: id, Pos: p, From: t[p], To: escape, Cost: ChangeCost(in, id, p, escape)}
		if err := in.Update(id, p, escape); err != nil {
			continue
		}
		return ch, nil
	}
	return Change{}, fmt.Errorf("repair: tuple %d cannot escape pattern of %v", id, c)
}

// escapeValue produces a value of the attribute's domain different from
// avoid.
func escapeValue(a relation.Attribute, avoid relation.Value) (relation.Value, error) {
	if a.Domain.Finite() {
		for _, v := range a.Domain.Values() {
			if !v.Equal(avoid) {
				return v, nil
			}
		}
		return relation.Value{}, fmt.Errorf("repair: domain of %s has a single value", a.Name)
	}
	switch a.Domain.Kind() {
	case relation.KindString:
		return relation.Str(avoid.StrVal() + "′"), nil
	case relation.KindInt:
		return relation.Int(avoid.IntVal() + 1), nil
	case relation.KindFloat:
		return relation.Float(avoid.FloatVal() + 1), nil
	case relation.KindBool:
		return relation.Bool(!avoid.BoolVal()), nil
	default:
		return relation.Value{}, fmt.Errorf("repair: cannot escape kind %v", a.Domain.Kind())
	}
}

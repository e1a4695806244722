package cfd

import (
	"repro/internal/relation"
)

// Incremental violation detection — the natural extension the paper's
// program implies (and that follow-on work formalized): after a batch of
// updates, only the LHS groups touching a changed tuple can gain or lose
// violations, so detection restricted to those groups is complete for the
// delta.

// DetectTouched returns the violations of the CFD whose witnesses involve
// at least one of the touched tuples: single-tuple violations of touched
// tuples, and pair violations within any LHS group containing a touched
// tuple (reported against the group representative, like Detect). The
// result is exactly Detect(in, c) filtered to groups touching the set —
// at the cost of the touched groups only.
func DetectTouched(in *relation.Instance, c *CFD, touched []relation.TID) []Violation {
	ix := relation.BuildIndex(in, c.lhs)
	var out []Violation

	for rowIdx, row := range c.tableau {
		matchLHS := func(t relation.Tuple) bool {
			for j, p := range c.lhs {
				if !row.LHS[j].Matches(t[p]) {
					return false
				}
			}
			return true
		}
		// Single-tuple checks on the touched tuples only.
		hasRHSConst := false
		for _, cell := range row.RHS {
			if !cell.IsWildcard() {
				hasRHSConst = true
				break
			}
		}
		if hasRHSConst {
			for _, id := range touched {
				t, ok := in.Tuple(id)
				if !ok || !matchLHS(t) {
					continue
				}
				for j, p := range c.rhs {
					if !row.RHS[j].Matches(t[p]) {
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: SingleTuple, T1: id, T2: id, Attr: p})
					}
				}
			}
		}
		// Pair checks on the groups of the touched tuples.
		seenGroups := make(map[string]bool)
		for _, id := range touched {
			t, ok := in.Tuple(id)
			if !ok {
				continue
			}
			key := t.KeyOn(c.lhs)
			if seenGroups[key] {
				continue
			}
			seenGroups[key] = true
			gids := ix.LookupKey(key)
			if len(gids) < 2 {
				continue
			}
			rep, _ := in.Tuple(gids[0])
			if !matchLHS(rep) {
				continue
			}
			for _, gid := range gids[1:] {
				gt, _ := in.Tuple(gid)
				for _, p := range c.rhs {
					if !gt[p].Equal(rep[p]) {
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: TuplePair, T1: gids[0], T2: gid, Attr: p})
					}
				}
			}
		}
	}
	sortDetectOrder(out)
	return out
}

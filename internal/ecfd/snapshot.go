package ecfd

import (
	"repro/internal/relation"
)

// Snapshot-backed eCFD violation detection: the columnar fast path of
// the detection engine. One body, detectSnap, runs over a
// relation.Scope — every row for the full entry points, the rows of a
// touched TID list for DetectTouchedWithSnapshot — with the same
// violations in the same (Row, T1, T2, Attr) order as the string-keyed
// detector.
//
// Set cells compile to dictionary code sets once per tableau row
// (relation.CompileSet): membership of a data value in "∈ S" / "∉ S"
// becomes a scan of a handful of codes instead of Value.Equal calls per
// member, and members that never occur in the column are dropped, so an
// emptied ∈ set prunes the row and an emptied ∉ set matches every
// tuple. LHS matching and the single-tuple RHS membership checks run on
// hoisted code columns over the scope's rows; the pair checks on
// wildcard RHS attributes walk the LHS groups the scope reaches and
// compare frozen tuples with Value.Equal, exactly like cfd, since LHS
// groups are overwhelmingly small.

// SatisfiesWithSnapshot is Satisfies on the columnar path.
func SatisfiesWithSnapshot(snap *relation.Snapshot, e *ECFD, cx *relation.CodeIndex) bool {
	return len(detectSnap(snap, e, cx, relation.FullScope(snap), true)) == 0
}

// DetectWithSnapshot is Detect on the columnar path: all violations of
// the eCFD in the snapshotted instance, sorted by (Row, T1, T2, Attr),
// byte-identical to the string-keyed detector.
func DetectWithSnapshot(snap *relation.Snapshot, e *ECFD, cx *relation.CodeIndex) []Violation {
	return detectSnap(snap, e, cx, relation.FullScope(snap), false)
}

// DetectTouchedWithSnapshot returns the violations of e whose witnesses
// involve at least one touched tuple, in (Row, T1, T2, Attr) order —
// the incremental entry point: single-tuple checks on the touched
// tuples, pair checks on their LHS groups (each group once, against
// its representative). Touched TIDs missing from the snapshot are
// skipped.
func DetectTouchedWithSnapshot(snap *relation.Snapshot, e *ECFD, cx *relation.CodeIndex, touched []relation.TID) []Violation {
	return detectSnap(snap, e, cx, relation.TouchedScope(snap, touched), false)
}

// detectSnap is the one columnar eCFD detection body over the rows of
// sc. cx is validated against the LHS positions and rebuilt when it
// does not fit (or is nil).
func detectSnap(snap *relation.Snapshot, e *ECFD, cx *relation.CodeIndex, sc relation.Scope, firstOnly bool) []Violation {
	cx = relation.IndexFor(snap, e.lhs, cx)
	var out []Violation
	for rowIdx, row := range e.tableau {
		lhs := relation.NewPattern(snap, e.lhs, compileSets(snap, e.lhs, row.LHS))
		if lhs.Dead() {
			continue // some ∈ cell lost every member: no tuple matches
		}
		// Single-tuple violations against non-wildcard RHS cells.
		hasRHSCond := false
		for _, c := range row.RHS {
			if c.op != OpAny {
				hasRHSCond = true
				break
			}
		}
		if hasRHSCond {
			rhs := compileSets(snap, e.rhs, row.RHS)
			rhsCols := make([][]uint32, len(e.rhs))
			for j, p := range e.rhs {
				rhsCols[j] = snap.Col(p)
			}
			for i := 0; i < sc.Len(); i++ {
				r := sc.Row(i)
				if !lhs.Match(r) {
					continue
				}
				for j, p := range e.rhs {
					if !rhs[j].Matches(rhsCols[j][r]) {
						id := snap.TID(r)
						out = append(out, Violation{ECFD: e, Row: rowIdx, T1: id, T2: id, Attr: p})
						if firstOnly {
							return out
						}
					}
				}
			}
		}
		// Pair violations within LHS-equal groups matching the pattern:
		// the functional requirement applies to wildcard RHS cells only.
		var eqPos []int
		for j, p := range e.rhs {
			if row.RHS[j].op == OpAny {
				eqPos = append(eqPos, p)
			}
		}
		if len(eqPos) == 0 {
			continue
		}
		sc.GroupsWhile(cx, 2, func(rows []int32) bool {
			rep := int(rows[0])
			if !lhs.Match(rep) {
				return true // the whole group shares the LHS, so one check suffices
			}
			trep := snap.TupleAt(rep)
			repID := snap.TID(rep)
			for _, r := range rows[1:] {
				t := snap.TupleAt(int(r))
				for _, p := range eqPos {
					if !t[p].Equal(trep[p]) {
						out = append(out, Violation{ECFD: e, Row: rowIdx, T1: repID, T2: snap.TID(int(r)), Attr: p})
						if firstOnly {
							return false
						}
					}
				}
			}
			return true
		})
		if firstOnly && len(out) > 0 {
			return out
		}
	}
	sortDetectOrder(out)
	return out
}

// compileSets compiles pattern cells against the dictionaries of their
// attribute positions.
func compileSets(snap *relation.Snapshot, pos []int, cells []Cell) []relation.CodeSet {
	out := make([]relation.CodeSet, len(cells))
	for j, cell := range cells {
		out[j] = relation.CompileSet(snap, pos[j], cell.op, cell.set...)
	}
	return out
}

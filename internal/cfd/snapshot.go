package cfd

import (
	"repro/internal/relation"
)

// Snapshot-backed violation detection: the columnar fast path of the
// detection engine. One body, detectSnap, runs over a relation.Scope —
// every row for the full entry points, the rows of a touched TID list
// for DetectTouchedWithSnapshot — and mirrors the string-keyed
// detectors exactly: same violations, same order.
//
// Grouping and LHS pattern matching run entirely on dictionary codes:
// pattern constants compile to codes once per tableau row
// (relation.CompileSet, a constant being the singleton ∈ set), matching
// is an integer compare against a hoisted column, and a constant
// missing from its column prunes the whole pattern row. Single-tuple
// checks walk the scope's rows; pair checks walk the LHS groups the
// scope reaches. RHS agreement checks within a group read the frozen
// tuple array directly: LHS groups are overwhelmingly small, so
// interning a high-cardinality RHS column for a handful of comparisons
// would cost more than the Value.Equal calls it replaces.
//
// The string-keyed path (Detect, DetectAll, DetectTouched, ...) remains
// the reference; randomized tests here and in internal/detect assert
// byte-identical output between the two.

// SatisfiesWithSnapshot is Satisfies on the columnar path.
func SatisfiesWithSnapshot(snap *relation.Snapshot, c *CFD, cx *relation.CodeIndex) bool {
	return len(detectSnap(snap, c, cx, relation.FullScope(snap), modeFirstOnly)) == 0
}

// DetectWithSnapshot is Detect on the columnar path: all
// violations of the CFD in the snapshotted instance, sorted by
// (Row, T1, T2, Attr), pair violations against the group representative.
func DetectWithSnapshot(snap *relation.Snapshot, c *CFD, cx *relation.CodeIndex) []Violation {
	return detectSnap(snap, c, cx, relation.FullScope(snap), modeRepresentative)
}

// DetectExhaustiveWithSnapshot is DetectExhaustiveWithIndex on the
// columnar path: every pair of group members disagreeing on an RHS
// attribute, pairs oriented T1 < T2.
func DetectExhaustiveWithSnapshot(snap *relation.Snapshot, c *CFD, cx *relation.CodeIndex) []Violation {
	return detectSnap(snap, c, cx, relation.FullScope(snap), modeExhaustive)
}

// DetectTouchedWithSnapshot is DetectTouched on the columnar path:
// violations whose witnesses involve at least one touched tuple.
// Touched TIDs missing from the snapshot (deleted, or inserted after the
// snapshot was built) are skipped, like TIDs missing from the instance
// on the string-keyed path.
func DetectTouchedWithSnapshot(snap *relation.Snapshot, c *CFD, cx *relation.CodeIndex, touched []relation.TID) []Violation {
	return detectSnap(snap, c, cx, relation.TouchedScope(snap, touched), modeRepresentative)
}

// detectSnap is the one columnar CFD detection body, the port of detect
// over the rows of sc. cx is validated against the LHS positions and
// rebuilt when it does not fit (or is nil).
func detectSnap(snap *relation.Snapshot, c *CFD, cx *relation.CodeIndex, sc relation.Scope, mode detectMode) []Violation {
	cx = relation.IndexFor(snap, c.lhs, cx)
	var out []Violation
	for rowIdx, row := range c.tableau {
		lhs := relation.NewPattern(snap, c.lhs, compileCells(snap, c.lhs, row.LHS))
		if lhs.Dead() {
			// Some LHS constant never occurs in its column: t[X] ≍ tp[X]
			// holds for no tuple, so this pattern row yields nothing.
			continue
		}
		// Single-tuple violations: constant RHS cells must bind.
		hasRHSConst := false
		for _, cell := range row.RHS {
			if !cell.IsWildcard() {
				hasRHSConst = true
				break
			}
		}
		if hasRHSConst {
			for i := 0; i < sc.Len(); i++ {
				r := sc.Row(i)
				if !lhs.Match(r) {
					continue
				}
				t := snap.TupleAt(r)
				for j, p := range c.rhs {
					if !row.RHS[j].Matches(t[p]) {
						id := snap.TID(r)
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: SingleTuple, T1: id, T2: id, Attr: p})
						if mode == modeFirstOnly {
							return out
						}
					}
				}
			}
		}
		// Pair violations: within each LHS-equal group matching the
		// pattern, all tuples must agree on every RHS attribute.
		sc.GroupsWhile(cx, 2, func(rows []int32) bool {
			rep := int(rows[0])
			if !lhs.Match(rep) {
				return true // the whole group shares the LHS, so one check suffices
			}
			if mode == modeExhaustive {
				for i, r1 := range rows {
					t1 := snap.TupleAt(int(r1))
					for _, r2 := range rows[i+1:] {
						t2 := snap.TupleAt(int(r2))
						for _, p := range c.rhs {
							if !t1[p].Equal(t2[p]) {
								out = append(out, Violation{CFD: c, Row: rowIdx, Kind: TuplePair,
									T1: snap.TID(int(r1)), T2: snap.TID(int(r2)), Attr: p})
							}
						}
					}
				}
				return true
			}
			trep := snap.TupleAt(rep)
			repID := snap.TID(rep)
			for _, r := range rows[1:] {
				t := snap.TupleAt(int(r))
				for _, p := range c.rhs {
					if !t[p].Equal(trep[p]) {
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: TuplePair,
							T1: repID, T2: snap.TID(int(r)), Attr: p})
						if mode == modeFirstOnly {
							return false
						}
					}
				}
			}
			return true
		})
		if mode == modeFirstOnly && len(out) > 0 {
			return out
		}
	}
	sortDetectOrder(out)
	return out
}

// compileCells compiles pattern cells against the dictionaries of their
// attribute positions: a constant is the singleton ∈ set, a wildcard
// the zero CodeSet.
func compileCells(snap *relation.Snapshot, pos []int, cells []Cell) []relation.CodeSet {
	out := make([]relation.CodeSet, len(cells))
	for j, cell := range cells {
		if !cell.IsWildcard() {
			out[j] = relation.CompileSet(snap, pos[j], relation.SetIn, cell.Value())
		}
	}
	return out
}

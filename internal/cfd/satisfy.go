package cfd

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/relation"
)

// ViolationKind distinguishes the two ways a tuple (pair) can violate a
// CFD, mirroring the two detection queries of Fan et al.: a single tuple
// matching the LHS pattern but clashing with an RHS constant, or a pair of
// tuples agreeing on (and matching) the LHS but disagreeing on the RHS.
type ViolationKind uint8

// The violation kinds.
const (
	// SingleTuple: t[X] ≍ tp[X] but t[Y] ̸≍ tp[Y] (constant clash).
	SingleTuple ViolationKind = iota
	// TuplePair: t1[X] = t2[X] ≍ tp[X] but t1[Y] ≠ t2[Y].
	TuplePair
)

// String names the kind.
func (k ViolationKind) String() string {
	if k == SingleTuple {
		return "single-tuple"
	}
	return "tuple-pair"
}

// Violation records one detected CFD violation.
type Violation struct {
	CFD  *CFD
	Row  int // index into the tableau
	Kind ViolationKind
	T1   relation.TID // offending tuple
	T2   relation.TID // second tuple for TuplePair (== T1 otherwise)
	Attr int          // schema position of the clashing RHS attribute
}

// String renders the violation for reports.
func (v Violation) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends String's rendering to dst — the form for reports
// that render violations by the ten thousand:
//
//	rel: tuple T1 violates row R on attr
//	rel: tuples T1,T2 violate row R on attr
func (v Violation) AppendTo(dst []byte) []byte {
	dst = append(dst, v.CFD.Schema().Name()...)
	if v.Kind == SingleTuple {
		dst = append(dst, ": tuple "...)
		dst = strconv.AppendInt(dst, int64(v.T1), 10)
		dst = append(dst, " violates row "...)
	} else {
		dst = append(dst, ": tuples "...)
		dst = strconv.AppendInt(dst, int64(v.T1), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(v.T2), 10)
		dst = append(dst, " violate row "...)
	}
	dst = strconv.AppendInt(dst, int64(v.Row), 10)
	dst = append(dst, " on "...)
	return append(dst, v.CFD.Schema().Attr(v.Attr).Name...)
}

// Satisfies reports whether the instance satisfies the CFD (D ⊨ ϕ).
func Satisfies(in *relation.Instance, c *CFD) bool {
	return SatisfiesWithIndex(in, c, relation.BuildIndex(in, c.lhs))
}

// SatisfiesWithIndex is Satisfies over a caller-supplied LHS index,
// letting batch engines build the index once and share it across every
// CFD (and tableau row) with the same LHS position set.
func SatisfiesWithIndex(in *relation.Instance, c *CFD, ix *relation.Index) bool {
	return len(detect(in, c, lhsIndex(in, c, ix), modeFirstOnly)) == 0
}

// SatisfiesAll reports whether the instance satisfies every CFD in the set
// (D ⊨ Σ).
func SatisfiesAll(in *relation.Instance, set []*CFD) bool {
	for _, c := range set {
		if !Satisfies(in, c) {
			return false
		}
	}
	return true
}

// Detect returns all violations of the CFD in the instance, sorted by
// (Row, T1, T2, Attr). Pair violations are reported once per offending
// tuple against a representative of its LHS group (linear in the group
// size rather than quadratic), which is sufficient to locate every dirty
// tuple.
func Detect(in *relation.Instance, c *CFD) []Violation {
	return DetectWithIndex(in, c, relation.BuildIndex(in, c.lhs))
}

// DetectWithIndex is Detect over a caller-supplied index on the CFD's LHS
// positions; if the index was built on different positions it is rebuilt.
// The engine in internal/detect uses this entry point to share one index
// across all CFDs grouped on the same LHS position set.
func DetectWithIndex(in *relation.Instance, c *CFD, ix *relation.Index) []Violation {
	return detect(in, c, lhsIndex(in, c, ix), modeRepresentative)
}

// lhsIndex validates that ix is an index on c's LHS positions, rebuilding
// it when it is not (or is nil).
func lhsIndex(in *relation.Instance, c *CFD, ix *relation.Index) *relation.Index {
	if ix == nil || !slices.Equal(ix.Positions(), c.lhs) {
		return relation.BuildIndex(in, c.lhs)
	}
	return ix
}

// DetectAll runs Detect for every CFD in the set and returns the combined
// violations in deterministic order (see SortViolations).
func DetectAll(in *relation.Instance, set []*CFD) []Violation {
	var out []Violation
	for _, c := range set {
		out = append(out, Detect(in, c)...)
	}
	SortViolations(out)
	return out
}

// SortViolations sorts a combined violation slice into the canonical
// reporting order: (T1, T2, Attr, Row), stably, so violations of distinct
// CFDs that tie on all four keys keep the Σ order they were gathered in.
// Both DetectAll and the parallel engine in internal/detect merge through
// this comparator, which is what makes their outputs identical.
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].T1 != vs[j].T1 {
			return vs[i].T1 < vs[j].T1
		}
		if vs[i].T2 != vs[j].T2 {
			return vs[i].T2 < vs[j].T2
		}
		if vs[i].Attr != vs[j].Attr {
			return vs[i].Attr < vs[j].Attr
		}
		return vs[i].Row < vs[j].Row
	})
}

// DetectExhaustiveWithIndex is DetectWithIndex with exhaustive pair
// reporting: where Detect reports each offending tuple once against its
// group representative (linear in the group size, sufficient to locate
// every dirty tuple), this variant emits a violation for every pair of
// group members disagreeing on an RHS attribute (quadratic in the group
// size). Conflict hypergraphs need the exhaustive form — with only
// representative pairs, deleting the representative would disconnect
// tuples that still conflict with each other. Output is sorted like
// Detect, with pairs oriented T1 < T2.
func DetectExhaustiveWithIndex(in *relation.Instance, c *CFD, ix *relation.Index) []Violation {
	return detect(in, c, lhsIndex(in, c, ix), modeExhaustive)
}

// detectMode selects how detect reports pair violations.
type detectMode uint8

const (
	// modeRepresentative reports each offending tuple once against its
	// group representative — linear in the group size, enough to locate
	// every dirty tuple.
	modeRepresentative detectMode = iota
	// modeFirstOnly stops at the first violation (satisfaction checking).
	modeFirstOnly
	// modeExhaustive reports every pair of group members disagreeing on
	// an RHS attribute (pairs oriented T1 < T2) — quadratic in the group
	// size, required for complete conflict hypergraphs, where
	// representative-only pairs would disconnect tuples that still
	// conflict with each other.
	modeExhaustive
)

// detect implements violation detection over a prebuilt LHS index.
func detect(in *relation.Instance, c *CFD, ix *relation.Index, mode detectMode) []Violation {
	var out []Violation
	ids := in.IDs()

	for rowIdx, row := range c.tableau {
		// Single-tuple violations: constant RHS cells must bind.
		hasRHSConst := false
		for _, cell := range row.RHS {
			if !cell.IsWildcard() {
				hasRHSConst = true
				break
			}
		}
		matchLHS := func(t relation.Tuple) bool {
			for j, p := range c.lhs {
				if !row.LHS[j].Matches(t[p]) {
					return false
				}
			}
			return true
		}
		if hasRHSConst {
			for _, id := range ids {
				t, _ := in.Tuple(id)
				if !matchLHS(t) {
					continue
				}
				for j, p := range c.rhs {
					if !row.RHS[j].Matches(t[p]) {
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: SingleTuple, T1: id, T2: id, Attr: p})
						if mode == modeFirstOnly {
							return out
						}
					}
				}
			}
		}
		// Pair violations: within each LHS-equal group of tuples matching
		// the pattern, all tuples must agree on every RHS attribute.
		ix.GroupsWhile(2, func(_ string, gids []relation.TID) bool {
			rep, _ := in.Tuple(gids[0])
			if !matchLHS(rep) {
				return true // the whole group shares the LHS, so one check suffices
			}
			if mode == modeExhaustive {
				for i, id1 := range gids {
					t1, _ := in.Tuple(id1)
					for _, id2 := range gids[i+1:] {
						t2, _ := in.Tuple(id2)
						for _, p := range c.rhs {
							if !t1[p].Equal(t2[p]) {
								out = append(out, Violation{CFD: c, Row: rowIdx, Kind: TuplePair, T1: id1, T2: id2, Attr: p})
							}
						}
					}
				}
				return true
			}
			for _, id := range gids[1:] {
				t, _ := in.Tuple(id)
				for _, p := range c.rhs {
					if !t[p].Equal(rep[p]) {
						out = append(out, Violation{CFD: c, Row: rowIdx, Kind: TuplePair, T1: gids[0], T2: id, Attr: p})
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

// sortDetectOrder sorts one CFD's violations into the canonical per-CFD
// order (Row, T1, T2, Attr); Index.Groups iterates buckets in map order,
// so Detect would otherwise be nondeterministic on its own, not only
// before DetectAll's global merge.
func sortDetectOrder(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Row != vs[j].Row {
			return vs[i].Row < vs[j].Row
		}
		if vs[i].T1 != vs[j].T1 {
			return vs[i].T1 < vs[j].T1
		}
		if vs[i].T2 != vs[j].T2 {
			return vs[i].T2 < vs[j].T2
		}
		return vs[i].Attr < vs[j].Attr
	})
}

// ViolatingTIDs returns the distinct TIDs involved in any violation, in
// ascending order; a convenience for repair algorithms.
func ViolatingTIDs(vs []Violation) []relation.TID {
	seen := make(map[relation.TID]bool)
	for _, v := range vs {
		seen[v.T1] = true
		seen[v.T2] = true
	}
	out := make([]relation.TID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

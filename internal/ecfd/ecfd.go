// Package ecfd implements extended conditional functional dependencies
// (eCFDs) from Section 2.3 of Fan (PODS 2008), following Bravo, Fan,
// Geerts and Ma (ICDE 2008): pattern cells generalize from constants and
// '_' to membership constraints "∈ S" (disjunction) and "∉ S"
// (inequality). The paper's examples:
//
//	ecfd1: CT ∉ {NYC, LI} → AC        (the FD CT → AC holds off NYC/LI)
//	ecfd2: CT ∈ {NYC} → AC ∈ {212, 718, 646, 347, 917}
//
// Satisfaction: for every pattern row tp and tuples t1, t2 with
// t1[X] = t2[X] matching tp[X], each RHS attribute B must satisfy
//
//   - t1[B] = t2[B] when tp[B] is '_' (the functional requirement), and
//   - t1[B], t2[B] match tp[B] when tp[B] is a set cell (membership only).
//
// Set-valued RHS cells deliberately do not impose equality: the paper's
// ecfd2 constrains NYC area codes to a five-element set while NYC
// legitimately has several area codes (that is exactly why ecfd1 excludes
// NYC from the FD). Singleton "∈ {c}" cells force both tuples to equal c,
// so the CFD fragment keeps its original semantics. Theorem 4.4:
// consistency and implication stay NP-complete and coNP-complete — and
// remain so even without finite-domain attributes, because "∈ S" cells
// force finite behaviour by themselves.
package ecfd

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cfd"
	"repro/internal/relation"
)

// CellOp distinguishes the three eCFD pattern cell forms. It is the
// form relation.CompileSet compiles, so a cell compiles as it stands.
type CellOp = relation.SetOp

// The cell operators.
const (
	OpAny   = relation.SetAny   // '_': matches every value
	OpIn    = relation.SetIn    // ∈ S
	OpNotIn = relation.SetNotIn // ∉ S
)

// Cell is one eCFD pattern entry.
type Cell struct {
	op  CellOp
	set []relation.Value
}

// Any returns the wildcard cell.
func Any() Cell { return Cell{op: OpAny} }

// In returns the cell "∈ {values...}".
func In(values ...relation.Value) Cell {
	return Cell{op: OpIn, set: dedup(values)}
}

// NotIn returns the cell "∉ {values...}".
func NotIn(values ...relation.Value) Cell {
	return Cell{op: OpNotIn, set: dedup(values)}
}

// Const returns the CFD-style constant cell, i.e. In(v).
func Const(v relation.Value) Cell { return In(v) }

func dedup(values []relation.Value) []relation.Value {
	seen := make(map[string]bool, len(values))
	out := make([]relation.Value, 0, len(values))
	for _, v := range values {
		if k := v.Key(); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// Op returns the cell operator.
func (c Cell) Op() CellOp { return c.op }

// Set returns the cell's value set (nil for '_'). Not to be modified.
func (c Cell) Set() []relation.Value { return c.set }

// Matches reports whether value v satisfies the cell constraint.
func (c Cell) Matches(v relation.Value) bool {
	switch c.op {
	case OpAny:
		return true
	case OpIn:
		return contains(c.set, v)
	default:
		return !contains(c.set, v)
	}
}

func contains(set []relation.Value, v relation.Value) bool {
	for _, w := range set {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// String renders the cell.
func (c Cell) String() string {
	switch c.op {
	case OpAny:
		return "_"
	case OpIn:
		if len(c.set) == 1 {
			return c.set[0].String()
		}
		return "in" + setString(c.set)
	default:
		return "notin" + setString(c.set)
	}
}

func setString(set []relation.Value) string {
	parts := make([]string, len(set))
	for i, v := range set {
		parts[i] = v.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// Row is one eCFD pattern row.
type Row struct {
	LHS []Cell
	RHS []Cell
}

// ECFD is an extended CFD R(X → Y, Tp) with generalized pattern cells.
type ECFD struct {
	schema  *relation.Schema
	lhs     []int
	rhs     []int
	tableau []Row
}

// New builds an eCFD; validation mirrors cfd.New.
func New(schema *relation.Schema, lhs, rhs []string, rows ...Row) (*ECFD, error) {
	if len(rhs) == 0 {
		return nil, fmt.Errorf("ecfd: %s: empty RHS", schema.Name())
	}
	lp, err := schema.Positions(lhs)
	if err != nil {
		return nil, fmt.Errorf("ecfd: %v", err)
	}
	rp, err := schema.Positions(rhs)
	if err != nil {
		return nil, fmt.Errorf("ecfd: %v", err)
	}
	e := &ECFD{schema: schema, lhs: lp, rhs: rp}
	for i, r := range rows {
		if len(r.LHS) != len(lp) || len(r.RHS) != len(rp) {
			return nil, fmt.Errorf("ecfd: %s row %d: pattern arity mismatch", schema.Name(), i)
		}
		check := func(cells []Cell, pos []int) error {
			for j, cell := range cells {
				for _, v := range cell.set {
					if !schema.Attr(pos[j]).Domain.Contains(v) {
						return fmt.Errorf("ecfd: %s row %d: %v not in dom(%s)", schema.Name(), i, v, schema.Attr(pos[j]).Name)
					}
				}
				if cell.op == OpIn && len(cell.set) == 0 {
					return fmt.Errorf("ecfd: %s row %d: empty ∈ set", schema.Name(), i)
				}
			}
			return nil
		}
		if err := check(r.LHS, lp); err != nil {
			return nil, err
		}
		if err := check(r.RHS, rp); err != nil {
			return nil, err
		}
		e.tableau = append(e.tableau, Row{
			LHS: append([]Cell(nil), r.LHS...),
			RHS: append([]Cell(nil), r.RHS...),
		})
	}
	return e, nil
}

// MustNew is New that panics on error.
func MustNew(schema *relation.Schema, lhs, rhs []string, rows ...Row) *ECFD {
	e, err := New(schema, lhs, rhs, rows...)
	if err != nil {
		panic(err)
	}
	return e
}

// FromCFD lifts a CFD into the eCFD language (constants become singleton
// ∈ sets). Every CFD is an eCFD.
func FromCFD(c *cfd.CFD) *ECFD {
	lift := func(cells []cfd.Cell) []Cell {
		out := make([]Cell, len(cells))
		for i, cl := range cells {
			if cl.IsWildcard() {
				out[i] = Any()
			} else {
				out[i] = Const(cl.Value())
			}
		}
		return out
	}
	e := &ECFD{
		schema: c.Schema(),
		lhs:    append([]int(nil), c.LHS()...),
		rhs:    append([]int(nil), c.RHS()...),
	}
	for _, r := range c.Tableau() {
		e.tableau = append(e.tableau, Row{LHS: lift(r.LHS), RHS: lift(r.RHS)})
	}
	return e
}

// Schema returns the schema the eCFD is defined on.
func (e *ECFD) Schema() *relation.Schema { return e.schema }

// LHS returns the X attribute positions.
func (e *ECFD) LHS() []int { return e.lhs }

// RHS returns the Y attribute positions.
func (e *ECFD) RHS() []int { return e.rhs }

// Tableau returns the pattern rows (not to be modified).
func (e *ECFD) Tableau() []Row { return e.tableau }

// String renders the eCFD.
func (e *ECFD) String() string {
	names := func(pos []int) string {
		parts := make([]string, len(pos))
		for i, p := range pos {
			parts[i] = e.schema.Attr(p).Name
		}
		return strings.Join(parts, ", ")
	}
	rows := make([]string, len(e.tableau))
	for i, r := range e.tableau {
		l := make([]string, len(r.LHS))
		for j, c := range r.LHS {
			l[j] = c.String()
		}
		rr := make([]string, len(r.RHS))
		for j, c := range r.RHS {
			rr[j] = c.String()
		}
		rows[i] = strings.Join(l, ", ") + " || " + strings.Join(rr, ", ")
	}
	return fmt.Sprintf("%s([%s] -> [%s], {%s})", e.schema.Name(), names(e.lhs), names(e.rhs), strings.Join(rows, "; "))
}

// Satisfies reports D ⊨ e.
func Satisfies(in *relation.Instance, e *ECFD) bool {
	return len(detect(in, e, true)) == 0
}

// SatisfiesAll reports D ⊨ Σ.
func SatisfiesAll(in *relation.Instance, set []*ECFD) bool {
	for _, e := range set {
		if !Satisfies(in, e) {
			return false
		}
	}
	return true
}

// Violation records one detected eCFD violation (TuplePair when T1 ≠ T2).
type Violation struct {
	ECFD *ECFD
	Row  int
	T1   relation.TID
	T2   relation.TID
	Attr int
}

// String renders the violation.
func (v Violation) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends String's rendering to dst (the cfd.Violation format:
// "tuple T1 violates" for a single tuple, "tuples T1,T2 violate" for a
// pair).
func (v Violation) AppendTo(dst []byte) []byte {
	dst = append(dst, v.ECFD.schema.Name()...)
	if v.T1 == v.T2 {
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
	return append(dst, v.ECFD.schema.Attr(v.Attr).Name...)
}

// Detect returns the violations of e in the instance, sorted by
// (Row, T1, T2, Attr) — relation.Index.Groups iterates buckets in map
// order, so detection would otherwise be nondeterministic.
func Detect(in *relation.Instance, e *ECFD) []Violation {
	return detect(in, e, false)
}

// DetectAll combines Detect over a set in the canonical reporting order
// (see SortViolations).
func DetectAll(in *relation.Instance, set []*ECFD) []Violation {
	var out []Violation
	for _, e := range set {
		out = append(out, Detect(in, e)...)
	}
	SortViolations(out)
	return out
}

// SortViolations sorts a combined violation slice into the canonical
// reporting order: (T1, T2, Attr, Row), stably, so violations of
// distinct eCFDs that tie on all four keys keep the Σ order they were
// gathered in — the comparator of cfd.SortViolations, and the one the
// detection engine merges mixed batches with.
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

// sortDetectOrder sorts one eCFD's violations into the canonical
// per-constraint order (Row, T1, T2, Attr), mirroring cfd's detectors.
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

func detect(in *relation.Instance, e *ECFD, firstOnly bool) []Violation {
	var out []Violation
	ids := in.IDs()
	ix := relation.BuildIndex(in, e.lhs)
	for rowIdx, row := range e.tableau {
		matchLHS := func(t relation.Tuple) bool {
			for j, p := range e.lhs {
				if !row.LHS[j].Matches(t[p]) {
					return false
				}
			}
			return true
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
			for _, id := range ids {
				t, _ := in.Tuple(id)
				if !matchLHS(t) {
					continue
				}
				for j, p := range e.rhs {
					if !row.RHS[j].Matches(t[p]) {
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
		stop := false
		ix.Groups(2, func(_ string, gids []relation.TID) {
			if stop {
				return
			}
			rep, _ := in.Tuple(gids[0])
			if !matchLHS(rep) {
				return
			}
			for _, id := range gids[1:] {
				t, _ := in.Tuple(id)
				for _, p := range eqPos {
					if !t[p].Equal(rep[p]) {
						out = append(out, Violation{ECFD: e, Row: rowIdx, T1: gids[0], T2: id, Attr: p})
						if firstOnly {
							stop = true
							return
						}
					}
				}
			}
		})
		if firstOnly && len(out) > 0 {
			return out
		}
	}
	sortDetectOrder(out)
	return out
}

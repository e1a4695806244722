// Package cind implements conditional inclusion dependencies (CINDs) from
// Section 2.2 of Fan (PODS 2008): a CIND on schemas (R1, R2) is
// ψ = (R1[X; Xp] ⊆ R2[Y; Yp], Tp) where R1[X] ⊆ R2[Y] is the embedded
// IND and the pattern tableau Tp carries constants for the Xp (source
// condition) and Yp (target enforcement) attributes. An instance pair
// satisfies ψ iff for every pattern row tp and every t1 ∈ D1 with
// t1[Xp] = tp[Xp] there is a t2 ∈ D2 with t1[X] = t2[Y] and
// t2[Yp] = tp[Yp].
//
// The package provides satisfaction and violation detection, the O(1)
// consistency result of Theorem 4.1 (every CIND set has a nonempty
// witness, which BuildWitness constructs), chase-based implication
// matching the EXPTIME/PSPACE bounds of Theorems 4.2/4.3 (exact at chase
// fixpoint, three-valued under a depth bound for cyclic sets), a sound
// inference system, and the bounded semi-decision procedures for CFDs and
// CINDs taken together (undecidable in general — Theorems 4.1/4.2).
package cind

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// PatternRow is one pattern tuple of a CIND tableau: constants for the Xp
// attributes of R1 and the Yp attributes of R2.
type PatternRow struct {
	XpVals []relation.Value
	YpVals []relation.Value
}

// String renders the row as "x1, x2 || y1".
func (r PatternRow) String() string {
	return valsString(r.XpVals) + " || " + valsString(r.YpVals)
}

func valsString(vs []relation.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// CIND is a conditional inclusion dependency (R1[X; Xp] ⊆ R2[Y; Yp], Tp).
type CIND struct {
	src, dst *relation.Schema
	x, y     []int // embedded IND correspondence, len(x) == len(y)
	xp, yp   []int // pattern attribute positions
	tableau  []PatternRow
	text     string // String(), rendered once by New
}

// New builds a CIND. X and Y must have equal positive length with
// kind-compatible attributes; pattern constants must be admissible in
// their domains. A CIND with empty Xp and Yp and a single empty row is a
// traditional IND.
func New(src, dst *relation.Schema, x, y, xp, yp []string, rows ...PatternRow) (*CIND, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("cind: %s ⊆ %s: embedded IND needs equal-length nonempty X and Y", src.Name(), dst.Name())
	}
	xPos, err := src.Positions(x)
	if err != nil {
		return nil, fmt.Errorf("cind: %v", err)
	}
	yPos, err := dst.Positions(y)
	if err != nil {
		return nil, fmt.Errorf("cind: %v", err)
	}
	for i := range xPos {
		if src.Attr(xPos[i]).Domain.Kind() != dst.Attr(yPos[i]).Domain.Kind() {
			return nil, fmt.Errorf("cind: %s.%s and %s.%s have incompatible kinds",
				src.Name(), x[i], dst.Name(), y[i])
		}
	}
	xpPos, err := src.Positions(xp)
	if err != nil {
		return nil, fmt.Errorf("cind: %v", err)
	}
	ypPos, err := dst.Positions(yp)
	if err != nil {
		return nil, fmt.Errorf("cind: %v", err)
	}
	c := &CIND{src: src, dst: dst, x: xPos, y: yPos, xp: xpPos, yp: ypPos}
	for i, r := range rows {
		if len(r.XpVals) != len(xpPos) || len(r.YpVals) != len(ypPos) {
			return nil, fmt.Errorf("cind: row %d: pattern arity mismatch", i)
		}
		for j, v := range r.XpVals {
			if v.IsNull() || !src.Attr(xpPos[j]).Domain.Contains(v) {
				return nil, fmt.Errorf("cind: row %d: %v not admissible for %s.%s", i, v, src.Name(), xp[j])
			}
		}
		for j, v := range r.YpVals {
			if v.IsNull() || !dst.Attr(ypPos[j]).Domain.Contains(v) {
				return nil, fmt.Errorf("cind: row %d: %v not admissible for %s.%s", i, v, dst.Name(), yp[j])
			}
		}
		c.tableau = append(c.tableau, PatternRow{
			XpVals: append([]relation.Value(nil), r.XpVals...),
			YpVals: append([]relation.Value(nil), r.YpVals...),
		})
	}
	if len(c.tableau) == 0 {
		if len(xpPos) != 0 || len(ypPos) != 0 {
			return nil, fmt.Errorf("cind: pattern attributes but no pattern rows")
		}
		c.tableau = []PatternRow{{}} // traditional IND: single empty row
	}
	c.text = c.render()
	return c, nil
}

// MustNew is New that panics on error.
func MustNew(src, dst *relation.Schema, x, y, xp, yp []string, rows ...PatternRow) *CIND {
	c, err := New(src, dst, x, y, xp, yp, rows...)
	if err != nil {
		panic(err)
	}
	return c
}

// IND builds the traditional inclusion dependency R1[X] ⊆ R2[Y], the
// special case of a CIND with empty pattern lists.
func IND(src, dst *relation.Schema, x, y []string) (*CIND, error) {
	return New(src, dst, x, y, nil, nil)
}

// MustIND is IND that panics on error.
func MustIND(src, dst *relation.Schema, x, y []string) *CIND {
	c, err := IND(src, dst, x, y)
	if err != nil {
		panic(err)
	}
	return c
}

// Src returns the source (R1) schema.
func (c *CIND) Src() *relation.Schema { return c.src }

// Dst returns the target (R2) schema.
func (c *CIND) Dst() *relation.Schema { return c.dst }

// X returns the source correspondence positions.
func (c *CIND) X() []int { return c.x }

// Y returns the target correspondence positions.
func (c *CIND) Y() []int { return c.y }

// Xp returns the source pattern positions.
func (c *CIND) Xp() []int { return c.xp }

// Yp returns the target pattern positions.
func (c *CIND) Yp() []int { return c.yp }

// Tableau returns the pattern rows (not to be modified).
func (c *CIND) Tableau() []PatternRow { return c.tableau }

// IsIND reports whether the CIND is a traditional IND.
func (c *CIND) IsIND() bool { return len(c.xp) == 0 && len(c.yp) == 0 }

// String renders the CIND in the paper's notation. A CIND is immutable
// once built, so New renders it once: violation reports repeat it for
// every violating tuple.
func (c *CIND) String() string { return c.text }

func (c *CIND) render() string {
	names := func(s *relation.Schema, pos []int) string {
		parts := make([]string, len(pos))
		for i, p := range pos {
			parts[i] = s.Attr(p).Name
		}
		return strings.Join(parts, ", ")
	}
	rows := make([]string, len(c.tableau))
	for i, r := range c.tableau {
		rows[i] = r.String()
	}
	return fmt.Sprintf("%s[%s; %s] ⊆ %s[%s; %s], {%s}",
		c.src.Name(), names(c.src, c.x), names(c.src, c.xp),
		c.dst.Name(), names(c.dst, c.y), names(c.dst, c.yp),
		strings.Join(rows, "; "))
}

// Violation records a source tuple with no matching target tuple.
type Violation struct {
	CIND *CIND
	Row  int
	TID  relation.TID // offending tuple of the source relation
}

// String renders the violation.
func (v Violation) String() string { return string(v.AppendTo(nil)) }

// AppendTo appends String's rendering to dst:
//
//	<the CIND>: tuple TID of src has no match in dst (row R)
func (v Violation) AppendTo(dst []byte) []byte {
	dst = append(dst, v.CIND.text...)
	dst = append(dst, ": tuple "...)
	dst = strconv.AppendInt(dst, int64(v.TID), 10)
	dst = append(dst, " of "...)
	dst = append(dst, v.CIND.src.Name()...)
	dst = append(dst, " has no match in "...)
	dst = append(dst, v.CIND.dst.Name()...)
	dst = append(dst, " (row "...)
	dst = strconv.AppendInt(dst, int64(v.Row), 10)
	return append(dst, ')')
}

// TargetKeyPos returns the target index positions Y ∪ Yp, in the order
// the detection probe key is built (Y first, then Yp) — the position
// set whose target-relation index DetectAll and the detection engine
// share across every CIND with the same target shape.
func (c *CIND) TargetKeyPos() []int {
	return append(append(make([]int, 0, len(c.y)+len(c.yp)), c.y...), c.yp...)
}

// SourceGroupPos returns the source grouping positions X ∪ Xp (X order
// first, then the Xp positions not already in X): all tuples of one
// group agree on the embedded-IND key and on every pattern attribute,
// so the snapshot path evaluates each group with one pattern check and
// one target probe. A CIND whose X ∪ Xp equals a CFD's LHS position
// set shares that CFD's group index in the engine planner.
func (c *CIND) SourceGroupPos() []int {
	out := append(make([]int, 0, len(c.x)+len(c.xp)), c.x...)
	for _, p := range c.xp {
		seen := false
		for _, q := range c.x {
			if q == p {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, p)
		}
	}
	return out
}

// Satisfies reports (D1, D2) ⊨ ψ for the instances of ψ's relations in db.
func Satisfies(db *relation.Database, c *CIND) bool {
	var d detector
	return len(d.detect(db, c, true)) == 0
}

// SatisfiesAll reports db ⊨ Σ.
func SatisfiesAll(db *relation.Database, set []*CIND) bool {
	var d detector // share target indexes across the set, like DetectAll
	for _, c := range set {
		if len(d.detect(db, c, true)) != 0 {
			return false
		}
	}
	return true
}

// Detect returns all violations of ψ in db — source tuples matching some
// pattern row with no corresponding target tuple — in the canonical
// per-CIND order (Row, then TID).
func Detect(db *relation.Database, c *CIND) []Violation {
	var d detector
	return d.detect(db, c, false)
}

// DetectAll combines Detect over a set in the canonical reporting order
// (see SortViolations). One target index per distinct (target relation,
// key positions) and one probe key buffer are shared across the whole
// set instead of being rebuilt per CIND.
func DetectAll(db *relation.Database, set []*CIND) []Violation {
	var out []Violation
	var d detector
	for _, c := range set {
		out = append(out, d.detect(db, c, false)...)
	}
	SortViolations(out)
	return out
}

// SortViolations sorts a combined violation slice into the canonical
// reporting order: (TID, Row), stably, so violations of distinct CINDs
// that tie on both keys keep the Σ order they were gathered in — the
// CIND counterpart of cfd.SortViolations, and the comparator the
// detection engine merges mixed batches with.
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].TID != vs[j].TID {
			return vs[i].TID < vs[j].TID
		}
		return vs[i].Row < vs[j].Row
	})
}

// detector carries the state one detection batch shares across CINDs:
// the target indexes keyed by (relation, key positions) — building one
// costs a full pass over the target relation, which used to dominate
// DetectAll for sets over few targets — and the probe key buffer, so
// the per-probe cost is appending value keys to a reused []byte instead
// of a strings.Builder and a projected tuple per source tuple.
type detector struct {
	ixs    map[string]*relation.Index
	keyBuf []byte
}

// targetIndex returns the shared index of the target relation on keyPos,
// building it on first request. A missing target relation indexes as
// empty (every probe misses), matching an empty instance.
func (d *detector) targetIndex(db *relation.Database, c *CIND, keyPos []int) *relation.Index {
	key := c.dst.Name()
	for _, p := range keyPos {
		key += "," + strconv.Itoa(p)
	}
	if ix, ok := d.ixs[key]; ok {
		return ix
	}
	dst, ok := db.Instance(c.dst.Name())
	if !ok {
		dst = relation.NewInstance(c.dst) // empty target
	}
	ix := relation.BuildIndex(dst, keyPos)
	if d.ixs == nil {
		d.ixs = make(map[string]*relation.Index)
	}
	d.ixs[key] = ix
	return ix
}

func (d *detector) detect(db *relation.Database, c *CIND, firstOnly bool) []Violation {
	var out []Violation
	src, ok := db.Instance(c.src.Name())
	if !ok {
		return nil // missing source relation: vacuously satisfied
	}
	ix := d.targetIndex(db, c, c.TargetKeyPos())
	for rowIdx, row := range c.tableau {
		for _, id := range src.IDs() {
			t, _ := src.Tuple(id)
			matches := true
			for j, p := range c.xp {
				if !t[p].Equal(row.XpVals[j]) {
					matches = false
					break
				}
			}
			if !matches {
				continue
			}
			// Want a target tuple with t2[Y] = t1[X] and t2[Yp] = tp[Yp].
			key := d.keyBuf[:0]
			for _, p := range c.x {
				key = append(t[p].AppendKey(key), '\x01')
			}
			for _, v := range row.YpVals {
				key = append(v.AppendKey(key), '\x01')
			}
			d.keyBuf = key
			if len(ix.LookupKeyBytes(key)) == 0 {
				out = append(out, Violation{CIND: c, Row: rowIdx, TID: id})
				if firstOnly {
					return out
				}
			}
		}
	}
	return out
}

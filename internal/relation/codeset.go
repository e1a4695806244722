package relation

import "slices"

// Pattern constants compiled to dictionary codes: the one compiler every
// columnar detector shares. A pattern cell of any class — a CFD
// constant, an eCFD set cell, a CIND Xp constant — is a wildcard,
// membership in a set of values, or non-membership; a CFD constant c is
// the singleton case ∈ {c}. Compiled against the dictionary of its
// column, a cell tests a row with integer compares instead of
// Value.Equal calls.

// SetOp is the form of a pattern cell.
type SetOp uint8

// The cell forms.
const (
	SetAny   SetOp = iota // '_': matches every value
	SetIn                 // ∈ S
	SetNotIn              // ∉ S
)

// CodeSet is a pattern cell compiled against one column's dictionary.
// The zero CodeSet is the wildcard.
type CodeSet struct {
	op    SetOp
	codes []uint32 // member codes present in the column
}

// CompileSet compiles the cell "op vals" against column pos of snap.
// Members that never occur in the column are dropped. An ∈ set emptied
// this way matches nothing, an emptied ∉ set matches everything. A
// wildcard leaves the column uninterned.
func CompileSet(snap *Snapshot, pos int, op SetOp, vals ...Value) CodeSet {
	cs := CodeSet{op: op}
	for _, v := range vals {
		if code, ok := snap.Dict(pos).Code(v); ok {
			cs.codes = append(cs.codes, code)
		}
	}
	return cs
}

// Matches reports whether the cell accepts a value of the column, given
// by its code.
func (cs CodeSet) Matches(code uint32) bool {
	switch cs.op {
	case SetAny:
		return true
	case SetIn:
		return slices.Contains(cs.codes, code)
	default:
		return !slices.Contains(cs.codes, code)
	}
}

// Pattern is a conjunction of compiled cells over hoisted snapshot
// columns: the test t[X] ≍ tp[X] of one pattern row. Singleton ∈ cells
// — every CFD constant — are kept apart as a direct compare against the
// column, so the full CFD scan pays one integer compare per constant.
type Pattern struct {
	eq   []colCode
	sets []colSet
	dead bool
}

type colCode struct {
	col  []uint32
	code uint32
}

type colSet struct {
	col []uint32
	set CodeSet
}

// NewPattern binds compiled cells to columns pos of snap (cells[j]
// tests column pos[j]); wildcards are dropped.
func NewPattern(snap *Snapshot, pos []int, cells []CodeSet) Pattern {
	var p Pattern
	for j, cs := range cells {
		switch {
		case cs.op == SetAny:
		case cs.op == SetIn && len(cs.codes) == 0:
			p.dead = true
		case cs.op == SetIn && len(cs.codes) == 1:
			p.eq = append(p.eq, colCode{col: snap.Col(pos[j]), code: cs.codes[0]})
		default:
			p.sets = append(p.sets, colSet{col: snap.Col(pos[j]), set: cs})
		}
	}
	return p
}

// Dead reports whether no row can match: some ∈ cell lost every member,
// so the whole pattern row can be skipped.
func (p *Pattern) Dead() bool { return p.dead }

// Match reports whether row r matches every cell.
func (p *Pattern) Match(r int) bool {
	for _, e := range p.eq {
		if e.col[r] != e.code {
			return false
		}
	}
	for i := range p.sets {
		if !p.sets[i].set.Matches(p.sets[i].col[r]) {
			return false
		}
	}
	return true
}

package cind

import (
	"cmp"
	"slices"

	"repro/internal/relation"
)

// Snapshot-backed CIND violation detection: the columnar fast path of
// the detection engine. One body, detect, serves every entry point. It
// runs over a relation.Scope of the source snapshot — every row, or the
// rows of a touched TID list — and asks a probe whether a source row's
// t[X] (with the pattern row's Yp constants) occurs in the target:
//
//   - the code probe (this file) translates source X codes to target Y
//     codes and tests the target's relation.CodeIndex with HasCodes —
//     no string key is ever built;
//   - the key probe (keys.go) builds the row's legacy probe key and
//     tests a replicated KeyIndex, for sharded evaluation, where the
//     target spans every shard.
//
// Output matches the string-keyed detector exactly — same violations,
// same (Row, TID) order. Full snapshot evaluation groups source tuples
// by X ∪ Xp (SourceGroupPos), so pattern matching and the probe run
// once per group, not once per tuple: the whole group shares the
// embedded-IND key and every pattern attribute, so one verdict covers
// all members. Touched and key-index evaluation visit single rows, and
// need no source group index. Xp constants compile to source codes
// once per tableau row (relation.CompileSet); an Xp constant missing
// from its source column prunes the row.
//
// The string-keyed path (Detect, DetectAll, ...) remains the
// compatibility/oracle path; randomized tests here and in
// internal/detect assert byte-identical output between the two.

// SatisfiesWithSnapshot is Satisfies on the columnar path. A nil dst
// stands for a missing target relation (every probe misses), mirroring
// the empty instance the string-keyed path substitutes.
func SatisfiesWithSnapshot(src, dst *relation.Snapshot, c *CIND, srcIx, dstIx *relation.CodeIndex) bool {
	return len(detect(src, c, relation.FullScope(src), relation.IndexFor(src, c.SourceGroupPos(), srcIx), newCodeProbe(src, dst, c, dstIx), true)) == 0
}

// DetectWithSnapshot is Detect on the columnar path: all violations of
// the CIND with source and target frozen in the given snapshots, in
// (Row, TID) order, byte-identical to the string-keyed detector. A nil
// src (missing source relation) is vacuously satisfied; a nil dst
// behaves as an empty target.
func DetectWithSnapshot(src, dst *relation.Snapshot, c *CIND, srcIx, dstIx *relation.CodeIndex) []Violation {
	return detect(src, c, relation.FullScope(src), relation.IndexFor(src, c.SourceGroupPos(), srcIx), newCodeProbe(src, dst, c, dstIx), false)
}

// DetectTouchedWithSnapshot returns the violations of c whose source
// tuple is among the touched TIDs, in (Row, TID) order — the
// incremental entry point the monitor diffs between a pre- and a
// post-batch snapshot pair. Touched TIDs missing from the source
// snapshot (deleted, or inserted after the freeze) are skipped. Probes
// run per touched tuple, so no source group index is needed; the target
// index is validated like DetectWithSnapshot's.
func DetectTouchedWithSnapshot(src, dst *relation.Snapshot, c *CIND, dstIx *relation.CodeIndex, touched []relation.TID) []Violation {
	return detect(src, c, relation.TouchedScope(src, touched), nil, newCodeProbe(src, dst, c, dstIx), false)
}

// probe is the target-side test of the one detection body.
type probe interface {
	// setRow prepares the probes of one pattern row.
	setRow(row PatternRow)
	// hit reports whether source row r has a target match under the
	// current pattern row.
	hit(r int) bool
}

// detect is the one CIND detection body. It visits the groups of srcIx
// the scope reaches, or each scope row alone when srcIx is nil; a unit
// whose representative matches the pattern row's Xp and misses the
// probe contributes a violation per member. Each pattern row's segment
// is sorted ascending by TID.
func detect(src *relation.Snapshot, c *CIND, sc relation.Scope, srcIx *relation.CodeIndex, pr probe, firstOnly bool) []Violation {
	if sc.Len() == 0 {
		return nil
	}
	xp := make([]relation.CodeSet, len(c.xp))
	var out []Violation
	for rowIdx, row := range c.tableau {
		for j, p := range c.xp {
			xp[j] = relation.CompileSet(src, p, relation.SetIn, row.XpVals[j])
		}
		match := relation.NewPattern(src, c.xp, xp)
		if match.Dead() {
			continue
		}
		pr.setRow(row)
		rowStart := len(out)
		sc.GroupsWhile(srcIx, 1, func(rows []int32) bool {
			rep := int(rows[0])
			if !match.Match(rep) || pr.hit(rep) {
				return true
			}
			for _, r := range rows {
				out = append(out, Violation{CIND: c, Row: rowIdx, TID: src.TID(int(r))})
				if firstOnly {
					return false
				}
			}
			return true
		})
		if firstOnly && len(out) > 0 {
			return out
		}
		// Groups iterate in first-appearance order, touched rows in list
		// order; the canonical per-row order is ascending TID.
		slices.SortFunc(out[rowStart:], func(a, b Violation) int { return cmp.Compare(a.TID, b.TID) })
	}
	return out
}

// codeProbe tests the target snapshot's index on Y ∪ Yp by code
// sequence. Source X codes translate to target Y codes through a
// per-column memo (source code → target code), so a value shared by
// many source groups pays the cross-dictionary lookup once. Yp
// constants resolve to target codes per pattern row (a NaN constant
// meets NaN data under the one shared NaN code, as the string-keyed
// probe puts every NaN under one key), so only a dictionary miss fails
// them — and then every probe of the row misses.
type codeProbe struct {
	src, dst *relation.Snapshot
	c        *CIND
	ix       *relation.CodeIndex // target index on TargetKeyPos; nil when dst is
	xcols    [][]uint32
	tab      [][]int64 // tab[i][sc]: 0 unknown, -1 absent from the target, else code+1
	key      []uint32  // t[X] codes, then the row's Yp codes
	ypOK     bool
}

// newCodeProbe binds a probe to the target snapshot (nil: a missing
// target relation, every probe misses), validating dstIx.
func newCodeProbe(src, dst *relation.Snapshot, c *CIND, dstIx *relation.CodeIndex) *codeProbe {
	return &codeProbe{src: src, dst: dst, c: c, ix: relation.IndexFor(dst, c.TargetKeyPos(), dstIx),
		xcols: make([][]uint32, len(c.x)), tab: make([][]int64, len(c.x)), key: make([]uint32, len(c.y)+len(c.yp))}
}

func (p *codeProbe) setRow(row PatternRow) {
	for i, x := range p.c.x {
		p.xcols[i] = p.src.Col(x)
	}
	p.ypOK = p.dst != nil
	for j, q := range p.c.yp {
		if !p.ypOK {
			return
		}
		p.key[len(p.c.y)+j], p.ypOK = p.dst.Dict(q).Code(row.YpVals[j])
	}
}

func (p *codeProbe) hit(r int) bool {
	if !p.ypOK {
		return false
	}
	for i, col := range p.xcols {
		tc, ok := p.translate(i, col[r])
		if !ok {
			return false // source value absent from the target column
		}
		p.key[i] = tc
	}
	return p.ix.HasCodes(p.key)
}

// translate maps source code sc of column X[i] to the target code of
// the Equal value in column Y[i], memoized.
func (p *codeProbe) translate(i int, sc uint32) (uint32, bool) {
	tb := p.tab[i]
	if tb == nil {
		tb = make([]int64, p.src.Dict(p.c.x[i]).Len())
		p.tab[i] = tb
	}
	if int(sc) >= len(tb) {
		// The shared dictionary grew past the memo (another snapshot is
		// interning concurrently); translate directly.
		return p.dst.Dict(p.c.y[i]).Code(p.src.Dict(p.c.x[i]).Value(sc))
	}
	switch v := tb[sc]; {
	case v > 0:
		return uint32(v - 1), true
	case v < 0:
		return 0, false
	}
	c, ok := p.dst.Dict(p.c.y[i]).Code(p.src.Dict(p.c.x[i]).Value(sc))
	if ok {
		tb[sc] = int64(c) + 1
	} else {
		tb[sc] = -1
	}
	return c, ok
}

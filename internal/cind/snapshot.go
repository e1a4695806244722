package cind

import (
	"cmp"
	"slices"

	"repro/internal/relation"
)

// Snapshot-backed CIND violation detection: the columnar fast path of
// the detection engine. One body, detect, serves every entry point. It
// runs over a relation.Scope of the source snapshot — every row, or the
// rows of a touched TID list — and asks the code probe whether a source
// row's t[X] (with the pattern row's Yp constants) occurs in the target.
//
// The target is a list of partitions (Target): the whole relation as
// one entry on a flat database, one entry per shard on a sharded one,
// where a source tuple's match may live in any shard. The probe
// translates source X codes to each partition's Y codes and tests the
// partition's relation.CodeIndex with HasCodes — no string key is ever
// built — and hits when any partition holds the key.
//
// Output matches the string-keyed detector exactly — same violations,
// same (Row, TID) order. Full snapshot evaluation groups source tuples
// by X ∪ Xp (SourceGroupPos), so pattern matching and the probe run
// once per group, not once per tuple: the whole group shares the
// embedded-IND key and every pattern attribute, so one verdict covers
// all members. Touched evaluation visits single rows and needs no
// source group index. Xp constants compile to source codes once per
// tableau row (relation.CompileSet); an Xp constant missing from its
// source column prunes the row.
//
// The string-keyed path (Detect, DetectAll, ...) remains the
// compatibility/oracle path; randomized tests here and in
// internal/detect assert byte-identical output between the two.

// Target is one partition of a CIND's target relation: its frozen
// snapshot (nil: the relation is missing, every probe of the partition
// misses) and, when the caller holds one, its index on TargetKeyPos (nil
// or mismatched: built from the snapshot).
type Target struct {
	Snap  *relation.Snapshot
	Index *relation.CodeIndex
}

// SatisfiesWithSnapshot is Satisfies on the columnar path. An empty
// target list stands for a missing target relation (every probe
// misses), mirroring the empty instance the string-keyed path
// substitutes.
func SatisfiesWithSnapshot(src *relation.Snapshot, dsts []Target, c *CIND, srcIx *relation.CodeIndex) bool {
	return len(detect(src, c, relation.FullScope(src), relation.IndexFor(src, c.SourceGroupPos(), srcIx), newCodeProbe(src, dsts, c), true)) == 0
}

// DetectWithSnapshot is Detect on the columnar path: all violations of
// the CIND with source and target partitions frozen in the given
// snapshots, in (Row, TID) order, byte-identical to the string-keyed
// detector over the union of the partitions. A nil src (missing source
// relation) is vacuously satisfied; an empty target list behaves as an
// empty target.
func DetectWithSnapshot(src *relation.Snapshot, dsts []Target, c *CIND, srcIx *relation.CodeIndex) []Violation {
	return detect(src, c, relation.FullScope(src), relation.IndexFor(src, c.SourceGroupPos(), srcIx), newCodeProbe(src, dsts, c), false)
}

// DetectTouchedWithSnapshot returns the violations of c whose source
// tuple is among the touched TIDs, in (Row, TID) order — the
// incremental entry point the monitor diffs between a pre- and a
// post-batch snapshot pair. Touched TIDs missing from the source
// snapshot (deleted, or inserted after the freeze) are skipped. Probes
// run per touched tuple, so no source group index is needed; the target
// indexes are validated like DetectWithSnapshot's.
func DetectTouchedWithSnapshot(src *relation.Snapshot, dsts []Target, c *CIND, touched []relation.TID) []Violation {
	return detect(src, c, relation.TouchedScope(src, touched), nil, newCodeProbe(src, dsts, c), false)
}

// detect is the one CIND detection body. It visits the groups of srcIx
// the scope reaches, or each scope row alone when srcIx is nil; a unit
// whose representative matches the pattern row's Xp and misses the
// probe contributes a violation per member. Each pattern row's segment
// is sorted ascending by TID.
func detect(src *relation.Snapshot, c *CIND, sc relation.Scope, srcIx *relation.CodeIndex, pr *codeProbe, firstOnly bool) []Violation {
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

// codeProbe tests each target partition's index on Y ∪ Yp by code
// sequence. Every partition has its own dictionaries, so each holds its
// own translation memo: source X codes translate to the partition's Y
// codes through a per-column memo (source code → target code), and a
// value shared by many source groups pays the cross-dictionary lookup
// once per partition. Yp constants resolve to partition codes per
// pattern row (a NaN constant meets NaN data under the one shared NaN
// code, as the string-keyed probe puts every NaN under one key), so only
// a dictionary miss fails them — and then every probe of that partition
// misses for the row.
type codeProbe struct {
	src   *relation.Snapshot
	c     *CIND
	xcols [][]uint32
	parts []probePart
}

// probePart is the probe state of one target partition.
type probePart struct {
	dst  *relation.Snapshot
	ix   *relation.CodeIndex // index on TargetKeyPos
	tab  [][]int64           // tab[i][sc]: 0 unknown, -1 absent from the partition, else code+1
	key  []uint32            // t[X] codes, then the row's Yp codes
	ypOK bool
}

// newCodeProbe binds a probe to the target partitions, validating their
// indexes; partitions of a missing relation (nil snapshot) are dropped,
// since every probe of theirs misses.
func newCodeProbe(src *relation.Snapshot, dsts []Target, c *CIND) *codeProbe {
	p := &codeProbe{src: src, c: c, xcols: make([][]uint32, len(c.x)), parts: make([]probePart, 0, len(dsts))}
	for _, t := range dsts {
		if t.Snap == nil {
			continue
		}
		p.parts = append(p.parts, probePart{dst: t.Snap, ix: relation.IndexFor(t.Snap, c.TargetKeyPos(), t.Index),
			tab: make([][]int64, len(c.x)), key: make([]uint32, len(c.y)+len(c.yp))})
	}
	return p
}

func (p *codeProbe) setRow(row PatternRow) {
	for i, x := range p.c.x {
		p.xcols[i] = p.src.Col(x)
	}
	for k := range p.parts {
		pt := &p.parts[k]
		pt.ypOK = true
		for j, q := range p.c.yp {
			if pt.key[len(p.c.y)+j], pt.ypOK = pt.dst.Dict(q).Code(row.YpVals[j]); !pt.ypOK {
				break
			}
		}
	}
}

// hit reports whether source row r has a match in any target partition
// under the current pattern row.
func (p *codeProbe) hit(r int) bool {
parts:
	for k := range p.parts {
		pt := &p.parts[k]
		if !pt.ypOK {
			continue
		}
		for i, col := range p.xcols {
			tc, ok := pt.translate(p, i, col[r])
			if !ok {
				continue parts // source value absent from the partition's column
			}
			pt.key[i] = tc
		}
		if pt.ix.HasCodes(pt.key) {
			return true
		}
	}
	return false
}

// translate maps source code sc of column X[i] to the partition's code
// of the Equal value in column Y[i], memoized.
func (pt *probePart) translate(p *codeProbe, i int, sc uint32) (uint32, bool) {
	tb := pt.tab[i]
	if tb == nil {
		tb = make([]int64, p.src.Dict(p.c.x[i]).Len())
		pt.tab[i] = tb
	}
	if int(sc) >= len(tb) {
		// The shared dictionary grew past the memo (another snapshot is
		// interning concurrently); translate directly.
		return pt.dst.Dict(p.c.y[i]).Code(p.src.Dict(p.c.x[i]).Value(sc))
	}
	switch v := tb[sc]; {
	case v > 0:
		return uint32(v - 1), true
	case v < 0:
		return 0, false
	}
	c, ok := pt.dst.Dict(p.c.y[i]).Code(p.src.Dict(p.c.x[i]).Value(sc))
	if ok {
		tb[sc] = int64(c) + 1
	} else {
		tb[sc] = -1
	}
	return c, ok
}

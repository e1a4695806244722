// Sharded CIND evaluation. A CIND is never shard-local under hash
// partitioning — a source tuple's match can live in any shard of the
// target relation — so the sharded engine evaluates it scatter-gather:
// each source shard scans its own tuples and probes a small replicated
// KeyIndex holding the Y ∪ Yp projection keys of EVERY shard's target
// tuples (the "broadcast" side of the seam: target-side changes update
// the replica, and the changed keys are broadcast to all source
// shards' touched lists). Keys are the exact bytes the legacy detector
// probes with (Value.AppendKey + '\x01' per position), so the
// key-index path reports byte-identical violations. Evaluation is the
// one detection body of snapshot.go over the source shard's rows, with
// the key probe below in place of the target CodeIndex probe.

package cind

import (
	"repro/internal/relation"
)

// KeyIndex is a multiset of target-relation projection keys (Y then Yp
// positions, in TargetKeyPos order). One KeyIndex is shared by every
// CIND with the same (target relation, key positions) shape, exactly
// like the engine planner shares target indexes. It is a plain map —
// the caller (the sharded monitor) owns synchronization: maintenance is
// single-writer between detection phases, reads are concurrent.
type KeyIndex struct {
	counts map[string]int
}

// NewKeyIndex returns an empty key multiset.
func NewKeyIndex() *KeyIndex {
	return &KeyIndex{counts: make(map[string]int)}
}

// Add records one target tuple's key.
func (k *KeyIndex) Add(key []byte) { k.counts[string(key)]++ }

// Remove drops one count of the key.
func (k *KeyIndex) Remove(key []byte) {
	s := string(key)
	if n := k.counts[s]; n <= 1 {
		delete(k.counts, s)
	} else {
		k.counts[s] = n - 1
	}
}

// Has reports whether at least one target tuple carries the key.
func (k *KeyIndex) Has(key []byte) bool {
	_, ok := k.counts[string(key)]
	return ok
}

// Len returns the number of distinct keys.
func (k *KeyIndex) Len() int { return len(k.counts) }

// AppendRowKey appends the projection key of snapshot row onto buf: the
// values at pos in order, each terminated by '\x01' — the same bytes
// Tuple.KeyOn and the legacy probe build, so keys made from any
// representation of the same tuple are equal.
func AppendRowKey(buf []byte, snap *relation.Snapshot, row int, pos []int) []byte {
	for _, p := range pos {
		buf = append(snap.Value(row, p).AppendKey(buf), '\x01')
	}
	return buf
}

// DetectWithKeys returns all violations of c whose source tuple lies in
// the given source snapshot, resolving target matches through the
// replicated key multiset instead of a target snapshot. Output is in
// (Row, TID) order like DetectWithSnapshot; the caller merges across
// shards and re-sorts canonically.
func DetectWithKeys(src *relation.Snapshot, c *CIND, keys *KeyIndex) []Violation {
	return detect(src, c, relation.FullScope(src), nil, &keyProbe{src: src, c: c, keys: keys}, false)
}

// DetectTouchedWithKeys is DetectWithKeys restricted to the touched
// source TIDs — the sharded counterpart of DetectTouchedWithSnapshot.
// TIDs absent from the snapshot are skipped.
func DetectTouchedWithKeys(src *relation.Snapshot, c *CIND, keys *KeyIndex, touched []relation.TID) []Violation {
	return detect(src, c, relation.TouchedScope(src, touched), nil, &keyProbe{src: src, c: c, keys: keys}, false)
}

// keyProbe tests the replicated KeyIndex with the probe key of a source
// row: its t[X] values, then the pattern row's Yp constants, matching
// the target key layout of TargetKeyPos.
type keyProbe struct {
	src  *relation.Snapshot
	c    *CIND
	keys *KeyIndex
	yp   []relation.Value
	buf  []byte
}

func (p *keyProbe) setRow(row PatternRow) { p.yp = row.YpVals }

func (p *keyProbe) hit(r int) bool {
	p.buf = AppendRowKey(p.buf[:0], p.src, r, p.c.x)
	for _, v := range p.yp {
		p.buf = append(v.AppendKey(p.buf), '\x01')
	}
	return p.keys.Has(p.buf)
}

package serve

import (
	"sort"
	"sync"

	"repro/internal/detect"
)

// leafCap is the size a leaf of the published violation sequence is
// built at; a leaf splits once a commit grows it to twice that. Smaller
// leaves make a read re-encode less after each change; larger ones
// shorten the leaf-pointer slice every commit copies. Measured over the
// 78k violations of 100k generated orders under the mixed CFD+CIND+eCFD
// rules (2-core x86-64, Go 1.24), leafCap 64 / 96 / 128 cost 20 / 17 /
// 19 µs to apply a 5-violation diff and 2.3 / 3.1 / 3.6 ms to serve
// GET /violations after 25 changes: reads decide.
const leafCap = 64

// violSeq is the published violation set: an immutable sequence of
// small sorted leaves, concatenated in canonical CompareViolations
// order. A commit copies only the leaves its diff touches plus the
// pointer slice; every other leaf — and the encodings it memoised — is
// shared with the predecessor State.
type violSeq struct {
	leaves []*leaf
	n      int
}

// leaf is a run of at least one and fewer than 2·leafCap violations.
// vs is never modified once the leaf is published; the memos are filled
// by the first reader that needs them, at most once each.
type leaf struct {
	vs   []detect.Violation
	json leafMemo // comma-joined wire objects (ruleSet.appendJSONList)
	text leafMemo // one String() per line (appendText)
}

type leafMemo struct {
	once sync.Once
	b    []byte
}

// get returns the memoised bytes, encoding them with enc on the first
// call. The encoding is built in a pooled scratch buffer and copied out
// at its exact size, so the memo carries no growth slack for as long as
// its leaf lives.
func (m *leafMemo) get(enc func([]byte) []byte) []byte {
	m.once.Do(func() {
		bp := memoScratch.Get().(*[]byte)
		b := enc((*bp)[:0])
		m.b = append(make([]byte, 0, len(b)), b...)
		*bp = b
		memoScratch.Put(bp)
	})
	return m.b
}

var memoScratch = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

func (l *leaf) jsonBytes(rs *ruleSet) []byte {
	return l.json.get(func(dst []byte) []byte { return rs.appendJSONList(dst, l.vs) })
}

func (l *leaf) textBytes() []byte {
	return l.text.get(func(dst []byte) []byte { return appendText(dst, l.vs) })
}

// newViolSeq cuts a canonically sorted list into leaves. The leaves
// alias vs, which the caller hands over.
func newViolSeq(vs []detect.Violation) violSeq {
	return violSeq{leaves: appendLeaves(nil, vs), n: len(vs)}
}

// appendLeaves appends vs as leaves: none when empty, one when shorter
// than 2·leafCap, otherwise len/leafCap near-equal leaves of between
// leafCap and 2·leafCap-1 violations.
func appendLeaves(out []*leaf, vs []detect.Violation) []*leaf {
	if len(vs) < 2*leafCap {
		if len(vs) > 0 {
			out = append(out, &leaf{vs: vs})
		}
		return out
	}
	k := len(vs) / leafCap
	for i := 0; i < k; i++ {
		lo, hi := i*len(vs)/k, (i+1)*len(vs)/k
		out = append(out, &leaf{vs: vs[lo:hi:hi]})
	}
	return out
}

// apply derives the successor sequence from a commit's diff: gained
// and cleared sorted in canonical order, gained disjoint from the
// sequence, cleared contained in it. Each diff entry is routed to its
// leaf by binary search on the leaves' last elements; each touched leaf
// is rebuilt by one merge, then dropped if empty or split if it reached
// 2·leafCap. The receiver is not modified.
func (q violSeq) apply(gained, cleared []detect.Violation, sigma map[any]int) violSeq {
	if len(gained) == 0 && len(cleared) == 0 {
		return q
	}
	if len(q.leaves) == 0 {
		return newViolSeq(append([]detect.Violation(nil), gained...))
	}
	last := len(q.leaves) - 1
	// in reports whether v sorts into leaf i: not past its last element
	// (everything past the final leaf's end appends to it).
	in := func(v detect.Violation, i int) bool {
		vs := q.leaves[i].vs
		return i == last || detect.CompareViolations(v, vs[len(vs)-1], sigma) <= 0
	}
	find := func(v detect.Violation) int {
		return sort.Search(last, func(i int) bool { return in(v, i) })
	}

	out := make([]*leaf, 0, len(q.leaves)+1)
	n := q.n
	next, gi, ci := 0, 0, 0
	for gi < len(gained) || ci < len(cleared) {
		li := last
		if gi < len(gained) {
			li = find(gained[gi])
		}
		if ci < len(cleared) {
			li = min(li, find(cleared[ci]))
		}
		ge, ce := gi, ci
		for ge < len(gained) && in(gained[ge], li) {
			ge++
		}
		for ce < len(cleared) && in(cleared[ce], li) {
			ce++
		}
		old := q.leaves[li].vs
		merged := mergeLeaf(old, gained[gi:ge], cleared[ci:ce], sigma)
		n += len(merged) - len(old)
		out = append(out, q.leaves[next:li]...)
		out = appendLeaves(out, merged)
		next, gi, ci = li+1, ge, ce
	}
	out = append(out, q.leaves[next:]...)
	return violSeq{leaves: out, n: n}
}

// mergeLeaf is one leaf's share of a commit: old minus cleared plus
// gained, all three sorted, into a fresh slice. Each diff entry is
// placed by binary search and the runs of old between them are copied
// whole, so a leaf costs O(|Δ| log leafCap) comparisons, not one per
// element.
func mergeLeaf(old, gained, cleared []detect.Violation, sigma map[any]int) []detect.Violation {
	out := make([]detect.Violation, 0, len(old)+len(gained))
	next, gi, ci := 0, 0, 0
	for gi < len(gained) || ci < len(cleared) {
		// The diff's next entry in canonical order; gained and cleared
		// are disjoint, so they never compare equal.
		clear := ci < len(cleared) && (gi == len(gained) || detect.CompareViolations(cleared[ci], gained[gi], sigma) < 0)
		var v detect.Violation
		if clear {
			v = cleared[ci]
		} else {
			v = gained[gi]
		}
		at := next + sort.Search(len(old)-next, func(i int) bool {
			return detect.CompareViolations(old[next+i], v, sigma) >= 0
		})
		out = append(out, old[next:at]...)
		next = at
		if clear {
			if at < len(old) && old[at] == v {
				next++ // a cleared violation not in the leaf is a no-op
			}
			ci++
		} else {
			out = append(out, v)
			gi++
		}
	}
	return append(out, old[next:]...)
}

// all materialises the sequence as one slice, nil when empty (matching
// DetectBatch on a clean database).
func (q violSeq) all() []detect.Violation {
	if q.n == 0 {
		return nil
	}
	out := make([]detect.Violation, 0, q.n)
	for _, l := range q.leaves {
		out = append(out, l.vs...)
	}
	return out
}

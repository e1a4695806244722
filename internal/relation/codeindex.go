package relation

import (
	"slices"
	"sort"
	"sync/atomic"
)

// CodeIndex is the columnar counterpart of Index: a hash index over a
// list of attribute positions of a Snapshot, grouping rows that share a
// projection. Where Index materializes one heap string per tuple and
// buckets in a map[string][]TID, CodeIndex hashes the fixed-width code
// sequence of each row to a uint64 and groups rows through a flat
// open-addressing table into a single shared arena — a handful of
// pointer-free arrays instead of hundreds of thousands of heap strings
// and per-bucket slices. Hash collisions are verified, never trusted:
// rows join a group only if their code sequences are actually equal.
//
// It offers the same contract as Index — Groups / GroupsWhile iteration
// with a minimum group size and early termination, plus Lookup —
// except that groups are handed out as dense row indexes (ascending, so
// rows[0] is the lowest-TID representative); Snapshot.TID converts back.
type CodeIndex struct {
	snap *Snapshot
	pos  []int
	hash codeHasher
	// Groups are spans of one arena: group g holds the rows
	// arena[starts[g]:starts[g+1]], ascending. rowGroup inverts the
	// mapping; table is the open-addressing probe table (slot = group
	// ordinal + 1, 0 = empty) kept for Lookup.
	arena    []int32
	starts   []int32
	rowGroup []int32
	table    []int32
	mask     uint64

	// Append absorption (applyAppend): rows appended to the snapshot
	// since the arena was last laid out live in extra (group ordinal ->
	// appended member rows, ascending) instead of the arena; ngroups
	// counts every group, including ones that exist only in extra and
	// therefore lie beyond starts. nExtra is the total appended-row
	// count — once it stops being small relative to the snapshot the
	// index folds back into a flat arena (fold). extend arbitrates
	// in-place tail extension of rowGroup and the extra member slices,
	// exactly like Snapshot.extend does for columns.
	extra   map[int32][]int32
	nExtra  int
	ngroups int
	extend  *atomic.Bool
}

// codeHasher hashes a projected code sequence; injectable so tests can
// force probe collisions and exercise the verification path.
type codeHasher func(codes []uint32) uint64

// FNV-1a 64-bit parameters; each 32-bit code is folded in as four bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashCodes is the production hasher: FNV-1a over the bytes of the code
// sequence.
func hashCodes(codes []uint32) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range codes {
		h = (h ^ uint64(c&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>8)&0xff)) * fnvPrime64
		h = (h ^ uint64((c>>16)&0xff)) * fnvPrime64
		h = (h ^ uint64(c>>24)) * fnvPrime64
	}
	return h
}

// testHasher, when non-nil, replaces the production hasher in every
// index BuildCodeIndex builds afterwards (spliced derivatives inherit
// it). See SetCodeHasherForTest.
var testHasher codeHasher

// SetCodeHasherForTest overrides the code hasher — equivalence tests
// outside this package use a constant hasher to force every probe into
// one collision chain and exercise the verification path. It returns a
// restore func and must not be called concurrently with index builds;
// test-only.
func SetCodeHasherForTest(h func(codes []uint32) uint64) (restore func()) {
	prev := testHasher
	testHasher = h
	return func() { testHasher = prev }
}

// BuildCodeIndex builds a code index of the snapshot on the given
// attribute positions, interning the touched columns if needed.
func BuildCodeIndex(snap *Snapshot, pos []int) *CodeIndex {
	if testHasher != nil {
		return buildCodeIndex(snap, pos, testHasher)
	}
	return buildCodeIndex(snap, pos, hashCodes)
}

// IndexFor returns cx when it is an index over snap on exactly pos, and
// a fresh BuildCodeIndex otherwise (a nil, foreign-snapshot or
// wrong-position index is rebuilt, never misused). A nil snapshot has
// no index.
func IndexFor(snap *Snapshot, pos []int, cx *CodeIndex) *CodeIndex {
	switch {
	case snap == nil:
		return nil
	case cx == nil || cx.snap != snap || !slices.Equal(cx.pos, pos):
		return BuildCodeIndex(snap, pos)
	}
	return cx
}

func buildCodeIndex(snap *Snapshot, pos []int, hash codeHasher) *CodeIndex {
	n := snap.Len()
	cx := &CodeIndex{
		snap:   snap,
		pos:    append([]int(nil), pos...),
		hash:   hash,
		extend: new(atomic.Bool),
	}
	cols := make([][]uint32, len(cx.pos))
	for i, p := range cx.pos {
		cols[i] = snap.Col(p) // interns the column on first touch
	}
	if n == 0 {
		cx.starts = []int32{0}
		return cx
	}
	// Probe table at load factor <= 1/2, power-of-two sized.
	size := uint64(16)
	for size < uint64(n)*2 {
		size *= 2
	}
	cx.table = make([]int32, size)
	cx.mask = size - 1
	cx.rowGroup = make([]int32, n)
	var reps []int32   // group ordinal -> first (representative) row
	var counts []int32 // group ordinal -> member count
	codes := make([]uint32, len(cx.pos))
	for row := 0; row < n; row++ {
		for i := range cols {
			codes[i] = cols[i][row]
		}
		idx := hash(codes) & cx.mask
		for {
			e := cx.table[idx]
			if e == 0 {
				gi := int32(len(reps))
				cx.table[idx] = gi + 1
				reps = append(reps, int32(row))
				counts = append(counts, 1)
				cx.rowGroup[row] = gi
				break
			}
			gi := e - 1
			rep := reps[gi]
			same := true
			for i := range cols {
				if cols[i][rep] != codes[i] {
					same = false
					break
				}
			}
			if same {
				cx.rowGroup[row] = gi
				counts[gi]++
				break
			}
			idx = (idx + 1) & cx.mask
		}
	}
	// Lay the groups out contiguously: prefix-sum the counts into span
	// starts, then fill the arena in row order (groups stay ascending).
	g := len(reps)
	cx.ngroups = g
	cx.starts = make([]int32, g+1)
	for i, c := range counts {
		cx.starts[i+1] = cx.starts[i] + c
	}
	cur := counts // reuse as fill cursors
	copy(cur, cx.starts[:g])
	cx.arena = make([]int32, n)
	for row := 0; row < n; row++ {
		gi := cx.rowGroup[row]
		cx.arena[cur[gi]] = int32(row)
		cur[gi]++
	}
	return cx
}

// group returns the member rows of group ordinal gi: its arena span
// when it has one, merged with any rows appended since the last arena
// layout. With no appended rows (the steady state after fold) this is
// a pure slice of the arena; a group with both an arena span and an
// extra tail pays one merge copy, preserving the ascending invariant
// because appended rows carry the highest indexes.
func (cx *CodeIndex) group(gi int32) []int32 {
	var base []int32
	if int(gi)+1 < len(cx.starts) {
		base = cx.arena[cx.starts[gi]:cx.starts[gi+1]]
	}
	if cx.nExtra == 0 {
		return base
	}
	ext := cx.extra[gi]
	if len(ext) == 0 {
		return base
	}
	if len(base) == 0 {
		return ext
	}
	out := make([]int32, 0, len(base)+len(ext))
	out = append(out, base...)
	return append(out, ext...)
}

// Groups invokes fn for every group with at least minSize members. Rows
// within a group ascend (so rows[0] has the lowest TID); groups iterate
// in first-appearance order — deterministic, unlike Index.Groups' map
// order.
func (cx *CodeIndex) Groups(minSize int, fn func(rows []int32)) {
	for gi := 0; gi < cx.ngroups; gi++ {
		if rows := cx.group(int32(gi)); len(rows) >= minSize {
			fn(rows)
		}
	}
}

// GroupsWhile is Groups with early termination: iteration stops as soon
// as fn returns false.
func (cx *CodeIndex) GroupsWhile(minSize int, fn func(rows []int32) bool) {
	for gi := 0; gi < cx.ngroups; gi++ {
		if rows := cx.group(int32(gi)); len(rows) >= minSize && !fn(rows) {
			return
		}
	}
}

// GroupOf returns the group (member rows) of the given row.
func (cx *CodeIndex) GroupOf(row int) []int32 { return cx.group(cx.rowGroup[row]) }

// GroupOrdinal returns the dense ordinal of row's group, usable for
// O(1) seen-group deduplication.
func (cx *CodeIndex) GroupOrdinal(row int) int32 { return cx.rowGroup[row] }

// Lookup returns the TIDs whose projection equals that of t (a tuple of
// the snapshot's full arity), like Index.Lookup. If any projected value
// of t never occurs in its column, no group can match and Lookup returns
// nil without probing.
func (cx *CodeIndex) Lookup(t Tuple) []TID {
	codes := make([]uint32, len(cx.pos))
	for i, p := range cx.pos {
		c, ok := cx.snap.Dict(p).Code(t[p])
		if !ok {
			return nil
		}
		codes[i] = c
	}
	return cx.LookupCodes(codes)
}

// LookupValues returns the TIDs whose projection equals the given value
// sequence (one value per indexed position, in index position order).
// Unlike Lookup the values need not come from a tuple of the indexed
// relation — they are translated through the snapshot's dictionaries, so
// a CIND can probe a target-relation index with source-tuple values (or
// the reverse). A value that never occurs in its column matches nothing.
func (cx *CodeIndex) LookupValues(vals []Value) []TID {
	codes := make([]uint32, len(cx.pos))
	for i, p := range cx.pos {
		c, ok := cx.snap.Dict(p).Code(vals[i])
		if !ok {
			return nil
		}
		codes[i] = c
	}
	return cx.LookupCodes(codes)
}

// LookupCodes returns the TIDs of the group whose projection code
// sequence equals codes (one code per indexed position, in index
// position order, drawn from the snapshot's dictionaries). It is the
// raw probe under Lookup/LookupValues: callers that already hold codes
// — a cross-relation prober that translated them once per distinct
// source value — skip the per-probe dictionary work entirely.
func (cx *CodeIndex) LookupCodes(codes []uint32) []TID {
	rows := cx.lookupRows(codes)
	if len(rows) == 0 {
		return nil
	}
	out := make([]TID, len(rows))
	for i, r := range rows {
		out[i] = cx.snap.ids[r]
	}
	return out
}

// HasCodes reports whether some row's projection code sequence equals
// codes — LookupCodes without materializing the TID slice, the
// existence probe CIND target matching runs per source group.
func (cx *CodeIndex) HasCodes(codes []uint32) bool {
	return len(cx.lookupRows(codes)) > 0
}

// lookupRows probes the table for the group with the given projection
// code sequence and returns its member rows (nil when absent).
func (cx *CodeIndex) lookupRows(codes []uint32) []int32 {
	if len(cx.table) == 0 {
		return nil
	}
	idx := cx.hash(codes) & cx.mask
	for {
		e := cx.table[idx]
		if e == 0 {
			return nil
		}
		rows := cx.group(e - 1)
		if len(rows) == 0 {
			// A group emptied by delta maintenance (apply): its slot stays
			// in the probe chain but it has no representative to verify
			// against, so it can never match.
			idx = (idx + 1) & cx.mask
			continue
		}
		rep := int(rows[0])
		match := true
		for i, p := range cx.pos {
			if cx.snap.cols[p][rep] != codes[i] {
				match = false
				break
			}
		}
		if match {
			return rows
		}
		idx = (idx + 1) & cx.mask
	}
}

// apply derives the group index of ns — the snapshot produced by
// cx.snap.Apply with net delta d, row map rowMap (old row -> new
// row, -1 = deleted) and firstNew carried rows — by splicing the
// touched rows out of and into their groups instead of rebuilding:
//
//   - If the delta neither inserts nor deletes rows nor updates any
//     indexed position, the whole index is shared structurally (same
//     arena, spans, probe table) — O(1).
//   - Otherwise only the moved rows (updated on an indexed position, or
//     inserted) are hashed and probed; every other row keeps its group
//     assignment, remapped by a straight copy. Group ordinals are
//     preserved, so the probe table is carried over verbatim; new
//     groups append. A group whose members all leave keeps its slot in
//     the probe chain but can never match again (no representative) —
//     when such dead groups outnumber the live ones the index falls
//     back to a full rebuild, as it does when the delta stops being
//     small relative to the snapshot.
//
// Hash collisions remain verified, never trusted: a moved row joins a
// group only after its code sequence is compared against a group
// member's (codes are comparable across the two snapshots because
// Snapshot.Apply shares the append-only dictionaries).
func (cx *CodeIndex) apply(ns *Snapshot, d *Delta, rowMap []int32, firstNew int) *CodeIndex {
	// The splice below reads group membership straight off starts/arena
	// (and uses span widths as counts); fold any append-absorbed rows
	// into a flat arena first so that assumption holds.
	if cx.nExtra > 0 {
		cx = cx.fold()
	}
	// movedOld: old rows leaving their group because an indexed position
	// was updated (deleted rows are handled via rowMap).
	var movedOld map[int32]bool
	var movedNew []int32 // new rows to (re)place, ascending
	for id, ps := range d.Updated {
		touched := false
		for _, p := range ps {
			for _, q := range cx.pos {
				if p == q {
					touched = true
					break
				}
			}
			if touched {
				break
			}
		}
		if !touched {
			continue
		}
		row, ok := cx.snap.Row(id)
		if !ok {
			continue
		}
		if movedOld == nil {
			movedOld = make(map[int32]bool)
		}
		movedOld[int32(row)] = true
		if rowMap == nil { // identity: structural delta
			movedNew = append(movedNew, int32(row))
		} else {
			movedNew = append(movedNew, rowMap[row])
		}
	}
	if len(d.Inserted) == 0 && len(d.Deleted) == 0 && len(movedNew) == 0 {
		// Nothing the index can see changed: share everything (including
		// the extension claim — the arrays are the same backing).
		return &CodeIndex{snap: ns, pos: cx.pos, hash: cx.hash,
			arena: cx.arena, starts: cx.starts, rowGroup: cx.rowGroup,
			table: cx.table, mask: cx.mask,
			ngroups: cx.ngroups, extend: cx.extend}
	}
	nNew := ns.Len()
	if len(cx.table) == 0 || len(movedNew)+len(d.Inserted)+len(d.Deleted) > nNew/4 {
		return buildCodeIndex(ns, cx.pos, cx.hash)
	}
	sort.Slice(movedNew, func(i, j int) bool { return movedNew[i] < movedNew[j] })
	for nr := firstNew; nr < nNew; nr++ {
		movedNew = append(movedNew, int32(nr))
	}

	G := len(cx.starts) - 1
	counts := make([]int32, G, G+len(movedNew))
	var newRowGroup []int32
	if rowMap == nil {
		// Structural delta: rows did not shift, so group assignments
		// memcpy over, counts fall out of the span widths, and only the
		// moved rows leave their groups.
		newRowGroup = append([]int32(nil), cx.rowGroup...)
		for i := range counts {
			counts[i] = cx.starts[i+1] - cx.starts[i]
		}
		for _, nr := range movedNew {
			counts[cx.rowGroup[nr]]--
		}
	} else {
		// Carry over every surviving, unmoved row with its old group.
		newRowGroup = make([]int32, nNew)
		for oldRow, gi := range cx.rowGroup {
			nr := rowMap[oldRow]
			if nr < 0 || movedOld[int32(oldRow)] {
				continue
			}
			newRowGroup[nr] = gi
			counts[gi]++
		}
	}

	// Place the moved rows through a copy of the probe table. Old group
	// keys are read from the old snapshot's frozen columns (any old
	// member row carries the key, even one that just left); new groups'
	// keys from the new snapshot.
	oldCols := make([][]uint32, len(cx.pos))
	newCols := make([][]uint32, len(cx.pos))
	for i, p := range cx.pos {
		oldCols[i] = cx.snap.Col(p)
		newCols[i] = ns.Col(p)
	}
	// The probe table is shared until a write is needed (a batch whose
	// moved rows all land in existing groups — the common steady state —
	// never copies it).
	table := cx.table
	tableOwned := false
	mask := cx.mask
	var newReps []int32 // group ordinal - G -> representative new row
	matches := func(gi int32, codes []uint32) bool {
		if int(gi) < G {
			rows := cx.group(gi)
			if len(rows) == 0 {
				return false // dead before this delta: key unrecoverable
			}
			rep := rows[0]
			for i := range codes {
				if oldCols[i][rep] != codes[i] {
					return false
				}
			}
			return true
		}
		rep := newReps[int(gi)-G]
		for i := range codes {
			if newCols[i][rep] != codes[i] {
				return false
			}
		}
		return true
	}
	codes := make([]uint32, len(cx.pos))
	for _, nr := range movedNew {
		for i := range newCols {
			codes[i] = newCols[i][nr]
		}
		// Keep the load factor <= 1/2 counting every slot ever assigned
		// (dead groups still occupy probe slots).
		if uint64(len(counts)+1)*2 > uint64(len(table)) {
			size := uint64(len(table)) * 2
			table = make([]int32, size)
			tableOwned = true
			mask = size - 1
			reseat := make([]uint32, len(cx.pos))
			for gi := 0; gi < len(counts); gi++ {
				var rep int32
				if gi < G {
					rows := cx.group(int32(gi))
					if len(rows) == 0 {
						continue // dead: drop from the grown table
					}
					rep = rows[0]
					for i := range reseat {
						reseat[i] = oldCols[i][rep]
					}
				} else {
					rep = newReps[gi-G]
					for i := range reseat {
						reseat[i] = newCols[i][rep]
					}
				}
				idx := cx.hash(reseat) & mask
				for table[idx] != 0 {
					idx = (idx + 1) & mask
				}
				table[idx] = int32(gi) + 1
			}
		}
		idx := cx.hash(codes) & mask
		for {
			e := table[idx]
			if e == 0 {
				if !tableOwned {
					table = append([]int32(nil), table...)
					tableOwned = true
				}
				gi := int32(len(counts))
				table[idx] = gi + 1
				counts = append(counts, 1)
				newReps = append(newReps, nr)
				newRowGroup[nr] = gi
				break
			}
			if matches(e-1, codes) {
				newRowGroup[nr] = e - 1
				counts[e-1]++
				break
			}
			idx = (idx + 1) & mask
		}
	}

	// Dead-group hygiene: when emptied groups outnumber live ones the
	// spliced index wastes probe slots and span bookkeeping — rebuild.
	empty := 0
	for _, c := range counts {
		if c == 0 {
			empty++
		}
	}
	if empty*2 > len(counts) {
		return buildCodeIndex(ns, cx.pos, cx.hash)
	}

	// Lay the groups out contiguously again (groups keep their ordinal,
	// rows ascend within each span because the fill walks rows in order).
	G2 := len(counts)
	starts := make([]int32, G2+1)
	for i, c := range counts {
		starts[i+1] = starts[i] + c
	}
	cur := counts // reuse as fill cursors
	copy(cur, starts[:G2])
	arena := make([]int32, nNew)
	rg := newRowGroup
	for nr := 0; nr < nNew; nr++ {
		gi := rg[nr]
		arena[cur[gi]] = int32(nr)
		cur[gi]++
	}
	return &CodeIndex{snap: ns, pos: cx.pos, hash: cx.hash,
		arena: arena, starts: starts, rowGroup: rg, table: table, mask: mask,
		ngroups: G2, extend: new(atomic.Bool)}
}

// applyAppend derives the group index of ns — produced by the
// append-only Snapshot fast path, with rows firstNew..ns.Len() newly
// appended — without re-laying the arena. Each appended row is hashed
// and probed (O(|Δ|)); matched rows land in the extra tail of their
// group, new groups take ordinals beyond starts with their members
// held entirely in extra. The probe table is shared copy-on-write and
// grown when the load factor demands it, exactly like the splice
// path. Once the absorbed tail stops being small relative to the
// snapshot the result folds back into a flat arena, so the per-batch
// cost stays O(|Δ|) amortized with an O(n) layout every O(n/|Δ|)
// batches — never the per-batch O(n) the splice pays.
func (cx *CodeIndex) applyAppend(ns *Snapshot, firstNew int) *CodeIndex {
	nNew := ns.Len()
	k := nNew - firstNew
	if len(cx.table) == 0 || k > nNew/4 {
		// Empty base (no probe table to extend) or a batch so large the
		// O(n) rebuild is within a constant of the absorb: rebuild.
		return buildCodeIndex(ns, cx.pos, cx.hash)
	}
	cols := make([][]uint32, len(cx.pos))
	for i, p := range cx.pos {
		cols[i] = ns.Col(p) // shared prefix: valid for old and appended rows
	}
	claimed := cx.extend.CompareAndSwap(false, true)
	rg := cx.rowGroup
	if !claimed {
		rg = make([]int32, len(cx.rowGroup), nNew)
		copy(rg, cx.rowGroup)
	}
	// The extra map is copied per derivation (readers of the old index
	// walk their own version); the member slices are extended in place
	// under the claim, or copied when it was lost.
	extra := make(map[int32][]int32, len(cx.extra)+k)
	for g, rows := range cx.extra {
		if claimed {
			extra[g] = rows
		} else {
			extra[g] = append([]int32(nil), rows...)
		}
	}
	ngroups := cx.ngroups
	table := cx.table
	tableOwned := false
	mask := cx.mask
	G0 := len(cx.starts) - 1
	// repOf returns a representative row of group gi, or -1 for a dead
	// group (no arena span, no extra members) — dead groups keep their
	// probe slot but can never match.
	repOf := func(gi int32) int32 {
		if int(gi) < G0 {
			if s0, s1 := cx.starts[gi], cx.starts[gi+1]; s1 > s0 {
				return cx.arena[s0]
			}
		}
		if ext := extra[gi]; len(ext) > 0 {
			return ext[0]
		}
		return -1
	}
	codes := make([]uint32, len(cx.pos))
	for nr := firstNew; nr < nNew; nr++ {
		for i := range cols {
			codes[i] = cols[i][nr]
		}
		// Load factor <= 1/2 counting every slot ever assigned.
		if uint64(ngroups+1)*2 > uint64(len(table)) {
			size := uint64(len(table)) * 2
			grown := make([]int32, size)
			tableOwned = true
			mask = size - 1
			reseat := make([]uint32, len(cx.pos))
			for gi := 0; gi < ngroups; gi++ {
				rep := repOf(int32(gi))
				if rep < 0 {
					continue // dead: drop from the grown table
				}
				for i := range reseat {
					reseat[i] = cols[i][rep]
				}
				idx := cx.hash(reseat) & mask
				for grown[idx] != 0 {
					idx = (idx + 1) & mask
				}
				grown[idx] = int32(gi) + 1
			}
			table = grown
		}
		idx := cx.hash(codes) & mask
		for {
			e := table[idx]
			if e == 0 {
				if !tableOwned {
					table = append([]int32(nil), table...)
					tableOwned = true
				}
				gi := int32(ngroups)
				table[idx] = gi + 1
				ngroups++
				extra[gi] = append(extra[gi], int32(nr))
				rg = append(rg, gi)
				break
			}
			gi := e - 1
			rep := repOf(gi)
			same := rep >= 0
			if same {
				for i := range cols {
					if cols[i][rep] != codes[i] {
						same = false
						break
					}
				}
			}
			if same {
				extra[gi] = append(extra[gi], int32(nr))
				rg = append(rg, gi)
				break
			}
			idx = (idx + 1) & mask
		}
	}
	out := &CodeIndex{snap: ns, pos: cx.pos, hash: cx.hash,
		arena: cx.arena, starts: cx.starts, rowGroup: rg,
		table: table, mask: mask,
		extra: extra, nExtra: cx.nExtra + k,
		ngroups: ngroups, extend: new(atomic.Bool)}
	if out.nExtra > nNew/8+256 {
		return out.fold()
	}
	return out
}

// fold re-lays the arena from rowGroup so every group is a contiguous
// span again — O(n) with no hashing (the probe table, mask and group
// ordinals all carry over). It is the amortization step of the append
// fast path and the normalization apply runs before splicing.
func (cx *CodeIndex) fold() *CodeIndex {
	n := len(cx.rowGroup)
	counts := make([]int32, cx.ngroups)
	for _, gi := range cx.rowGroup {
		counts[gi]++
	}
	starts := make([]int32, cx.ngroups+1)
	for i, c := range counts {
		starts[i+1] = starts[i] + c
	}
	cur := counts // reuse as fill cursors
	copy(cur, starts[:cx.ngroups])
	arena := make([]int32, n)
	for row := 0; row < n; row++ {
		gi := cx.rowGroup[row]
		arena[cur[gi]] = int32(row)
		cur[gi]++
	}
	return &CodeIndex{snap: cx.snap, pos: cx.pos, hash: cx.hash,
		arena: arena, starts: starts, rowGroup: cx.rowGroup,
		table: cx.table, mask: cx.mask,
		ngroups: cx.ngroups, extend: cx.extend}
}

// Len returns the number of distinct projection groups.
func (cx *CodeIndex) Len() int { return cx.ngroups }

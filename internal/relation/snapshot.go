package relation

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Snapshot is a frozen columnar view of an Instance: tuples in ascending
// TID order are laid out as dense per-attribute arrays of dictionary
// codes. It is the representation the batch detection engine runs on —
// projection keys hash fixed-width code sequences instead of building
// per-tuple strings, value equality is an integer compare, and iteration
// is a linear array walk instead of a map lookup per TID.
//
// Columns are interned lazily, one attribute at a time, on first touch
// (Col, Dict, Code, Value, or an index build): a batch whose rules
// mention three of seven attributes never pays for the other four. Lazy
// builds are synchronized, so a snapshot is safe for concurrent readers.
//
// A snapshot is genuinely frozen: it holds the tuple set as of build
// time, and Instance.Update replaces tuples copy-on-write, so later
// mutations never change values under a snapshot's readers (columns may
// safely be interned even after the instance moved on). The snapshot
// captures the instance version at build time; mutating the instance
// makes it detectably stale (Stale), and readers that need freshness
// rebuild — SnapshotOf does so automatically — rather than reading
// outdated groups.
type Snapshot struct {
	source  *Instance
	schema  *Schema
	version uint64
	ids     []TID         // row -> TID, ascending
	tuples  []Tuple       // row -> tuple, frozen at build time
	over    map[int]Tuple // sparse overlay of updated rows over a shared tuples array (Apply)
	once    []sync.Once
	built   []atomic.Bool // built[attr]: cols/dicts[attr] published (set after once fires)
	cols    [][]uint32    // cols[attr][row], nil until interned
	dicts   []*Dict       // one per attribute, nil until interned

	// extend arbitrates the spare capacity past the visible length of
	// the row-shaped backing arrays (tuples and interned cols): Apply's
	// append-only fast path extends them in place, which is safe for
	// exactly one derivation per backing — readers of this snapshot
	// never look past their own length, but two extenders would write
	// the same tail. The first derivation to CAS the flag wins the
	// tail; later ones copy. Snapshots that share backing arrays
	// (structural Apply children) share the flag.
	extend *atomic.Bool

	// cxMu guards cxCache, the per-position-set CodeIndex cache
	// (CodeIndexOn). Snapshots are immutable, so a group index never
	// goes stale while its snapshot is live; batches and repeated runs
	// share them.
	cxMu    sync.Mutex
	cxCache map[string]*CodeIndex
}

// NewSnapshot freezes the instance into columnar form. The constructor
// itself is a single cheap pass (collecting the tuple pointers in TID
// order); per-attribute dictionary interning happens lazily on first use
// of each column.
func NewSnapshot(in *Instance) *Snapshot {
	arity := in.Schema().Arity()
	// Aliasing the cached IDs slice is safe: the instance never mutates
	// the visible range of a handed-out slice (Insert appends past it,
	// Delete replaces it wholesale).
	ids := in.IDs()
	s := &Snapshot{
		source:  in,
		schema:  in.Schema(),
		version: in.Version(),
		ids:     ids,
		tuples:  make([]Tuple, len(ids)),
		once:    make([]sync.Once, arity),
		built:   make([]atomic.Bool, arity),
		cols:    make([][]uint32, arity),
		dicts:   make([]*Dict, arity),
		extend:  new(atomic.Bool),
	}
	for row, id := range s.ids {
		t, _ := in.Tuple(id)
		s.tuples[row] = t
	}
	return s
}

// ensure interns column p if it has not been yet. The fresh Dict is
// private until published, so the bulk pass pays no per-cell locking.
func (s *Snapshot) ensure(p int) {
	s.once[p].Do(func() {
		d := NewDict()
		col := make([]uint32, len(s.ids))
		if s.over == nil {
			for row, t := range s.tuples {
				col[row] = d.intern(t[p])
			}
		} else {
			for row := range col {
				col[row] = d.intern(s.TupleAt(row)[p])
			}
		}
		s.cols[p] = col
		s.dicts[p] = d
		s.built[p].Store(true)
	})
}

// Schema returns the snapshotted schema.
func (s *Snapshot) Schema() *Schema { return s.schema }

// Len returns the number of rows (tuples) frozen.
func (s *Snapshot) Len() int { return len(s.ids) }

// TID maps a dense row index back to the tuple identifier.
func (s *Snapshot) TID(row int) TID { return s.ids[row] }

// TupleAt returns the frozen tuple at a dense row index — an array
// access, unlike Instance.Tuple's map lookup (snapshots derived by
// Apply may route a few recently-updated rows through a sparse
// overlay). The tuple must not be modified.
func (s *Snapshot) TupleAt(row int) Tuple {
	if s.over != nil {
		if t, ok := s.over[row]; ok {
			return t
		}
	}
	return s.tuples[row]
}

// Row maps a tuple identifier to its dense row index by binary search
// over the ascending TID array.
func (s *Snapshot) Row(id TID) (int, bool) {
	row := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	if row < len(s.ids) && s.ids[row] == id {
		return row, true
	}
	return 0, false
}

// Code returns the dictionary code of cell (row, pos). Hot loops should
// hoist Col(pos) instead of calling Code per cell.
func (s *Snapshot) Code(row, pos int) uint32 {
	s.ensure(pos)
	return s.cols[pos][row]
}

// Col returns the full code column of attribute pos (row-indexed),
// interning it on first touch. The slice must not be modified.
func (s *Snapshot) Col(pos int) []uint32 {
	s.ensure(pos)
	return s.cols[pos]
}

// Dict returns the dictionary of attribute pos, interning the column on
// first touch.
func (s *Snapshot) Dict(pos int) *Dict {
	s.ensure(pos)
	return s.dicts[pos]
}

// Value decodes cell (row, pos) back to a Value Equal to the original.
func (s *Snapshot) Value(row, pos int) Value {
	s.ensure(pos)
	return s.dicts[pos].Value(s.cols[pos][row])
}

// CodeIndexOn returns the snapshot's CodeIndex on the given attribute
// positions, building and caching it on first request. Since snapshots
// are immutable the cached index can never go stale; every batch (and
// every repeated run over an unchanged instance, via SnapshotOf) shares
// it. Concurrent first requests may build twice; the last stored wins
// and both are equivalent.
func (s *Snapshot) CodeIndexOn(pos []int) *CodeIndex {
	key := posKey(pos)
	s.cxMu.Lock()
	if cx, ok := s.cxCache[key]; ok {
		s.cxMu.Unlock()
		return cx
	}
	s.cxMu.Unlock()
	cx := BuildCodeIndex(s, pos)
	s.cxMu.Lock()
	if s.cxCache == nil {
		s.cxCache = make(map[string]*CodeIndex)
	}
	s.cxCache[key] = cx
	s.cxMu.Unlock()
	return cx
}

// posKey renders a position list as a compact cache key.
func posKey(pos []int) string {
	b := make([]byte, 0, 3*len(pos))
	for _, p := range pos {
		b = strconv.AppendInt(b, int64(p), 10)
		b = append(b, ',')
	}
	return string(b)
}

// Version returns the instance version the snapshot was built at.
func (s *Snapshot) Version() uint64 { return s.version }

// Source returns the instance the snapshot was frozen from.
func (s *Snapshot) Source() *Instance { return s.source }

// Stale reports whether the source instance has been mutated (Insert,
// Delete or Update) since the snapshot was built.
func (s *Snapshot) Stale() bool { return s.source.Version() != s.version }

// Apply derives the snapshot of the source instance's current state
// from this snapshot plus the changelog entries recorded since it was
// built (exactly the slice ChangesSince(s.Version()) returns). It is
// the incremental-maintenance counterpart of NewSnapshot: instead of
// re-freezing and re-interning the whole instance it
//
//   - structurally shares every interned code column untouched by the
//     delta (same backing array — zero work) when no row was inserted
//     or deleted, and otherwise splices columns with a straight copy
//     (no per-cell hashing);
//   - shares the per-attribute dictionaries outright — Dict is
//     append-only, so every code frozen into the old columns stays
//     valid — and interns only the changed cells (O(|Δ|) hash work);
//   - migrates every cached CodeIndex to the new snapshot via the same
//     splice-not-rebuild strategy (see CodeIndex apply).
//
// The old snapshot remains fully usable (its columns are never written;
// shared dictionaries only grow), which is what lets the detect
// monitors diff detection results between the pre- and post-batch
// snapshots.
//
// Apply must not run concurrently with mutations of the source
// instance (the usual single-writer contract); concurrent readers of
// either snapshot are fine.
func (s *Snapshot) Apply(entries []ChangeEntry) *Snapshot {
	if len(entries) == 0 {
		return s
	}
	d := NetDelta(entries)
	in := s.source
	arity := s.schema.Arity()
	nOld := len(s.ids)
	// structural: no row was inserted or deleted, so row indexes are
	// stable and everything row-shaped can be shared or memcpy'd.
	structural := len(d.Inserted) == 0 && len(d.Deleted) == 0

	// Insert-only deltas — the dominant ingest shape — take the
	// append-only fast path: O(|Δ|) instead of an O(n) column splice.
	if !structural && len(d.Deleted) == 0 && len(d.Updated) == 0 {
		if ns := s.applyAppend(&d, entries[len(entries)-1].Version); ns != nil {
			return ns
		}
	}

	ns := &Snapshot{
		source:  in,
		schema:  s.schema,
		version: entries[len(entries)-1].Version,
		once:    make([]sync.Once, arity),
		built:   make([]atomic.Bool, arity),
		cols:    make([][]uint32, arity),
		dicts:   make([]*Dict, arity),
	}

	// rowMap: old row -> new row, -1 for deleted rows; nil means the
	// identity (structural deltas). Surviving rows keep their relative
	// order; inserted TIDs are strictly larger than every pre-existing
	// TID, so they all append at the tail.
	var rowMap []int32
	firstNew := nOld
	if structural {
		// The child shares row-shaped backing arrays (untouched columns,
		// possibly tuples) with its parent, so they share the extension
		// claim too; a splice child gets fresh arrays and a fresh claim.
		ns.extend = s.extend
		ns.ids = s.ids // shared: immutable
		// Updated tuples ride a sparse overlay over the shared tuples
		// array (the instance replaces tuples copy-on-write, so the
		// current pointer reflects every update of the delta). The
		// overlay is copied forward each Apply (the old snapshot's
		// readers share the old map), so it is compacted into a flat
		// copy once it stops being small relative to the batch — that
		// keeps the per-batch copy O(|Δ|) and amortizes the flat copies
		// over many batches, instead of letting a long stream of small
		// batches accumulate an ever-growing map that each batch re-pays.
		over := make(map[int]Tuple, len(s.over)+len(d.Updated))
		for row, t := range s.over {
			over[row] = t
		}
		for id := range d.Updated {
			if t, ok := in.Tuple(id); ok {
				row, _ := s.Row(id)
				over[row] = t
			}
		}
		if len(over) > max(256, 4*len(d.Updated)) || len(over) > nOld/8+64 {
			flat := make([]Tuple, nOld)
			copy(flat, s.tuples)
			for row, t := range over {
				flat[row] = t
			}
			ns.tuples = flat
		} else {
			ns.tuples = s.tuples
			ns.over = over
		}
	} else {
		ns.extend = new(atomic.Bool)
		deleted := make(map[TID]bool, len(d.Deleted))
		for _, id := range d.Deleted {
			deleted[id] = true
		}
		rowMap = make([]int32, nOld)
		newIDs := make([]TID, 0, nOld-len(d.Deleted)+len(d.Inserted))
		tuples := make([]Tuple, 0, nOld-len(d.Deleted)+len(d.Inserted))
		for row, id := range s.ids {
			if deleted[id] {
				rowMap[row] = -1
				continue
			}
			rowMap[row] = int32(len(newIDs))
			newIDs = append(newIDs, id)
			tuples = append(tuples, s.TupleAt(row))
		}
		firstNew = len(newIDs)
		for _, id := range d.Inserted {
			t, _ := in.Tuple(id)
			newIDs = append(newIDs, id)
			tuples = append(tuples, t)
		}
		for id := range d.Updated {
			if t, ok := in.Tuple(id); ok {
				row, _ := s.Row(id)
				tuples[rowMap[row]] = t
			}
		}
		ns.ids = newIDs
		ns.tuples = tuples
	}
	// newRowOf maps a surviving pre-existing TID to its new row.
	newRowOf := func(id TID) int32 {
		row, _ := s.Row(id)
		if rowMap == nil {
			return int32(row)
		}
		return rowMap[row]
	}

	// Columns. Only columns the old snapshot interned are materialized;
	// the rest stay lazy on the new snapshot too.
	posTouched := make([]bool, arity)
	for _, ps := range d.Updated {
		for _, p := range ps {
			posTouched[p] = true
		}
	}
	for p := 0; p < arity; p++ {
		if !s.built[p].Load() {
			continue
		}
		dict := s.dicts[p]
		if structural && !posTouched[p] {
			// Untouched column, same rows: share the backing array.
			ns.cols[p] = s.cols[p]
			ns.dicts[p] = dict
			ns.once[p].Do(func() {})
			ns.built[p].Store(true)
			continue
		}
		col := make([]uint32, len(ns.ids))
		old := s.cols[p]
		if structural {
			copy(col, old)
		} else {
			for row, c := range old {
				if nr := rowMap[row]; nr >= 0 {
					col[nr] = c
				}
			}
		}
		for id, ps := range d.Updated {
			for _, q := range ps {
				if q == p {
					nr := newRowOf(id)
					col[nr] = dict.Intern(ns.TupleAt(int(nr))[p])
					break
				}
			}
		}
		for i := range d.Inserted {
			nr := firstNew + i
			col[nr] = dict.Intern(ns.tuples[nr][p])
		}
		ns.cols[p] = col
		ns.dicts[p] = dict
		ns.once[p].Do(func() {})
		ns.built[p].Store(true)
	}

	// Migrate the cached group indexes: every index the old snapshot
	// carried is spliced onto the new one, so steady-state detection
	// (the monitors, or SnapshotOf-backed engines) never rebuilds an
	// index it already had.
	s.cxMu.Lock()
	oldCache := make(map[string]*CodeIndex, len(s.cxCache))
	for k, cx := range s.cxCache {
		oldCache[k] = cx
	}
	s.cxMu.Unlock()
	if len(oldCache) > 0 {
		ns.cxCache = make(map[string]*CodeIndex, len(oldCache))
		for k, cx := range oldCache {
			ns.cxCache[k] = cx.apply(ns, &d, rowMap, firstNew)
		}
	}
	return ns
}

// applyAppend is Apply's fast path for insert-only deltas. Inserted
// TIDs are strictly above every pre-existing one, so the new rows are
// a pure tail: instead of splicing every interned column (an O(n)
// copy per batch) the old snapshot's backing arrays are extended in
// place — the spare capacity past the old length is invisible to the
// old snapshot's readers, and the extend claim guarantees a single
// writer per backing. A batch then costs O(|Δ|) interning plus a tail
// append; when the claim is lost (a concurrent double-derivation, or
// a second child of the same base) or capacity runs out, append's
// geometric growth pays one amortized copy. Cached group indexes are
// absorbed without re-laying the arena (CodeIndex applyAppend).
//
// Returns nil when the instance's current TID set is not exactly
// old-prefix + inserted-tail — the caller falls back to the splice.
func (s *Snapshot) applyAppend(d *Delta, version uint64) *Snapshot {
	in := s.source
	nOld := len(s.ids)
	ids := in.IDs()
	if len(ids) != nOld+len(d.Inserted) ||
		(nOld > 0 && (ids[nOld-1] != s.ids[nOld-1] || d.Inserted[0] <= s.ids[nOld-1])) {
		return nil
	}
	arity := s.schema.Arity()
	ns := &Snapshot{
		source:  in,
		schema:  s.schema,
		version: version,
		ids:     ids,
		over:    s.over, // shared read-only; appended rows are never overlaid
		once:    make([]sync.Once, arity),
		built:   make([]atomic.Bool, arity),
		cols:    make([][]uint32, arity),
		dicts:   make([]*Dict, arity),
		extend:  new(atomic.Bool),
	}
	ins := make([]Tuple, len(d.Inserted))
	for i, id := range d.Inserted {
		t, _ := in.Tuple(id)
		ins[i] = t
	}
	claimed := s.extend.CompareAndSwap(false, true)
	ns.tuples = extendTuples(s.tuples, ins, claimed)
	codes := make([]uint32, len(ins))
	for p := 0; p < arity; p++ {
		if !s.built[p].Load() {
			continue
		}
		dict := s.dicts[p]
		for i, t := range ins {
			codes[i] = dict.Intern(t[p])
		}
		ns.cols[p] = extendCodes(s.cols[p], codes, claimed)
		ns.dicts[p] = dict
		ns.once[p].Do(func() {})
		ns.built[p].Store(true)
	}
	s.cxMu.Lock()
	oldCache := make(map[string]*CodeIndex, len(s.cxCache))
	for k, cx := range s.cxCache {
		oldCache[k] = cx
	}
	s.cxMu.Unlock()
	if len(oldCache) > 0 {
		ns.cxCache = make(map[string]*CodeIndex, len(oldCache))
		for k, cx := range oldCache {
			ns.cxCache[k] = cx.applyAppend(ns, nOld)
		}
	}
	return ns
}

// extendTuples appends ins to old. With the claim won the append may
// land in old's spare capacity (writes past the old visible length,
// which no old-snapshot reader sees); without it the base is copied
// first so the parent's tail is never touched.
func extendTuples(old, ins []Tuple, claimed bool) []Tuple {
	if !claimed {
		cp := make([]Tuple, len(old), len(old)+len(ins))
		copy(cp, old)
		old = cp
	}
	return append(old, ins...)
}

// extendCodes is extendTuples for code columns.
func extendCodes(old, codes []uint32, claimed bool) []uint32 {
	if !claimed {
		cp := make([]uint32, len(old), len(old)+len(codes))
		copy(cp, old)
		old = cp
	}
	return append(old, codes...)
}

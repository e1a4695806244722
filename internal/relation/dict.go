package relation

import "sync"

// Dict is a per-attribute dictionary interning Values as dense uint32
// codes: two values receive the same code iff they are Equal. Snapshots
// build one Dict per attribute so that tuple cells become fixed-width
// codes, value equality becomes an integer compare, and projection keys
// become short code sequences instead of heap strings.
//
// Interning never materializes a per-cell key string. Values are
// canonicalized (folding the cross-kind equalities of Value.Equal: an
// integral float equals the same integer) and then dispatched by kind to
// Go's fast int64/string map paths; the rare remaining kinds (null,
// bool, non-integral floats) go through a small fallback map.
//
// Dict is append-only: a code, once assigned, never changes meaning.
// That is what makes incremental snapshot maintenance sound — when
// Snapshot.Apply derives a new snapshot it shares the old snapshot's
// dictionaries and interns only the changed cells, and every code held
// by the old snapshot's columns (and by any CodeIndex over them) stays
// valid. Because an old snapshot's readers may look codes up while a
// catch-up appends, the maps are guarded by an RWMutex; the bulk
// interning of a whole column during a snapshot build runs on a private
// unpublished Dict and pays no locking per cell.
type Dict struct {
	mu    sync.RWMutex
	ints  map[int64]uint32  // KindInt (and integral floats, canonicalized)
	strs  map[string]uint32 // KindString
	other map[Value]uint32  // null, bool, non-integral floats
	nan   *uint32           // the shared code of all NaN floats, if any
	vals  []Value           // code -> first value interned with that code
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		ints: make(map[int64]uint32),
		strs: make(map[string]uint32),
	}
}

// canonicalValue maps v to a representative such that two values are
// Equal iff their representatives are == as Go values (NaN aside: every
// NaN is Equal to every NaN, and the dictionary gives them one code). The
// only non-identity case is the numeric tower: an integral float is
// folded onto the int it denotes, exactly as Value.Key folds it.
// Value.Equal compares mixed numbers through this folding, so codes,
// keys and Equal agree on every pair of numbers, beyond 2^53 included.
func canonicalValue(v Value) Value {
	if v.kind == KindFloat {
		if i := int64(v.f); v.f == float64(i) {
			return Value{kind: KindInt, i: i}
		}
	}
	return v
}

// Intern returns the code of v, assigning the next free code when v has
// not been seen before. All NaN floats share one code, exactly as they
// share one Value.Key and are all Equal to each other (NaN cannot be a
// map key — as a Go map key every NaN is distinct — so it gets a
// dedicated slot).
func (d *Dict) Intern(v Value) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intern(v)
}

// intern is Intern without the lock, for bulk column builds over a
// not-yet-published Dict.
func (d *Dict) intern(v Value) uint32 {
	c := canonicalValue(v)
	if c.kind == KindFloat && c.f != c.f { // NaN
		if d.nan != nil {
			return *d.nan
		}
		code := uint32(len(d.vals))
		d.nan = &code
		d.vals = append(d.vals, v)
		return code
	}
	switch c.kind {
	case KindInt:
		if code, ok := d.ints[c.i]; ok {
			return code
		}
		code := uint32(len(d.vals))
		d.ints[c.i] = code
		d.vals = append(d.vals, v)
		return code
	case KindString:
		if code, ok := d.strs[c.s]; ok {
			return code
		}
		code := uint32(len(d.vals))
		d.strs[c.s] = code
		d.vals = append(d.vals, v)
		return code
	default:
		if code, ok := d.other[c]; ok {
			return code
		}
		if d.other == nil {
			d.other = make(map[Value]uint32)
		}
		code := uint32(len(d.vals))
		d.other[c] = code
		d.vals = append(d.vals, v)
		return code
	}
}

// Code returns the code of v and whether v was ever interned. Detection
// uses the miss case to prune pattern rows whose constants do not occur
// in the column at all.
func (d *Dict) Code(v Value) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := canonicalValue(v)
	if c.kind == KindFloat && c.f != c.f { // NaN
		if d.nan != nil {
			return *d.nan, true
		}
		return 0, false
	}
	switch c.kind {
	case KindInt:
		code, ok := d.ints[c.i]
		return code, ok
	case KindString:
		code, ok := d.strs[c.s]
		return code, ok
	default:
		code, ok := d.other[c]
		return code, ok
	}
}

// Value decodes a code back to a value Equal to every value interned
// under it (the first one interned is returned verbatim).
func (d *Dict) Value(code uint32) Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vals[code]
}

// Len returns the number of distinct values interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

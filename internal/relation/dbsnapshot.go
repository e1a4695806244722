package relation

// DBSnapshot is a frozen columnar view of a whole Database: one Snapshot
// per relation, all taken at construction time. It is the unit the
// multi-relation detection engine runs on — a CIND reads its source and
// target relations through one DBSnapshot, so both sides are evaluated
// against the same consistent freeze even while the underlying instances
// keep mutating.
//
// Construction is cheap in the steady state: each per-relation snapshot
// resolves through SnapshotOf, so an unchanged instance contributes its
// cached snapshot (interned columns and group indexes included) and a
// slightly-changed one catches up through its changelog instead of
// re-freezing. DBSnapshotOf additionally caches the DBSnapshot itself on
// the database, version-keyed: while no member instance has been
// mutated, repeated calls return the identical *DBSnapshot.
type DBSnapshot struct {
	db    *Database
	snaps map[string]*Snapshot
}

// NewDBSnapshot freezes every instance of the database (via SnapshotOf,
// so unchanged instances reuse their cached snapshots), bypassing the
// database-level cache.
func NewDBSnapshot(db *Database) *DBSnapshot {
	d := &DBSnapshot{db: db, snaps: make(map[string]*Snapshot, len(db.instances))}
	for name, in := range db.instances {
		d.snaps[name] = SnapshotOf(in)
	}
	return d
}

// DBSnapshotOf returns the version-keyed cached snapshot of the
// database, building one when none exists or any member instance has
// been mutated since the last build. Like SnapshotOf it is safe for
// concurrent readers; concurrent cache misses may build twice, last
// stored wins (both results are equivalent).
func DBSnapshotOf(db *Database) *DBSnapshot {
	db.mu.Lock()
	d := db.snapCache
	db.mu.Unlock()
	if d != nil && !d.Stale() {
		return d
	}
	d = NewDBSnapshot(db)
	db.mu.Lock()
	db.snapCache = d
	db.mu.Unlock()
	return d
}

// Snapshot returns the frozen snapshot of the named relation, or
// (nil, false) when the database holds no such relation.
func (d *DBSnapshot) Snapshot(name string) (*Snapshot, bool) {
	s, ok := d.snaps[name]
	return s, ok
}

// Names returns the snapshotted relation names in sorted order.
func (d *DBSnapshot) Names() []string { return d.db.Names() }

// Stale reports whether any member instance has been mutated (or the
// relation set changed) since the snapshot was built.
func (d *DBSnapshot) Stale() bool {
	d.db.mu.Lock()
	defer d.db.mu.Unlock()
	if len(d.db.instances) != len(d.snaps) {
		return true
	}
	for name, in := range d.db.instances {
		s, ok := d.snaps[name]
		if !ok || s.Source() != in || s.Stale() {
			return true
		}
	}
	return false
}

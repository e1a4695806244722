package relation

import (
	"reflect"
	"testing"
)

func dbFixture() (*Database, *Instance, *Instance) {
	r := MustSchema("r", Attr("a", KindString), Attr("b", KindInt))
	s := MustSchema("s", Attr("c", KindString), Attr("d", KindInt))
	in1 := NewInstance(r)
	in2 := NewInstance(s)
	in1.MustInsert(Str("x"), Int(1))
	in1.MustInsert(Str("y"), Int(2))
	in2.MustInsert(Str("x"), Int(1))
	db := NewDatabase()
	db.Add(in1)
	db.Add(in2)
	return db, in1, in2
}

func TestDBSnapshotFreezesEveryRelation(t *testing.T) {
	db, in1, _ := dbFixture()
	d := NewDBSnapshot(db)
	if got := d.Names(); !reflect.DeepEqual(got, []string{"r", "s"}) {
		t.Fatalf("Names = %v", got)
	}
	sr, ok := d.Snapshot("r")
	if !ok || sr.Len() != 2 {
		t.Fatalf("snapshot of r missing or wrong size")
	}
	if _, ok := d.Snapshot("nosuch"); ok {
		t.Fatal("snapshot of a missing relation should not exist")
	}
	if d.Stale() {
		t.Fatal("fresh DBSnapshot must not be stale")
	}
	in1.MustInsert(Str("z"), Int(3))
	if !d.Stale() {
		t.Fatal("mutating a member instance must stale the DBSnapshot")
	}
	// The frozen view is unchanged.
	if sr.Len() != 2 {
		t.Fatal("frozen snapshot changed size under mutation")
	}
}

func TestDBSnapshotOfCachesByVersion(t *testing.T) {
	db, in1, _ := dbFixture()
	d1 := DBSnapshotOf(db)
	if d2 := DBSnapshotOf(db); d2 != d1 {
		t.Fatal("unchanged database must reuse the cached DBSnapshot")
	}
	in1.MustInsert(Str("z"), Int(3))
	d3 := DBSnapshotOf(db)
	if d3 == d1 {
		t.Fatal("mutation must invalidate the DBSnapshot cache")
	}
	s, _ := d3.Snapshot("r")
	if s.Len() != 3 {
		t.Fatalf("caught-up snapshot has %d rows, want 3", s.Len())
	}
	// Replacing an instance wholesale is also detected.
	r2 := NewInstance(in1.Schema())
	db.Add(r2)
	if !d3.Stale() {
		t.Fatal("Add must stale the snapshot")
	}
	d4 := DBSnapshotOf(db)
	s4, _ := d4.Snapshot("r")
	if s4.Len() != 0 {
		t.Fatal("DBSnapshotOf did not pick up the replaced instance")
	}
}

func TestLookupCodesAcrossRelations(t *testing.T) {
	db, in1, in2 := dbFixture()
	_ = db
	s1 := NewSnapshot(in1)
	s2 := NewSnapshot(in2)
	ix1 := BuildCodeIndex(s1, []int{0, 1}) // r on (a, b)
	// Probe r's index with s's values: (x, 1) occurs in r, (x, 1)'s
	// codes must be translated through r's dictionaries.
	vals := []Value{s2.Value(0, 0), s2.Value(0, 1)}
	if got := ix1.LookupValues(vals); len(got) != 1 || got[0] != 0 {
		t.Fatalf("LookupValues = %v, want [0]", got)
	}
	if got := ix1.LookupValues([]Value{Str("y"), Int(2)}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LookupValues(y,2) = %v", got)
	}
	// A value absent from its column matches nothing.
	if got := ix1.LookupValues([]Value{Str("nope"), Int(1)}); got != nil {
		t.Fatalf("LookupValues with a dictionary miss = %v, want nil", got)
	}
	// Raw code probes agree with Lookup.
	codes := []uint32{s1.Col(0)[1], s1.Col(1)[1]}
	if got := ix1.LookupCodes(codes); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LookupCodes = %v", got)
	}
	if !ix1.HasCodes(codes) {
		t.Fatal("HasCodes must report the present group")
	}
	if ix1.HasCodes([]uint32{9999, 9999}) {
		t.Fatal("HasCodes on unseen codes must be false")
	}
}

func TestLookupCodesForcedCollisions(t *testing.T) {
	r := MustSchema("r", Attr("a", KindString))
	in := NewInstance(r)
	for _, v := range []string{"p", "q", "r", "s", "t"} {
		in.MustInsert(Str(v))
	}
	snap := NewSnapshot(in)
	cx := buildCodeIndex(snap, []int{0}, func([]uint32) uint64 { return 5 })
	for row := 0; row < snap.Len(); row++ {
		codes := []uint32{snap.Col(0)[row]}
		got := cx.LookupCodes(codes)
		if len(got) != 1 || got[0] != snap.TID(row) {
			t.Fatalf("row %d: LookupCodes = %v under an all-collision table", row, got)
		}
		if !cx.HasCodes(codes) {
			t.Fatalf("row %d: HasCodes false under collisions", row)
		}
	}
	if cx.HasCodes([]uint32{1 << 30}) {
		t.Fatal("HasCodes of an unseen code must walk the chain to a miss")
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false), Int(0), Int(-17), Int(1 << 40),
		Float(2.5), Float(3), Float(-0.125), Str(""), Str("hello\x01x"),
	}
	var buf []byte
	for _, v := range vals {
		buf = v.AppendKey(buf[:0])
		if string(buf) != v.Key() {
			t.Errorf("AppendKey(%v) = %q, Key = %q", v, buf, v.Key())
		}
	}
}

func TestLookupKeyBytes(t *testing.T) {
	_, in1, _ := dbFixture()
	ix := BuildIndex(in1, []int{0})
	var buf []byte
	buf = append(Str("y").AppendKey(buf), '\x01')
	if got := ix.LookupKeyBytes(buf); len(got) != 1 || got[0] != 1 {
		t.Fatalf("LookupKeyBytes = %v", got)
	}
}

package relation

import (
	"fmt"
	"testing"
)

// shardedFixture partitions a two-attribute relation keyed on attribute
// 0 across the given number of shards.
func shardedFixture(t *testing.T, shards int, rows ...Tuple) (*ShardedDB, *Instance) {
	t.Helper()
	sch := MustSchema("r", Attr("k", KindString), Attr("v", KindString))
	in := NewInstance(sch)
	for _, row := range rows {
		if _, err := in.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDatabase()
	db.Add(in)
	p := NewPartitioner(shards)
	p.SetKey("r", []int{0})
	sdb, err := Partition(db, p)
	if err != nil {
		t.Fatal(err)
	}
	return sdb, in
}

// applyAll routes nothing further; it just applies every routed
// sub-batch, like one sequencer commit.
func applyAll(s *ShardedDB, r *Routing) {
	for shard, ops := range r.PerShard() {
		if len(ops) > 0 {
			if err := s.ApplyShard(shard, ops); err != nil {
				panic(err)
			}
		}
	}
}

func shardTuple(t *testing.T, s *ShardedDB, id TID) (int, Tuple) {
	t.Helper()
	shard, ok := s.ShardOfTID("r", id)
	if !ok {
		t.Fatalf("tuple %d is on no shard", id)
	}
	tu, ok := s.Shard(shard).MustInstance("r").Tuple(id)
	if !ok {
		t.Fatalf("ShardOfTID says shard %d but tuple %d is not there", shard, id)
	}
	return shard, tu
}

// TestRoutingComposesDeferredUpdatesAcrossMove is the regression test
// for the non-key fast path: a batch that updates a non-key cell and
// THEN rewrites the key of the same tuple must carry the composed
// value through the cross-shard move, even though the non-key update
// was routed without materializing the tuple.
func TestRoutingComposesDeferredUpdatesAcrossMove(t *testing.T) {
	s, _ := shardedFixture(t, 4, Tuple{Str("alpha"), Str("old")})
	oldShard, _ := shardTuple(t, s, 0)

	// Pick a replacement key that actually changes the shard.
	newKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("beta%d", i)
		if s.Partitioner().ShardOf("r", Tuple{Str(k), Str("x")}) != oldShard {
			newKey = k
			break
		}
	}

	r := s.NewRouting()
	if err := r.Update("r", 0, 1, Str("new")); err != nil { // non-key: fast path
		t.Fatal(err)
	}
	if err := r.Update("r", 0, 0, Str(newKey)); err != nil { // key: move
		t.Fatal(err)
	}
	applyAll(s, r)

	gotShard, tu := shardTuple(t, s, 0)
	if gotShard == oldShard {
		t.Fatalf("tuple did not move off shard %d", oldShard)
	}
	if want := (Tuple{Str(newKey), Str("new")}); !tu[0].Equal(want[0]) || !tu[1].Equal(want[1]) {
		t.Fatalf("moved tuple = %v, want %v (deferred non-key update lost?)", tu, want)
	}
	if old, ok := s.Shard(oldShard).MustInstance("r").Tuple(0); ok {
		t.Fatalf("old shard still holds %v", old)
	}
}

// TestRoutingComposesInsertThenUpdates covers the same-batch chain
// insert → non-key update → key update: the move must start from the
// inserted tuple with the patch applied, not from any instance state
// (the insert has not been applied yet while routing).
func TestRoutingComposesInsertThenUpdates(t *testing.T) {
	s, _ := shardedFixture(t, 4)

	r := s.NewRouting()
	id, err := r.Insert("r", Tuple{Str("alpha"), Str("v0")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update("r", id, 1, Str("v1")); err != nil {
		t.Fatal(err)
	}
	// The insert is routed, not applied: its shard is where it hashes.
	insShard := s.Partitioner().ShardOf("r", Tuple{Str("alpha"), Str("v1")})
	newKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("gamma%d", i)
		if s.Partitioner().ShardOf("r", Tuple{Str(k), Str("x")}) != insShard {
			newKey = k
			break
		}
	}
	if err := r.Update("r", id, 0, Str(newKey)); err != nil {
		t.Fatal(err)
	}
	applyAll(s, r)

	_, tu := shardTuple(t, s, id)
	if !tu[0].Equal(Str(newKey)) || !tu[1].Equal(Str("v1")) {
		t.Fatalf("tuple = %v, want [%s v1]", tu, newKey)
	}
}

// TestRoutingDeleteDropsDeferredPatches makes sure a delete forgets
// pending patches: re-inserting under the same TID later in the batch
// must not resurrect them.
func TestRoutingDeleteDropsDeferredPatches(t *testing.T) {
	s, _ := shardedFixture(t, 4, Tuple{Str("alpha"), Str("old")})

	r := s.NewRouting()
	if err := r.Update("r", 0, 1, Str("patched")); err != nil {
		t.Fatal(err)
	}
	if !r.Delete("r", 0) {
		t.Fatal("delete of live tuple reported missing")
	}
	applyAll(s, r)
	if _, ok := s.ShardOfTID("r", 0); ok {
		t.Fatal("deleted tuple still on a shard")
	}

	// A fresh routed insert must see clean state.
	r2 := s.NewRouting()
	id, err := r2.Insert("r", Tuple{Str("alpha"), Str("fresh")})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(s, r2)
	_, tu := shardTuple(t, s, id)
	if !tu[1].Equal(Str("fresh")) {
		t.Fatalf("tuple = %v, want fresh", tu)
	}
}

// TestRoutingMatchesFlatApplication routes a mixed batch and checks
// the union of the shards equals the same batch applied to a flat
// instance, tuple for tuple. The batch places tuples through the
// same-batch overlay: an inserted TID key-moved and then deleted, a
// second delete of it, and an update of a TID deleted earlier in the
// batch must all answer as the flat instance does.
func TestRoutingMatchesFlatApplication(t *testing.T) {
	rows := make([]Tuple, 0, 8)
	for i := 0; i < 8; i++ {
		rows = append(rows, Tuple{Str(fmt.Sprintf("k%d", i)), Str(fmt.Sprintf("v%d", i))})
	}
	s, _ := shardedFixture(t, 3, rows...)

	flat := NewInstance(MustSchema("r", Attr("k", KindString), Attr("v", KindString)))
	for _, row := range rows {
		flat.MustInsert(row...)
	}

	r := s.NewRouting()
	step := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	step(r.Update("r", 2, 1, Str("v2b"))) // fast path
	step(r.Update("r", 2, 0, Str("k2b"))) // possible move, composed
	step(r.Update("r", 5, 1, Str("v5b"))) // fast path only
	r.Delete("r", 7)
	id, err := r.Insert("r", Tuple{Str("k8"), Str("v8")})
	step(err)
	step(r.Update("r", id, 1, Str("v8b")))
	gone, err := r.Insert("r", Tuple{Str("k9"), Str("v9")})
	step(err)
	movedKey := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("k9m%d", i)
		if s.Partitioner().ShardOf("r", Tuple{Str(k), Str("x")}) != s.Partitioner().ShardOf("r", Tuple{Str("k9"), Str("x")}) {
			movedKey = k
			break
		}
	}
	step(r.Update("r", gone, 0, Str(movedKey))) // a move of a routed insert
	if !r.Delete("r", gone) {
		t.Fatal("delete of a tuple moved earlier in the batch routed as missing")
	}
	if r.Delete("r", gone) {
		t.Fatal("second delete of a TID routed as live")
	}
	uerr := r.Update("r", 7, 1, Str("v7b")) // deleted earlier in the batch
	if uerr == nil {
		t.Fatal("update of a TID deleted earlier in the batch routed")
	}
	applyAll(s, r)

	step(flat.Update(2, 1, Str("v2b")))
	step(flat.Update(2, 0, Str("k2b")))
	step(flat.Update(5, 1, Str("v5b")))
	flat.Delete(7)
	fid, err := flat.Insert(Tuple{Str("k8"), Str("v8")})
	step(err)
	if fid != id {
		t.Fatalf("TID divergence: sharded %d flat %d", id, fid)
	}
	step(flat.Update(id, 1, Str("v8b")))
	fgone, err := flat.Insert(Tuple{Str("k9"), Str("v9")})
	step(err)
	if fgone != gone {
		t.Fatalf("TID divergence: sharded %d flat %d", gone, fgone)
	}
	step(flat.Update(gone, 0, Str(movedKey)))
	if !flat.Delete(gone) || flat.Delete(gone) {
		t.Fatal("flat deletes of the moved tuple disagree with routing")
	}
	if ferr := flat.Update(7, 1, Str("v7b")); ferr == nil || ferr.Error() != uerr.Error() {
		t.Fatalf("update of a deleted TID: routing %q, flat %v", uerr, ferr)
	}

	if got, want := s.Size(), flat.Len(); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	for _, fid := range flat.IDs() {
		want, _ := flat.Tuple(fid)
		_, got := shardTuple(t, s, fid)
		for p := range want {
			if !got[p].Equal(want[p]) {
				t.Fatalf("tuple %d = %v, want %v", fid, got, want)
			}
		}
	}
}

// TestPartitionOneShardAdopts: one shard takes the database over as
// shard 0 instead of copying it. ShardOfTID and the TID counter agree
// with the adopted instance, and routed inserts, updates and deletes
// land in the database's own instances.
func TestPartitionOneShardAdopts(t *testing.T) {
	sch := MustSchema("r", Attr("k", KindString), Attr("v", KindString))
	in := NewInstance(sch)
	for _, k := range []string{"a", "b", "c"} {
		in.MustInsert(Str(k), Str("x"))
	}
	in.Delete(1)
	db := NewDatabase()
	db.Add(in)
	s, err := Partition(db, NewPartitioner(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shard(0) != db || s.Shard(0).MustInstance("r") != in {
		t.Fatal("one-shard Partition copied the database instead of adopting it")
	}
	if s.NextTID("r") != in.NextTID() {
		t.Fatalf("NextTID %d, instance %d", s.NextTID("r"), in.NextTID())
	}
	for id := TID(0); id < in.NextTID(); id++ {
		_, live := in.Tuple(id)
		shard, ok := s.ShardOfTID("r", id)
		if ok != live || (ok && shard != 0) {
			t.Fatalf("tuple %d: ShardOfTID (%d, %v), instance live %v", id, shard, ok, live)
		}
	}

	r := s.NewRouting()
	id, err := r.Insert("r", Tuple{Str("d"), Str("y")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Update("r", 0, 1, Str("z")); err != nil {
		t.Fatal(err)
	}
	if !r.Delete("r", 2) {
		t.Fatal("delete of a live tuple routed as missing")
	}
	applyAll(s, r)
	if got, ok := in.Tuple(id); !ok || got[0] != Str("d") {
		t.Fatalf("routed insert %d not in the adopted instance: %v", id, got)
	}
	if got, _ := in.Tuple(0); got[1] != Str("z") {
		t.Fatalf("routed update not in the adopted instance: %v", got)
	}
	if _, ok := in.Tuple(2); ok {
		t.Fatal("routed delete left the tuple in the adopted instance")
	}
	if s.NextTID("r") != in.NextTID() || in.Len() != 2 {
		t.Fatalf("after the batch: NextTID %d vs %d, %d tuples", s.NextTID("r"), in.NextTID(), in.Len())
	}
}

package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/relation"
)

// shardableSigma is the mixed batch the sharded tests run: both CFDs,
// all three CINDs, and the second eCFD — everything whose LHS contains
// the title attribute, so a title-keyed partitioner keeps them
// shard-local. (The first eCFD groups on type only; it is the fixture
// for the CheckShardable rejection tests.)
func shardableSigma() []Constraint {
	cfds, cinds, ecfds := mixedSigma()
	return wrapMixed(cfds, cinds, ecfds[1:])
}

// shardOrders cuts a fresh copy of the database across the given shard
// count under the keys DeriveShardKeys picks for cs.
func shardOrders(t *testing.T, db *relation.Database, shards int, cs []Constraint) *relation.ShardedDB {
	t.Helper()
	keys, err := DeriveShardKeys(cs)
	if err != nil {
		t.Fatalf("DeriveShardKeys: %v", err)
	}
	p := relation.NewPartitioner(shards)
	for rel, pos := range keys {
		p.SetKey(rel, pos)
	}
	sdb, err := relation.Partition(db, p)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return sdb
}

func TestDeriveShardKeysOrders(t *testing.T) {
	keys, err := DeriveShardKeys(shardableSigma())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"order": {1},    // title: the LHS intersection of ϕ1, ϕ2 and the title eCFD
		"book":  {1, 2}, // CIND target key (title, price)
		"CD":    {1, 2}, // CIND target key (album, price)
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("derived keys %v, want %v", keys, want)
	}
}

func TestDeriveShardKeysDisjointLHS(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	// ecfds[0] groups order on type; together with the title-only CFD the
	// order LHS intersection is empty.
	_, err := DeriveShardKeys(wrapMixed(cfds, cinds, ecfds))
	if err == nil || !strings.Contains(err.Error(), "share no attribute") {
		t.Fatalf("want the empty-intersection error, got %v", err)
	}
}

func TestCheckShardableRejects(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	p := relation.NewPartitioner(2)
	p.SetKey("order", []int{1})
	err := CheckShardable(p, cs)
	if err == nil || !strings.Contains(err.Error(), "not contained in the LHS") {
		t.Fatalf("type-grouped eCFD under a title key must be rejected, got %v", err)
	}
	// Whole-tuple hashing makes nothing shard-local.
	err = CheckShardable(relation.NewPartitioner(2), wrapMixed(cfds, nil, nil))
	if err == nil || !strings.Contains(err.Error(), "whole tuple") {
		t.Fatalf("whole-tuple default must be rejected for CFDs, got %v", err)
	}
	// CINDs alone shard under any placement.
	if err := CheckShardable(relation.NewPartitioner(2), wrapMixed(nil, cinds, nil)); err != nil {
		t.Fatalf("CIND-only batch must always shard: %v", err)
	}
}

// TestDetectBatchShardedMatchesUnsharded is the one-shot byte-identity
// oracle: the scatter-gather evaluation must equal the single-partition
// engine exactly, across shard counts, worker counts and degenerate
// placements.
func TestDetectBatchShardedMatchesUnsharded(t *testing.T) {
	cs := shardableSigma()
	for _, seed := range []int64{3, 21} {
		db := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 30, Orders: 300, Seed: seed, ViolationRate: 0.15})
		want := New(1).DetectBatch(db, cs)
		for _, shards := range []int{1, 2, 8} {
			sdb := shardOrders(t, db, shards, cs)
			for _, workers := range []int{1, 4} {
				got, err := New(workers).DetectBatchSharded(sdb, cs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d shards %d workers %d: sharded %d violations, unsharded %d:\nsharded   %v\nunsharded %v",
						seed, shards, workers, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestDetectBatchShardedPlacementIndependence substitutes degenerate
// hashers — everything on one shard, adversarial parity splits — and
// requires identical output: correctness must never depend on where
// tuples land.
func TestDetectBatchShardedPlacementIndependence(t *testing.T) {
	cs := shardableSigma()
	db := gen.Orders(gen.OrdersConfig{Books: 30, CDs: 20, Orders: 200, Seed: 7, ViolationRate: 0.2})
	want := New(1).DetectBatch(db, cs)
	hashers := map[string]func(string, []byte) uint64{
		"all-on-one": func(string, []byte) uint64 { return 0 },
		"byte-parity": func(_ string, key []byte) uint64 {
			var s uint64
			for _, b := range key {
				s += uint64(b)
			}
			return s
		},
	}
	for name, h := range hashers {
		t.Run(name, func(t *testing.T) {
			defer relation.SetShardHasherForTest(h)()
			sdb := shardOrders(t, db, 4, cs)
			got, err := New(2).DetectBatchSharded(sdb, cs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hasher %s: sharded output diverges", name)
			}
		})
	}
}

// primaryTID is the violation's primary-relation tuple: the tuple whose
// shard a violation is attributed to.
func primaryTID(v Violation) relation.TID {
	switch v := v.(type) {
	case cfd.Violation:
		return v.T1
	case cind.Violation:
		return v.TID
	case ecfd.Violation:
		return v.T1
	}
	panic(fmt.Sprintf("unknown violation type %T", v))
}

// shardRecount counts the violations per shard independently of the
// monitor, by the shard snapshot holding each violation's primary tuple.
func shardRecount(snaps []*relation.DBSnapshot, vs []Violation) []int {
	counts := make([]int, len(snaps))
	for _, v := range vs {
		for s, ds := range snaps {
			if snap, ok := ds.Snapshot(RelationOf(v)); ok {
				if _, ok := snap.Row(primaryTID(v)); ok {
					counts[s]++
					break
				}
			}
		}
	}
	return counts
}

// shardedOracleRounds drives the same random multi-relation batches
// through an unsharded DBMonitor (the shadow) and a ShardedDBMonitor
// over an identical partitioned copy, asserting after every batch that
// the violation sets, the gained/cleared diffs and any errors are
// byte-identical. TIDs allocate in lockstep (both sides start from the
// same instance and allocate sequentially), so ops drawn against the
// shadow are valid verbatim on the sharded side.
func shardedOracleRounds(t *testing.T, seed int64, shards, orders, rounds, maxBatch, changelogCap int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := gen.Orders(gen.OrdersConfig{Books: orders / 8, CDs: orders / 10, Orders: orders, Seed: seed, ViolationRate: 0.1})
	cs := shardableSigma()
	sdb := shardOrders(t, db, shards, cs)
	if changelogCap != 0 {
		for _, name := range db.Names() {
			db.MustInstance(name).SetChangelogCap(changelogCap)
		}
		sdb.SetChangelogCap(changelogCap)
	}
	shadow := NewDBMonitor(New(1), db, cs)
	m, err := NewShardedDBMonitor(New(2), sdb, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Violations(), shadow.Violations()) {
		t.Fatalf("seed %d: seeded violation sets differ", seed)
	}

	fresh := 0
	for round := 0; round < rounds; round++ {
		batch := make([]DBOp, 1+r.Intn(maxBatch))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomDBOp(r, db, &fresh, dead)
		}
		sg, sc, serr := shadow.Apply(batch)
		g, c, err := m.Apply(batch)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("seed %d round %d: sharded err %v, shadow err %v", seed, round, err, serr)
		}
		if !reflect.DeepEqual(g, sg) {
			t.Fatalf("seed %d round %d: gained diverges:\nsharded %v\nshadow  %v", seed, round, g, sg)
		}
		if !reflect.DeepEqual(c, sc) {
			t.Fatalf("seed %d round %d: cleared diverges:\nsharded %v\nshadow  %v", seed, round, c, sc)
		}
		if got, want := m.Violations(), shadow.Violations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d round %d: sharded monitor holds %d violations, shadow %d:\nsharded %v\nshadow  %v",
				seed, round, len(got), len(want), got, want)
		}
		if sdb.Size() != db.Size() {
			t.Fatalf("seed %d round %d: sharded size %d, shadow %d", seed, round, sdb.Size(), db.Size())
		}
		if got, want := m.ShardCounts(), shardRecount(m.ShardSnapshots(), m.Violations()); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d round %d: ShardCounts %v, recount by primary tuple %v", seed, round, got, want)
		}
		if round%5 == 0 {
			// Cross-checks against the stateless paths: the one-shot
			// sharded detection, and the gather path /check runs on.
			if got, err := New(1).DetectBatchSharded(sdb, cs); err != nil || !reflect.DeepEqual(got, m.Violations()) {
				t.Fatalf("seed %d round %d: DetectBatchSharded diverges from monitor (err %v)", seed, round, err)
			}
			gathered, err := relation.GatherSnapshots(m.ShardSnapshots())
			if err != nil {
				t.Fatalf("seed %d round %d: GatherSnapshots: %v", seed, round, err)
			}
			if got := New(1).DetectBatch(gathered, cs); !reflect.DeepEqual(got, m.Violations()) {
				t.Fatalf("seed %d round %d: gathered snapshot detection diverges", seed, round)
			}
		}
	}
}

func TestShardedDBMonitorMatchesUnsharded(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		shards int
	}{{5, 1}, {29, 2}, {73, 8}} {
		t.Run(fmt.Sprintf("seed=%d/shards=%d", tc.seed, tc.shards), func(t *testing.T) {
			shardedOracleRounds(t, tc.seed, tc.shards, 200, 15, 12, 0)
		})
	}
}

// TestShardedDBMonitorForcedCollisions runs the monitor oracle with
// every tuple hashed onto one shard of four, and with an adversarial
// parity split — shard placement must be invisible in the output.
func TestShardedDBMonitorForcedCollisions(t *testing.T) {
	t.Run("all-on-one", func(t *testing.T) {
		defer relation.SetShardHasherForTest(func(string, []byte) uint64 { return 7 })()
		shardedOracleRounds(t, 83, 4, 120, 10, 10, 0)
	})
	t.Run("byte-parity", func(t *testing.T) {
		defer relation.SetShardHasherForTest(func(_ string, key []byte) uint64 {
			var s uint64
			for _, b := range key {
				s += uint64(b)
			}
			return s
		})()
		shardedOracleRounds(t, 97, 4, 120, 10, 10, 0)
	})
}

// TestShardedDBMonitorChangelogFallback shrinks every changelog (shadow
// and shards alike) so batches regularly outrun them, forcing the
// sharded full-resync path; the oracle must hold unchanged.
func TestShardedDBMonitorChangelogFallback(t *testing.T) {
	shardedOracleRounds(t, 61, 4, 150, 12, 25, 8)
}

// TestShardedDBMonitorRelationReplaced: re-registering a relation the
// batch reads (ShardedDB.AddInstance over an existing name) replaces
// its instance on every shard, which no changelog can bridge; the next
// Sync takes the full-resync path — exactly once, with an exact diff
// and exact per-shard counts. Every tuple hashes to one shard, so the
// retitled replacement lands exactly where the original did and each
// shard's changelog version is unchanged: only the instance identity
// gives the swap away.
func TestShardedDBMonitorRelationReplaced(t *testing.T) {
	defer relation.SetShardHasherForTest(func(string, []byte) uint64 { return 7 })()
	db := gen.Orders(gen.OrdersConfig{Books: 20, CDs: 15, Orders: 150, Seed: 23, ViolationRate: 0.1})
	cs := shardableSigma()
	m, err := NewShardedDBMonitor(New(2), shardOrders(t, db, 4, cs), cs)
	if err != nil {
		t.Fatal(err)
	}
	prev := m.Violations()
	book := replacedBook(t, db)
	db.Add(book)
	if err := m.Sharded().AddInstance(book); err != nil {
		t.Fatal(err)
	}
	gained, cleared := m.Sync()
	got := m.Violations()
	if want := New(1).DetectBatch(db, cs); !reflect.DeepEqual(got, want) {
		t.Fatalf("monitor holds %d violations after the replacement, DetectBatch %d", len(got), len(want))
	}
	if m.FullSyncs() != 1 {
		t.Fatalf("FullSyncs = %d, want 1", m.FullSyncs())
	}
	if len(gained)+len(cleared) == 0 {
		t.Fatal("replacing the book relation should change the violation set")
	}
	checkDiff(t, "relation replaced", prev, gained, cleared, got)
	if got, want := m.ShardCounts(), shardRecount(m.ShardSnapshots(), got); !reflect.DeepEqual(got, want) {
		t.Fatalf("ShardCounts %v, recount %v", got, want)
	}
}

// TestShardedCrossShardMoves pins the move protocol deterministically:
// a hasher that splits on whether the key contains 'Z' lets the test
// steer tuples between two shards by retitling, covering (a) a move
// that clears a CFD violation, (b) a move-in with a smaller TID than
// every member of the destination group — the representative-stealing
// case — and (c) same-batch insert+move through the routing overlay.
func TestShardedCrossShardMoves(t *testing.T) {
	defer relation.SetShardHasherForTest(func(_ string, key []byte) uint64 {
		for _, b := range key {
			if b == 'Z' {
				return 1
			}
		}
		return 0
	})()
	cs := shardableSigma()
	db := gen.Orders(gen.OrdersConfig{Books: 0, CDs: 0, Orders: 0, Seed: 1})
	order := db.MustInstance("order")
	str, f := relation.Str, relation.Float
	t0 := order.MustInsert(str("a0"), str("Plain"), str("book"), f(1.99))
	t1 := order.MustInsert(str("a1"), str("Z-Title"), str("book"), f(5.99))
	t2 := order.MustInsert(str("a2"), str("Z-Title"), str("book"), f(5.99))

	sdb := shardOrders(t, db, 2, cs)
	if s, _ := sdb.ShardOfTID("order", t1); s != 1 {
		t.Fatalf("Z-titled tuple should sit on shard 1, got %d", s)
	}
	shadow := NewDBMonitor(New(1), db, cs)
	m, err := NewShardedDBMonitor(New(2), sdb, cs)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, batch ...DBOp) {
		t.Helper()
		sg, sc, serr := shadow.Apply(batch)
		g, c, err := m.Apply(batch)
		if (err == nil) != (serr == nil) {
			t.Fatalf("%s: err %v vs shadow %v", step, err, serr)
		}
		if !reflect.DeepEqual(g, sg) || !reflect.DeepEqual(c, sc) {
			t.Fatalf("%s: diff diverges: +%v -%v vs shadow +%v -%v", step, g, c, sg, sc)
		}
		if !reflect.DeepEqual(m.Violations(), shadow.Violations()) {
			t.Fatalf("%s: violation sets diverge:\nsharded %v\nshadow  %v", step, m.Violations(), shadow.Violations())
		}
		if got, want := m.ShardCounts(), shardRecount(m.ShardSnapshots(), m.Violations()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ShardCounts %v, recount by primary tuple %v", step, got, want)
		}
	}

	// (a) Retitle t2 off the Z shard: breaks the (Z-Title → price) group
	// apart; retitling it to Plain with its old price violates ϕ1 against
	// t0 instead.
	check("move t2 to shard 0", UpdateIn("order", t2, 1, str("Plain")))
	if s, _ := sdb.ShardOfTID("order", t2); s != 0 {
		t.Fatal("t2 should have moved to shard 0")
	}
	// (b) Move t0 (the smallest TID) into the Z group: it steals the
	// group's representative on shard 1 — the coverInserts path.
	check("move t0 into the Z group", UpdateIn("order", t0, 1, str("Z-Title")))
	if s, _ := sdb.ShardOfTID("order", t0); s != 1 {
		t.Fatal("t0 should have moved to shard 1")
	}
	// (c) Same-batch insert + key update of the fresh tuple: the second
	// op resolves the tuple through the routing overlay, and the insert
	// lands directly on the Z shard.
	fresh := order.NextTID()
	check("insert then move in one batch",
		InsertInto("order", relation.Tuple{str("a3"), str("Plain"), str("book"), f(2.99)}),
		UpdateIn("order", fresh, 1, str("Z-Plain")),
		UpdateIn("order", fresh, 3, f(7.99)),
	)
	if s, ok := sdb.ShardOfTID("order", fresh); !ok || s != 1 {
		t.Fatalf("fresh tuple should sit on shard 1, got %d (ok %v)", s, ok)
	}
}

// TestShardedApplyPanicIsolation injects a panic into one shard's apply
// through SetShardHookForTest, on batches whose key update moves a
// tuple across shards, once with the panic on the move's destination
// shard (the delete applies, the insert does not) and once on its
// source (the insert applies, the delete does not, so the TID is held
// twice until ApplyRouting's RebuildDir drops the extra copy). Each
// time the panic must come back as the batch's error and be counted,
// the monitor must match a fresh detection over its own shard
// snapshots with no TID on two shards, and the next batch must apply
// cleanly.
func TestShardedApplyPanicIsolation(t *testing.T) {
	defer relation.SetShardHasherForTest(func(_ string, key []byte) uint64 {
		for _, b := range key {
			if b == 'Z' {
				return 1
			}
		}
		return 0
	})()
	for _, tc := range []struct {
		name  string
		shard int // the shard whose apply panics: 1 is the move's destination
	}{{"destination", 1}, {"source", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cs := shardableSigma()
			db := gen.Orders(gen.OrdersConfig{Books: 0, CDs: 0, Orders: 0, Seed: 1})
			order := db.MustInstance("order")
			str, f := relation.Str, relation.Float
			t0 := order.MustInsert(str("a0"), str("Plain"), str("book"), f(1.99))
			order.MustInsert(str("a1"), str("Z-Title"), str("book"), f(5.99))
			t2 := order.MustInsert(str("a2"), str("Z-Title"), str("book"), f(6.99))
			t3 := order.MustInsert(str("a3"), str("Plain"), str("book"), f(2.99))
			m, err := NewShardedDBMonitor(New(2), shardOrders(t, db, 2, cs), cs)
			if err != nil {
				t.Fatal(err)
			}
			consistent := func(step string) {
				t.Helper()
				seen := map[relation.TID]int{}
				for s, ds := range m.ShardSnapshots() {
					snap, _ := ds.Snapshot("order")
					for row := 0; row < snap.Len(); row++ {
						if prev, dup := seen[snap.TID(row)]; dup {
							t.Fatalf("%s: TID %d held by shards %d and %d", step, snap.TID(row), prev, s)
						}
						seen[snap.TID(row)] = s
					}
				}
				gathered, err := relation.GatherSnapshots(m.ShardSnapshots())
				if err != nil {
					t.Fatalf("%s: GatherSnapshots: %v", step, err)
				}
				if got, want := m.Violations(), New(1).DetectBatch(gathered, cs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: monitor holds %v, fresh detection %v", step, got, want)
				}
			}

			panicked := false
			m.SetShardHookForTest(func(shard int, ops []relation.ShardedOp) {
				if shard == tc.shard && !panicked {
					panicked = true
					panic("injected shard fault")
				}
			})
			prev := m.Violations()
			// t0 moves from shard 0 to shard 1 and violates ϕ1 against
			// t1 there; the insert lands on shard 0.
			g, c, err := m.Apply([]DBOp{
				UpdateIn("order", t0, 1, str("Z-Title")),
				InsertInto("order", relation.Tuple{str("a4"), str("Plain"), str("book"), f(3.99)}),
			})
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("panicked batch returned err %v, want a shard panic error", err)
			}
			if m.Panics() != 1 {
				t.Fatalf("Panics = %d, want 1", m.Panics())
			}
			checkDiff(t, "panicked batch", prev, g, c, m.Violations())
			consistent("after the panic")

			m.SetShardHookForTest(nil)
			prev = m.Violations()
			g, c, err = m.Apply([]DBOp{
				UpdateIn("order", t2, 1, str("Plain")),
				UpdateIn("order", t3, 3, f(7.99)),
			})
			if err != nil {
				t.Fatalf("batch after the panic: %v", err)
			}
			if s, ok := m.Sharded().ShardOfTID("order", t2); !ok || s != 0 {
				t.Fatalf("t2 should have moved to shard 0, got %d (ok %v)", s, ok)
			}
			checkDiff(t, "next batch", prev, g, c, m.Violations())
			consistent("after the next batch")
			if m.Panics() != 1 {
				t.Fatalf("Panics = %d after a clean batch, want 1", m.Panics())
			}
		})
	}
}

// TestShardedDBMonitorBadOps: every failing-op shape must report the
// exact error string DBMonitor reports, and both monitors must
// resynchronize with the same applied prefix.
func TestShardedDBMonitorBadOps(t *testing.T) {
	cs := shardableSigma()
	db := gen.Orders(gen.OrdersConfig{Books: 10, CDs: 5, Orders: 40, Seed: 2, ViolationRate: 0})
	sdb := shardOrders(t, db, 4, cs)
	shadow := NewDBMonitor(New(1), db, cs)
	m, err := NewShardedDBMonitor(New(2), sdb, cs)
	if err != nil {
		t.Fatal(err)
	}
	str, f := relation.Str, relation.Float
	good := InsertInto("order", relation.Tuple{str("x"), str("Some"), str("book"), f(1.99)})
	for _, tc := range []struct {
		name  string
		batch []DBOp
	}{
		{"unknown relation", []DBOp{good, {Rel: "nosuch", Op: Delete(0)}, good}},
		{"bad arity", []DBOp{good, InsertInto("order", relation.Tuple{str("x")}), good}},
		{"unknown TID", []DBOp{good, UpdateIn("order", 9999, 1, str("T")), good}},
		{"domain violation", []DBOp{good, UpdateIn("order", 0, 3, str("not-a-price")), good}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, serr := shadow.Apply(tc.batch)
			_, _, err := m.Apply(tc.batch)
			if serr == nil || err == nil {
				t.Fatalf("both must fail: sharded %v, shadow %v", err, serr)
			}
			if err.Error() != serr.Error() {
				t.Fatalf("error strings diverge:\nsharded %q\nshadow  %q", err, serr)
			}
			if !reflect.DeepEqual(m.Violations(), shadow.Violations()) {
				t.Fatal("monitors diverge after the failed batch")
			}
		})
	}
}

// TestNewShardedDBMonitorRejectsUnshardable: construction surfaces the
// CheckShardable error instead of silently producing wrong diffs.
func TestNewShardedDBMonitorRejectsUnshardable(t *testing.T) {
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds) // ecfds[0] groups on type
	db := gen.Orders(gen.OrdersConfig{Books: 5, CDs: 5, Orders: 20, Seed: 1})
	p := relation.NewPartitioner(2)
	p.SetKey("order", []int{1})
	sdb, err := relation.Partition(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedDBMonitor(nil, sdb, cs); err == nil {
		t.Fatal("unshardable batch must be rejected at construction")
	}
}

// randomInsertOp draws one insert-only op over the order/book/CD
// database — the batch shape that drives the append-only snapshot fast
// path end to end through the sharded monitor's parallel sync.
func randomInsertOp(r *rand.Rand, fresh *int) DBOp {
	*fresh++
	title := func() relation.Value {
		if r.Intn(4) == 0 {
			return relation.Str(fmt.Sprintf("Fresh Title %d", *fresh))
		}
		return relation.Str(fmt.Sprintf("Book Title %d", r.Intn(40)))
	}
	price := func() relation.Value { return relation.Float(float64(5+r.Intn(8)) + 0.99) }
	switch r.Intn(4) {
	case 0, 1:
		return InsertInto("order", relation.Tuple{
			relation.Str(fmt.Sprintf("a%d", *fresh)), title(),
			relation.Str([]string{"book", "CD"}[r.Intn(2)]), price()})
	case 2:
		return InsertInto("book", relation.Tuple{
			relation.Str(fmt.Sprintf("b%d", *fresh)), title(), price(),
			relation.Str([]string{"hard-cover", "audio"}[r.Intn(2)])})
	default:
		return InsertInto("CD", relation.Tuple{
			relation.Str(fmt.Sprintf("c%d", *fresh)), title(), price(),
			relation.Str([]string{"rock", "a-book"}[r.Intn(2)])})
	}
}

// TestShardedDBMonitorInsertOnlyOracle chains large insert-only batches
// — every per-shard delta takes the append fast path, every sync fans
// the shards across the worker pool — and asserts the sharded monitor
// stays byte-identical to an unsharded shadow the whole way. Run with
// -race this also exercises the parallel scan/touch phases for data
// races on the shared snapshots.
func TestShardedDBMonitorInsertOnlyOracle(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		shards int
	}{{101, 4}, {113, 8}} {
		t.Run(fmt.Sprintf("seed=%d/shards=%d", tc.seed, tc.shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(tc.seed))
			db := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 30, Orders: 300, Seed: tc.seed, ViolationRate: 0.1})
			cs := shardableSigma()
			sdb := shardOrders(t, db, tc.shards, cs)
			shadow := NewDBMonitor(New(1), db, cs)
			m, err := NewShardedDBMonitor(New(4), sdb, cs)
			if err != nil {
				t.Fatal(err)
			}
			fresh := 0
			for round := 0; round < 25; round++ {
				batch := make([]DBOp, 8+r.Intn(56))
				for i := range batch {
					batch[i] = randomInsertOp(r, &fresh)
				}
				sg, sc, serr := shadow.Apply(batch)
				g, c, err := m.Apply(batch)
				if (err == nil) != (serr == nil) {
					t.Fatalf("round %d: sharded err %v, shadow err %v", round, err, serr)
				}
				if !reflect.DeepEqual(g, sg) || !reflect.DeepEqual(c, sc) {
					t.Fatalf("round %d: diff diverges:\nsharded +%v -%v\nshadow  +%v -%v", round, g, c, sg, sc)
				}
				if got, want := m.Violations(), shadow.Violations(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: violations diverge (%d vs %d)", round, len(got), len(want))
				}
			}
		})
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// serveSigma builds the mixed rule fixture over the order/book/CD
// schemas (the detect-package test fixture, rebuilt here): two CFDs
// and one eCFD on order plus two Figure 4 CINDs.
func serveSigma() []detect.Constraint {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cd := paperdata.CDSchema()
	cfds := []*cfd.CFD{
		cfd.MustFD(order, []string{"title"}, []string{"price"}),
		cfd.MustFD(order, []string{"title", "price", "type"}, []string{"asin"}),
	}
	cinds := []*cind.CIND{
		cind.MustNew(order, book,
			[]string{"title", "price"}, []string{"title", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}}),
		cind.MustNew(order, cd,
			[]string{"title", "price"}, []string{"album", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str("CD")}}),
	}
	ecfds := []*ecfd.ECFD{
		ecfd.MustNew(order, []string{"type"}, []string{"price"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Str("book"), relation.Str("CD"))},
				RHS: []ecfd.Cell{ecfd.Any()}}),
	}
	var cs []detect.Constraint
	cs = append(cs, detect.WrapCFDs(cfds)...)
	cs = append(cs, detect.WrapCINDs(cinds)...)
	cs = append(cs, detect.WrapECFDs(ecfds)...)
	return cs
}

// ordersDB is the generated order/book/CD fixture database.
func ordersDB(seed int64, orders int) *relation.Database {
	return gen.Orders(gen.OrdersConfig{
		Books: orders / 8, CDs: orders / 10, Orders: orders,
		Seed: seed, ViolationRate: 0.1,
	})
}

// randomServeOp draws one random mutation over the order/book/CD
// database, generated against the given (shadow) database so service
// and shadow stay TID-aligned. dead tracks TIDs deleted earlier in the
// same not-yet-applied batch.
func randomServeOp(r *rand.Rand, db *relation.Database, fresh *int, dead map[string]map[relation.TID]bool) detect.DBOp {
	pickID := func(rel string) (relation.TID, bool) {
		in := db.MustInstance(rel)
		var ids []relation.TID
		for _, id := range in.IDs() {
			if !dead[rel][id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		return ids[r.Intn(len(ids))], true
	}
	kill := func(rel string, id relation.TID) detect.DBOp {
		if dead[rel] == nil {
			dead[rel] = make(map[relation.TID]bool)
		}
		dead[rel][id] = true
		return detect.DeleteFrom(rel, id)
	}
	title := func() relation.Value {
		if r.Intn(4) == 0 {
			*fresh++
			return relation.Str(fmt.Sprintf("Fresh Title %d", *fresh))
		}
		return relation.Str(fmt.Sprintf("Book Title %d", r.Intn(40)))
	}
	price := func() relation.Value { return relation.Float(float64(5+r.Intn(8)) + 0.99) }
	switch r.Intn(8) {
	case 0, 1: // order insert
		*fresh++
		return detect.InsertInto("order", relation.Tuple{
			relation.Str(fmt.Sprintf("a%d", *fresh)), title(),
			relation.Str([]string{"book", "CD", "vinyl"}[r.Intn(3)]), price()})
	case 2: // order delete
		if id, ok := pickID("order"); ok {
			return kill("order", id)
		}
		return randomServeOp(r, db, fresh, dead)
	case 3, 4: // order update (title/type/price)
		if id, ok := pickID("order"); ok {
			switch r.Intn(3) {
			case 0:
				return detect.UpdateIn("order", id, 1, title())
			case 1:
				return detect.UpdateIn("order", id, 2, relation.Str([]string{"book", "CD", "vinyl"}[r.Intn(3)]))
			default:
				return detect.UpdateIn("order", id, 3, price())
			}
		}
		return randomServeOp(r, db, fresh, dead)
	case 5: // book churn
		switch r.Intn(3) {
		case 0:
			*fresh++
			return detect.InsertInto("book", relation.Tuple{
				relation.Str(fmt.Sprintf("b%d", *fresh)), title(), price(),
				relation.Str([]string{"hard-cover", "audio"}[r.Intn(2)])})
		case 1:
			if id, ok := pickID("book"); ok {
				return kill("book", id)
			}
		default:
			if id, ok := pickID("book"); ok {
				if r.Intn(2) == 0 {
					return detect.UpdateIn("book", id, 1, title())
				}
				return detect.UpdateIn("book", id, 2, price())
			}
		}
		return randomServeOp(r, db, fresh, dead)
	default: // CD churn
		switch r.Intn(3) {
		case 0:
			*fresh++
			return detect.InsertInto("CD", relation.Tuple{
				relation.Str(fmt.Sprintf("c%d", *fresh)), title(), price(),
				relation.Str([]string{"rock", "jazz"}[r.Intn(2)])})
		case 1:
			if id, ok := pickID("CD"); ok {
				return kill("CD", id)
			}
		default:
			if id, ok := pickID("CD"); ok {
				if r.Intn(2) == 0 {
					return detect.UpdateIn("CD", id, 1, title())
				}
				return detect.UpdateIn("CD", id, 2, price())
			}
		}
		return randomServeOp(r, db, fresh, dead)
	}
}

// applyShadow replicates the monitor's Apply mutation semantics on the
// shadow database: ops in sequence, stop at the first failing op.
func applyShadow(db *relation.Database, ops []detect.DBOp) error {
	for _, op := range ops {
		in, ok := db.Instance(op.Rel)
		if !ok {
			return fmt.Errorf("no relation %q", op.Rel)
		}
		switch op.Op.Kind {
		case detect.OpInsert:
			if _, err := in.Insert(op.Op.Tuple); err != nil {
				return err
			}
		case detect.OpDelete:
			in.Delete(op.Op.TID)
		case detect.OpUpdate:
			if err := in.Update(op.Op.TID, op.Op.Pos, op.Op.Val); err != nil {
				return err
			}
		}
	}
	return nil
}

// commutingBatches draws n random batches that may be submitted
// concurrently, in any order: batch b updates and deletes only the
// tuples of its own stripe of db's TIDs (every n-th live TID of each
// relation, offset b), and nothing ever references the tuples a batch
// inserts. So every interleaving validates, and the final database
// differs between interleavings only in which TIDs the inserts got.
// db is only read.
func commutingBatches(r *rand.Rand, db *relation.Database, fresh *int, n, maxOps int) [][]detect.DBOp {
	batches := make([][]detect.DBOp, n)
	for b := range batches {
		// randomServeOp picks only TIDs not marked dead: mark every TID
		// outside the stripe.
		dead := make(map[string]map[relation.TID]bool)
		for _, rel := range db.Names() {
			dead[rel] = make(map[relation.TID]bool)
			for i, id := range db.MustInstance(rel).IDs() {
				if i%n != b {
					dead[rel][id] = true
				}
			}
		}
		batch := make([]detect.DBOp, 1+r.Intn(maxOps))
		for j := range batch {
			batch[j] = randomServeOp(r, db, fresh, dead)
		}
		batches[b] = batch
	}
	return batches
}

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	return svc
}

// TestServiceOracle drives randomized batches through Submit and
// asserts, after every commit, that the published violation list is
// byte-identical (and DeepEqual) to a fresh Engine.DetectBatch on an
// equivalent shadow database mutated by the same ops.
func TestServiceOracle(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cs := serveSigma()
			db := ordersDB(seed, 400)
			shadow := db.Clone()
			svc := mustNew(t, Config{DB: db, Constraints: cs})
			oracle := detect.New(2)

			r := rand.New(rand.NewSource(seed))
			fresh := 0
			ctx := context.Background()
			for round := 0; round < 30; round++ {
				batch := make([]detect.DBOp, 1+r.Intn(10))
				dead := make(map[string]map[relation.TID]bool)
				for i := range batch {
					batch[i] = randomServeOp(r, shadow, &fresh, dead)
				}
				res, err := svc.Submit(ctx, batch)
				if err != nil {
					t.Fatalf("seed %d round %d: Submit: %v", seed, round, err)
				}
				if err := applyShadow(shadow, batch); err != nil {
					t.Fatalf("seed %d round %d: shadow apply error %v but service accepted", seed, round, err)
				}

				got := svc.Violations()
				want := oracle.DetectBatch(shadow, cs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d round %d (seq %d): service has %d violations, fresh DetectBatch on shadow %d:\nservice %v\nfresh   %v",
						seed, round, res.Seq, len(got), len(want), got, want)
				}
				if gotText, wantText := ViolationsText(got), ViolationsText(want); gotText != wantText {
					t.Fatalf("seed %d round %d: text rendering diverged:\n%s\nvs\n%s", seed, round, gotText, wantText)
				}
				if st := svc.State(); st.Seq != res.Seq || st.NumViolations() != len(got) {
					t.Fatalf("seed %d round %d: published state (seq %d, %d violations) behind ack (seq %d, %d)",
						seed, round, st.Seq, st.NumViolations(), res.Seq, len(got))
				}
			}
		})
	}
}

// TestSubscribeExactness: a subscriber registered at Seq s receives
// exactly the deltas s+1, s+2, ... and replaying them onto the
// violation list published at s reproduces every later list.
func TestSubscribeExactness(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(5, 300)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs, SubBuf: 128})

	sub := svc.Subscribe()
	defer sub.Close()
	start := svc.State()
	if sub.Seq() != start.Seq {
		t.Fatalf("subscription seq %d, published %d", sub.Seq(), start.Seq)
	}

	held := make(map[detect.Violation]struct{}, start.NumViolations())
	for _, v := range start.Violations() {
		held[v] = struct{}{}
	}

	r := rand.New(rand.NewSource(23))
	fresh := 0
	const rounds = 40
	for round := 0; round < rounds; round++ {
		batch := make([]detect.DBOp, 1+r.Intn(6))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomServeOp(r, shadow, &fresh, dead)
		}
		if _, err := svc.Submit(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < rounds; i++ {
		select {
		case delta, ok := <-sub.Events():
			if !ok {
				t.Fatalf("stream closed after %d deltas (lost=%v), want %d", i, sub.Lost(), rounds)
			}
			if want := sub.Seq() + uint64(i) + 1; delta.Seq != want {
				t.Fatalf("delta %d has seq %d, want %d", i, delta.Seq, want)
			}
			for _, v := range delta.Cleared {
				if _, ok := held[v]; !ok {
					t.Fatalf("delta %d cleared %v which was not held", i, v)
				}
				delete(held, v)
			}
			for _, v := range delta.Gained {
				if _, ok := held[v]; ok {
					t.Fatalf("delta %d gained %v which was already held", i, v)
				}
				held[v] = struct{}{}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for delta %d", i)
		}
	}

	final := svc.Violations()
	if len(held) != len(final) {
		t.Fatalf("replayed set has %d violations, published %d", len(held), len(final))
	}
	for _, v := range final {
		if _, ok := held[v]; !ok {
			t.Fatalf("published violation %v missing from replayed set", v)
		}
	}
}

// TestSlowSubscriberDropped: a subscriber that stops draining past its
// buffer is dropped — channel closed, Lost set — while fast
// subscribers and the writer proceed; resyncing from Violations gives
// the exact current set.
func TestSlowSubscriberDropped(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(9, 200)
	shadow := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs})

	slow := svc.SubscribeBuf(2) // never drained
	fast := svc.SubscribeBuf(1024)
	done := make(chan int)
	go func() {
		n := 0
		for range fast.Events() {
			n++
		}
		done <- n
	}()

	r := rand.New(rand.NewSource(31))
	fresh := 0
	const rounds = 10
	for round := 0; round < rounds; round++ {
		batch := []detect.DBOp{randomServeOp(r, shadow, &fresh, map[string]map[relation.TID]bool{})}
		if _, err := svc.Submit(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
	}

	// The slow stream must be closed with Lost set, having delivered at
	// most its buffer.
	n := 0
	for range slow.Events() {
		n++
	}
	if !slow.Lost() {
		t.Fatal("slow subscriber not marked lost")
	}
	if n > 2 {
		t.Fatalf("slow subscriber got %d buffered deltas, cap is 2", n)
	}
	if svc.NumSubscribers() != 1 {
		t.Fatalf("%d subscribers left, want 1 (the fast one)", svc.NumSubscribers())
	}

	// Resync: the published list equals a fresh detection on the shadow.
	want := detect.New(2).DetectBatch(shadow, cs)
	if !reflect.DeepEqual(svc.Violations(), want) {
		t.Fatal("resynced violation list diverges from fresh detection")
	}

	// The fast subscriber saw every commit; an orderly stop closes its
	// stream with Lost unset.
	if err := svc.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != rounds {
		t.Fatalf("fast subscriber got %d deltas, want %d", got, rounds)
	}
	if fast.Lost() {
		t.Fatal("fast subscriber marked lost on orderly stop")
	}
}

// TestConcurrentReadersRace is the single-writer hand-off assertion,
// meant for -race: readers hammer the published state — full list,
// counts, satisfaction probes on the published snapshot — while the
// writer applies batches. No reader ever touches the monitor or the
// live database.
func TestConcurrentReadersRace(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(13, 300)
	genDB := db.Clone() // op generator source; mutated in lockstep
	svc := mustNew(t, Config{DB: db, Constraints: cs})

	probe := serveSigma() // an independent batch for Check
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := svc.State()
				n := 0
				for _, v := range st.Violations() {
					_ = v.String()
					n++
				}
				if c := svc.Counts(); c.Total != st.NumViolations() && c.Seq == st.Seq {
					t.Errorf("counts total %d != %d at seq %d", c.Total, st.NumViolations(), st.Seq)
					return
				}
				svc.Check(probe)
			}
		}()
	}

	r := rand.New(rand.NewSource(41))
	fresh := 0
	for round := 0; round < 60; round++ {
		batch := make([]detect.DBOp, 1+r.Intn(8))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomServeOp(r, genDB, &fresh, dead)
		}
		if _, err := svc.Submit(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := applyShadow(genDB, batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	want := detect.New(2).DetectBatch(genDB, cs)
	if !reflect.DeepEqual(svc.Violations(), want) {
		t.Fatal("final violation list diverges from fresh detection")
	}
}

// TestStopDrainsQueue: Stop applies everything already queued before
// the loop exits, and late Submits are rejected with ErrStopped.
func TestStopDrainsQueue(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(19, 200)
	// QueueCap large enough to hold every async batch below.
	svc, err := New(Config{DB: db, Constraints: cs, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(53))
	fresh := 0
	batches := commutingBatches(r, db.Clone(), &fresh, 20, 4)

	// Fire all submits concurrently, then stop while they are in flight.
	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for i, batch := range batches {
		wg.Add(1)
		go func(i int, ops []detect.DBOp) {
			defer wg.Done()
			_, errs[i] = svc.Submit(context.Background(), ops)
		}(i, batch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	applied := 0
	for _, err := range errs {
		if err == nil {
			applied++
		} else if err != ErrStopped {
			t.Fatalf("Submit error %v, want nil or ErrStopped", err)
		}
	}
	// Every acked batch was applied; the service's final set must match
	// a fresh detection over its own database (the commit order, and so
	// the inserts' TIDs, is the scheduler's — compare against the
	// service's db directly; safe now: the writer has exited).
	want := detect.New(2).DetectBatch(db, cs)
	if !reflect.DeepEqual(svc.Violations(), want) {
		t.Fatalf("final violation list diverges from fresh detection (%d batches applied)", applied)
	}

	if _, err := svc.Submit(context.Background(), batches[0]); err != ErrStopped {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
	// A subscription on a stopped service is born closed.
	sub := svc.Subscribe()
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription on stopped service delivered a delta")
	}
}

// TestCoalescing: concurrent Submits can share one commit; every ack
// carries that commit's seq and the published state is consistent. The
// batches commute (commutingBatches), so every arrival order the
// scheduler picks must validate and commit.
func TestCoalescing(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(29, 200)
	svc := mustNew(t, Config{DB: db, Constraints: cs, QueueCap: 64})

	r := rand.New(rand.NewSource(71))
	fresh := 0
	batches := commutingBatches(r, db.Clone(), &fresh, 30, 3)
	var wg sync.WaitGroup
	for _, batch := range batches {
		wg.Add(1)
		go func(ops []detect.DBOp) {
			defer wg.Done()
			if _, err := svc.Submit(context.Background(), ops); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(batch)
	}
	wg.Wait()

	st := svc.State()
	if st.Seq > uint64(len(batches)) {
		t.Fatalf("%d commits for %d batches: coalescing never happened under max contention is fine, but seq must not exceed batch count", st.Seq, len(batches))
	}
	want := detect.New(2).DetectBatch(db, cs)
	if !reflect.DeepEqual(svc.Violations(), want) {
		t.Fatal("post-coalescing violation list diverges from fresh detection")
	}
	if st.Ops == 0 {
		t.Fatal("no ops recorded")
	}
}

// TestSubmitOpError: a request with an invalid op is rejected upfront
// with a structured *OpError naming the op index and reason, nothing of
// it is applied (not even the valid prefix), and the published state is
// untouched.
func TestSubmitOpError(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(37, 100)
	svc := mustNew(t, Config{DB: db, Constraints: cs})
	seq0 := svc.State().Seq

	bad := []detect.DBOp{
		detect.InsertInto("order", relation.Tuple{
			relation.Str("aX"), relation.Str("Fresh Title X"), relation.Str("book"), relation.Float(9.99)}),
		detect.UpdateIn("order", relation.TID(1_000_000), 1, relation.Str("nope")), // missing TID
		detect.InsertInto("order", relation.Tuple{
			relation.Str("aY"), relation.Str("Fresh Title Y"), relation.Str("book"), relation.Float(9.99)}),
	}
	res, err := svc.Submit(context.Background(), bad)
	if err == nil {
		t.Fatal("Submit with an invalid op succeeded")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v (%T), want *OpError", err, err)
	}
	if oe.Index != 1 {
		t.Fatalf("OpError.Index = %d, want 1 (the bad update)", oe.Index)
	}
	if res.Err == nil {
		t.Fatal("Result.Err unset on op error")
	}
	if res.Seq != seq0 {
		t.Fatalf("rejected request acknowledged at seq %d, want unchanged tip %d", res.Seq, seq0)
	}
	// Nothing was applied: the service still matches a fresh detection
	// of the untouched database, and the counters never moved.
	want := detect.New(2).DetectBatch(db, cs)
	if !reflect.DeepEqual(svc.Violations(), want) {
		t.Fatal("violation list diverges after rejected request")
	}
	st := svc.State()
	if st.Seq != seq0 || st.Ops != 0 || st.Errs != 0 {
		t.Fatalf("state moved on a rejected request: seq=%d ops=%d errs=%d", st.Seq, st.Ops, st.Errs)
	}

	// A valid request right after still commits normally.
	good := []detect.DBOp{detect.InsertInto("order", relation.Tuple{
		relation.Str("aZ"), relation.Str("Fresh Title Z"), relation.Str("book"), relation.Float(9.99)})}
	if _, err := svc.Submit(context.Background(), good); err != nil {
		t.Fatalf("valid submit after rejection: %v", err)
	}
	if got := svc.State().Seq; got != seq0+1 {
		t.Fatalf("seq after valid submit = %d, want %d", got, seq0+1)
	}
}

// TestCounts cross-checks the aggregation against the raw list.
func TestCounts(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(43, 300)
	svc := mustNew(t, Config{DB: db, Constraints: cs})

	c := svc.Counts()
	vs := svc.Violations()
	if c.Total != len(vs) {
		t.Fatalf("Total = %d, want %d", c.Total, len(vs))
	}
	byClass := 0
	for _, n := range c.ByClass {
		byClass += n
	}
	if byClass != c.Total {
		t.Fatalf("class counts sum to %d, want %d", byClass, c.Total)
	}
	byRule := 0
	for _, cc := range c.ByConstraint {
		byRule += cc.Count
	}
	if byRule != c.Total {
		t.Fatalf("constraint counts sum to %d, want %d", byRule, c.Total)
	}
	if len(c.ByConstraint) != len(cs) {
		t.Fatalf("%d constraint rows, want %d", len(c.ByConstraint), len(cs))
	}
}

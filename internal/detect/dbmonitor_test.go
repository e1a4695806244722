package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/relation"
)

// randomDBOp draws one random mutation over the order/book/CD database,
// churning the CINDs' source side (order inserts/deletes/retitles), the
// target side (book/CD membership and key updates — including format
// and genre, the Yp attributes of ϕ6) and the CFD/eCFD attributes, with
// fresh values so dictionaries keep growing.
func randomDBOp(r *rand.Rand, db *relation.Database, fresh *int, dead map[string]map[relation.TID]bool) DBOp {
	// pickID avoids TIDs already deleted by earlier ops of the same
	// (not-yet-applied) batch.
	pickID := func(rel string, in *relation.Instance) (relation.TID, bool) {
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
	kill := func(rel string, id relation.TID) DBOp {
		if dead[rel] == nil {
			dead[rel] = make(map[relation.TID]bool)
		}
		dead[rel][id] = true
		return DeleteFrom(rel, id)
	}
	title := func() relation.Value {
		if r.Intn(4) == 0 {
			*fresh++
			return relation.Str(fmt.Sprintf("Fresh Title %d", *fresh))
		}
		return relation.Str(fmt.Sprintf("Book Title %d", r.Intn(40)))
	}
	price := func() relation.Value { return relation.Float(float64(5+r.Intn(8)) + 0.99) }
	switch r.Intn(10) {
	case 0, 1: // order insert
		*fresh++
		return InsertInto("order", relation.Tuple{
			relation.Str(fmt.Sprintf("a%d", *fresh)), title(),
			relation.Str([]string{"book", "CD"}[r.Intn(2)]), price()})
	case 2: // order delete
		if id, ok := pickID("order", db.MustInstance("order")); ok {
			return kill("order", id)
		}
		return randomDBOp(r, db, fresh, dead)
	case 3: // order retitle/reprice/retype (X, Xp and CFD attributes)
		if id, ok := pickID("order", db.MustInstance("order")); ok {
			switch r.Intn(3) {
			case 0:
				return UpdateIn("order", id, 1, title())
			case 1:
				return UpdateIn("order", id, 3, price())
			default:
				return UpdateIn("order", id, 2, relation.Str([]string{"book", "CD", "vinyl"}[r.Intn(3)]))
			}
		}
		return randomDBOp(r, db, fresh, dead)
	case 4, 5: // book churn: membership and Y/Yp updates
		book := db.MustInstance("book")
		switch r.Intn(3) {
		case 0:
			*fresh++
			return InsertInto("book", relation.Tuple{
				relation.Str(fmt.Sprintf("b%d", *fresh)), title(), price(),
				relation.Str([]string{"hard-cover", "audio"}[r.Intn(2)])})
		case 1:
			if id, ok := pickID("book", book); ok {
				return kill("book", id)
			}
		default:
			if id, ok := pickID("book", book); ok {
				pos := []int{1, 2, 3}[r.Intn(3)] // title, price, format
				switch pos {
				case 1:
					return UpdateIn("book", id, 1, title())
				case 2:
					return UpdateIn("book", id, 2, price())
				default:
					return UpdateIn("book", id, 3, relation.Str([]string{"hard-cover", "audio", "paper-cover"}[r.Intn(3)]))
				}
			}
		}
		return randomDBOp(r, db, fresh, dead)
	default: // CD churn: album/price (ϕ5 target key, ϕ6 source) and genre (ϕ6 Xp)
		cdIn := db.MustInstance("CD")
		switch r.Intn(3) {
		case 0:
			*fresh++
			return InsertInto("CD", relation.Tuple{
				relation.Str(fmt.Sprintf("c%d", *fresh)), title(), price(),
				relation.Str([]string{"rock", "a-book"}[r.Intn(2)])})
		case 1:
			if id, ok := pickID("CD", cdIn); ok && r.Intn(2) == 0 {
				return kill("CD", id)
			}
			if id, ok := pickID("CD", cdIn); ok {
				return UpdateIn("CD", id, 3, relation.Str([]string{"rock", "a-book", "jazz"}[r.Intn(3)]))
			}
		default:
			if id, ok := pickID("CD", cdIn); ok {
				if r.Intn(2) == 0 {
					return UpdateIn("CD", id, 1, title())
				}
				return UpdateIn("CD", id, 2, price())
			}
		}
		return randomDBOp(r, db, fresh, dead)
	}
}

// randomCustomerOp draws one random mutation for the customer
// relation: inserts of fresh customers, deletes, and updates that churn
// both LHS attributes (zip, CC, AC — moving tuples between groups) and
// RHS attributes (street, city), regularly introducing never-seen
// values so the shared dictionaries keep growing.
func randomCustomerOp(r *rand.Rand, db *relation.Database, fresh *int, dead map[string]map[relation.TID]bool) DBOp {
	in := db.MustInstance("customer")
	if dead["customer"] == nil {
		dead["customer"] = make(map[relation.TID]bool)
	}
	var ids []relation.TID
	for _, id := range in.IDs() {
		if !dead["customer"][id] {
			ids = append(ids, id)
		}
	}
	switch k := r.Intn(10); {
	case k < 2 || len(ids) == 0: // insert
		*fresh++
		zip := fmt.Sprintf("EH%d %dLE", r.Intn(4)+1, r.Intn(4))
		if r.Intn(4) == 0 {
			zip = fmt.Sprintf("ZZ%d", *fresh) // brand-new zip: Dict growth
		}
		return InsertInto("customer", relation.Tuple{
			relation.Int(int64([]int{44, 1}[r.Intn(2)])),
			relation.Int(int64(131 + r.Intn(3))),
			relation.Int(int64(1000000 + r.Intn(50))),
			relation.Str(fmt.Sprintf("name-%d", *fresh)),
			relation.Str(fmt.Sprintf("st%d", r.Intn(4))),
			relation.Str([]string{"EDI", "MH", "NYC"}[r.Intn(3)]),
			relation.Str(zip),
		})
	case k < 4: // delete
		id := ids[r.Intn(len(ids))]
		dead["customer"][id] = true
		return DeleteFrom("customer", id)
	default: // update
		id := ids[r.Intn(len(ids))]
		pos := []int{0, 1, 4, 5, 6}[r.Intn(5)] // CC, AC, street, city, zip
		var v relation.Value
		switch pos {
		case 0:
			v = relation.Int(int64([]int{44, 1, 31}[r.Intn(3)]))
		case 1:
			v = relation.Int(int64(131 + r.Intn(4)))
		case 4:
			if r.Intn(3) == 0 {
				*fresh++
				v = relation.Str(fmt.Sprintf("new-street-%d", *fresh))
			} else {
				v = relation.Str(fmt.Sprintf("st%d", r.Intn(4)))
			}
		case 5:
			v = relation.Str([]string{"EDI", "MH", "NYC", "LDN"}[r.Intn(4)])
		default:
			if r.Intn(3) == 0 {
				*fresh++
				v = relation.Str(fmt.Sprintf("ZZ%d", *fresh))
			} else {
				v = relation.Str(fmt.Sprintf("EH%d %dLE", r.Intn(4)+1, r.Intn(4)))
			}
		}
		return UpdateIn("customer", id, pos, v)
	}
}

// monitorInput is one input of the monitor oracle: a database, its
// constraint batch, a random-op source over it, and the string-keyed
// per-class legacy detectors (independent of snapshots, dictionaries
// and changelogs) the maintained set must also match.
type monitorInput struct {
	db     *relation.Database
	cs     []Constraint
	op     func(r *rand.Rand, db *relation.Database, fresh *int, dead map[string]map[relation.TID]bool) DBOp
	legacy func(got []Violation) string // "" when got matches, else the diverging stream
}

// ordersInput is the order/book/CD database under the mixed batch.
func ordersInput(seed int64, orders int, withECFDs bool) monitorInput {
	db := gen.Orders(gen.OrdersConfig{Books: orders / 8, CDs: orders / 10, Orders: orders, Seed: seed, ViolationRate: 0.1})
	cfds, cinds, ecfds := mixedSigma()
	if !withECFDs {
		ecfds = nil
	}
	return monitorInput{db: db, cs: wrapMixed(cfds, cinds, ecfds), op: randomDBOp,
		legacy: func(got []Violation) string {
			gotCFD, gotCIND, gotECFD := SplitViolations(got)
			order := db.MustInstance("order")
			switch {
			case !reflect.DeepEqual(gotCFD, cfd.DetectAll(order, cfds)):
				return "CFD"
			case !reflect.DeepEqual(gotCIND, cind.DetectAll(db, cinds)):
				return "CIND"
			case withECFDs && !reflect.DeepEqual(gotECFD, ecfd.DetectAll(order, ecfds)):
				return "eCFD"
			}
			return ""
		}}
}

// customerInput is the paper's customer instance under the Figure 2
// CFDs.
func customerInput(seed int64, n int) monitorInput {
	in := gen.Customers(gen.CustomerConfig{N: n, Seed: seed, ErrorRate: 0.15})
	db := relation.NewDatabase()
	db.Add(in)
	sigma := sigmaFigure2(in.Schema())
	return monitorInput{db: db, cs: WrapCFDs(sigma), op: randomCustomerOp,
		legacy: func(got []Violation) string {
			if gotCFD, _, _ := SplitViolations(got); !reflect.DeepEqual(gotCFD, cfd.DetectAll(in, sigma)) {
				return "CFD"
			}
			return ""
		}}
}

// checkDiff asserts that gained and cleared exactly transform prev into
// got: every cleared violation was held, no gained one was, and
// prev - cleared + gained is got. step names the batch in failures.
func checkDiff(t *testing.T, step string, prev, gained, cleared, got []Violation) {
	t.Helper()
	next := make(map[Violation]struct{}, len(prev))
	for _, v := range prev {
		next[v] = struct{}{}
	}
	for _, v := range cleared {
		if _, ok := next[v]; !ok {
			t.Fatalf("%s: cleared violation %v was not held", step, v)
		}
		delete(next, v)
	}
	for _, v := range gained {
		if _, ok := next[v]; ok {
			t.Fatalf("%s: gained violation %v was already held", step, v)
		}
		next[v] = struct{}{}
	}
	if len(next) != len(got) {
		t.Fatalf("%s: prev - cleared + gained has %d violations, set has %d", step, len(next), len(got))
	}
	for _, v := range got {
		if _, ok := next[v]; !ok {
			t.Fatalf("%s: %v in set but not in prev - cleared + gained", step, v)
		}
	}
}

// applyFlat applies a monitor batch straight to the database with
// Instance.Insert/Delete/Update, op by op, stopping at the first
// failing op — the routing-free reference for the error text and the
// applied prefix a monitor's Apply must reproduce.
func applyFlat(db *relation.Database, batch []DBOp) error {
	for _, op := range batch {
		in, ok := db.Instance(op.Rel)
		if !ok {
			return fmt.Errorf("dbmonitor: no relation %q", op.Rel)
		}
		var err error
		switch op.Op.Kind {
		case OpInsert:
			_, err = in.Insert(op.Op.Tuple)
		case OpDelete:
			in.Delete(op.Op.TID)
		case OpUpdate:
			err = in.Update(op.Op.TID, op.Op.Pos, op.Op.Val)
		}
		if err != nil {
			return fmt.Errorf("dbmonitor: %v", err)
		}
	}
	return nil
}

// sameTuples asserts that got holds exactly want's relations, TIDs and
// tuples.
func sameTuples(t *testing.T, want, got *relation.Database) {
	t.Helper()
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("relations %v, want %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		w, g := want.MustInstance(name), got.MustInstance(name)
		if !reflect.DeepEqual(g.IDs(), w.IDs()) {
			t.Fatalf("%s: TIDs %v, want %v", name, g.IDs(), w.IDs())
		}
		for _, id := range w.IDs() {
			wt, _ := w.Tuple(id)
			gt, _ := g.Tuple(id)
			if !reflect.DeepEqual(gt, wt) {
				t.Fatalf("%s: tuple %d = %v, want %v", name, id, gt, wt)
			}
		}
	}
}

// dbMonitorOracleRounds drives random batches through the monitor's Apply
// and asserts, after every batch, that the maintained violation set is
// byte-identical to a fresh DetectBatch — and to the per-class legacy
// detectors — and that gained/cleared exactly account for the change.
func dbMonitorOracleRounds(t *testing.T, seed int64, input monitorInput, rounds, maxBatch, changelogCap int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := input.db
	if changelogCap != 0 {
		for _, name := range db.Names() {
			db.MustInstance(name).SetChangelogCap(changelogCap)
		}
	}
	m := NewDBMonitor(New(2), db, input.cs)

	prev := m.Violations()
	fresh := 0
	for round := 0; round < rounds; round++ {
		batch := make([]DBOp, 1+r.Intn(maxBatch))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = input.op(r, db, &fresh, dead)
		}
		gained, cleared, err := m.Apply(batch)
		if err != nil {
			t.Fatalf("seed %d round %d: Apply: %v", seed, round, err)
		}
		got := m.Violations()
		if want := New(1).DetectBatch(db, input.cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d round %d: monitor has %d violations, fresh DetectBatch %d:\nmonitor %v\nfresh   %v",
				seed, round, len(got), len(want), got, want)
		}
		if class := input.legacy(got); class != "" {
			t.Fatalf("seed %d round %d: %s stream diverges from legacy oracle", seed, round, class)
		}
		checkDiff(t, fmt.Sprintf("seed %d round %d", seed, round), prev, gained, cleared, got)
		prev = got
	}
}

func TestDBMonitorMatchesFreshDetection(t *testing.T) {
	for _, seed := range []int64{5, 29, 73} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dbMonitorOracleRounds(t, seed, ordersInput(seed, 300, true), 25, 12, 0)
		})
	}
}

// TestDBMonitorMixedCFDCIND is the acceptance configuration: mixed
// CFD+CIND sets (no eCFDs), heavier churn.
func TestDBMonitorMixedCFDCIND(t *testing.T) {
	for _, seed := range []int64{11, 47} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dbMonitorOracleRounds(t, seed, ordersInput(seed, 400, false), 30, 20, 0)
		})
	}
}

// TestDBMonitorChangelogFallback shrinks the changelogs so batches
// regularly outrun them, forcing the full-resync path; the contract
// must hold unchanged.
func TestDBMonitorChangelogFallback(t *testing.T) {
	dbMonitorOracleRounds(t, 61, ordersInput(61, 200, true), 20, 30, 8)
}

// TestDBMonitorForcedCollisions runs the oracle rounds with every
// CodeIndex probe in one collision chain.
func TestDBMonitorForcedCollisions(t *testing.T) {
	defer relation.SetCodeHasherForTest(func([]uint32) uint64 { return 99 })()
	dbMonitorOracleRounds(t, 83, ordersInput(83, 120, true), 12, 10, 0)
}

// TestDBMonitorEmptyBatch: no ops, no diff.
func TestDBMonitorEmptyBatch(t *testing.T) {
	db := gen.Orders(gen.OrdersConfig{Books: 5, CDs: 5, Orders: 30, Seed: 4, ViolationRate: 0.3})
	cfds, cinds, ecfds := mixedSigma()
	m := NewDBMonitor(nil, db, wrapMixed(cfds, cinds, ecfds))
	gained, cleared, err := m.Apply(nil)
	if err != nil || len(gained) != 0 || len(cleared) != 0 {
		t.Fatalf("empty batch: gained %v cleared %v err %v", gained, cleared, err)
	}
}

// replacedBook builds a stand-in for the database's book relation: a
// new instance holding the same books in as many inserts — so its
// changelog version matches the original's and only the instance
// identity gives the swap away — except that every other book is
// retitled, orphaning the orders that referenced it.
func replacedBook(t *testing.T, db *relation.Database) *relation.Instance {
	t.Helper()
	book := db.MustInstance("book")
	out := relation.NewInstance(book.Schema())
	for i, id := range book.IDs() {
		tup, _ := book.Tuple(id)
		if i%2 == 0 {
			tup = append(relation.Tuple(nil), tup...)
			tup[1] = relation.Str(fmt.Sprintf("Replaced Title %d", i))
		}
		out.MustInsert(tup...)
	}
	if out.Version() != book.Version() {
		t.Fatalf("replacement at version %d, original at %d", out.Version(), book.Version())
	}
	return out
}

// TestDBMonitorRelationReplaced: replacing a relation the batch reads
// after the monitor was built cannot be caught up from a changelog, so
// the next Sync takes the full-resync path — exactly once, with an
// exact diff.
func TestDBMonitorRelationReplaced(t *testing.T) {
	db := gen.Orders(gen.OrdersConfig{Books: 20, CDs: 15, Orders: 150, Seed: 23, ViolationRate: 0.1})
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	m := NewDBMonitor(nil, db, cs)
	prev := m.Violations()
	db.Add(replacedBook(t, db))
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
}

// TestDBMonitorExternalMutations: mutations made directly on the
// database between calls are picked up by Sync.
func TestDBMonitorExternalMutations(t *testing.T) {
	db := gen.Orders(gen.OrdersConfig{Books: 20, CDs: 15, Orders: 150, Seed: 17, ViolationRate: 0.1})
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	m := NewDBMonitor(nil, db, cs)

	// Orphan an order (source side) and delete a referenced book (target
	// side) behind the monitor's back.
	order := db.MustInstance("order")
	order.MustInsert(relation.Str("zz"), relation.Str("No Such Book"), relation.Str("book"), relation.Float(3.99))
	gained, cleared := m.Sync()
	if len(gained) == 0 {
		t.Fatal("orphan insert should gain at least the ϕ4 violation")
	}
	_ = cleared
	if want := New(1).DetectBatch(db, cs); !reflect.DeepEqual(m.Violations(), want) {
		t.Fatal("monitor diverges after external mutations")
	}
	if g, c := m.Sync(); len(g) != 0 || len(c) != 0 {
		t.Fatalf("idle Sync must be empty, got +%d -%d", len(g), len(c))
	}
}

// TestDBMonitorTargetSideUpdates pins the CIND target-side protocol
// precisely: deleting a referenced target tuple gains exactly the
// orphaned sources' violations; re-inserting an equal tuple clears
// them; a Yp-only update (book format) flips ϕ6 verdicts.
func TestDBMonitorTargetSideUpdates(t *testing.T) {
	db := relation.NewDatabase()
	cfds, cinds, ecfds := mixedSigma()
	order := relation.NewInstance(cfds[0].Schema())
	book := relation.NewInstance(cinds[0].Dst())
	cdIn := relation.NewInstance(cinds[1].Dst())
	db.Add(order)
	db.Add(book)
	db.Add(cdIn)
	t1 := relation.Str("Moby Dick")
	p1 := relation.Float(10.99)
	// Both orders share asin too, so the (title, price, type) → asin FD
	// of the fixture stays clean.
	order.MustInsert(relation.Str("a1"), t1, relation.Str("book"), p1)
	order.MustInsert(relation.Str("a1"), t1, relation.Str("book"), p1)
	bid := book.MustInsert(relation.Str("b1"), t1, p1, relation.Str("hard-cover"))
	cdID := cdIn.MustInsert(relation.Str("c1"), relation.Str("Whales"), relation.Float(5.99), relation.Str("rock"))

	cs := wrapMixed(cfds, cinds, ecfds)
	m := NewDBMonitor(New(1), db, cs)
	if m.Len() != 0 {
		t.Fatalf("clean fixture should start empty, has %v", m.Violations())
	}

	// Target delete: both orders orphaned under ϕ4.
	gained, cleared, err := m.Apply([]DBOp{DeleteFrom("book", bid)})
	if err != nil {
		t.Fatal(err)
	}
	if len(gained) != 2 || len(cleared) != 0 {
		t.Fatalf("after target delete: +%v -%v, want exactly the two orphans", gained, cleared)
	}
	// Equal target re-insert (fresh TID): both clear.
	gained, cleared, err = m.Apply([]DBOp{InsertInto("book", relation.Tuple{relation.Str("b2"), t1, p1, relation.Str("paper-cover")})})
	if err != nil {
		t.Fatal(err)
	}
	if len(gained) != 0 || len(cleared) != 2 {
		t.Fatalf("after target re-insert: +%v -%v, want the two orphans cleared", gained, cleared)
	}
	// Yp-only flip: turning the CD into an audio book demands an audio
	// edition (ϕ6) — one gained violation; granting the edition via a
	// Yp-only book format update clears it.
	if _, _, err := m.Apply([]DBOp{
		UpdateIn("CD", cdID, 1, t1), UpdateIn("CD", cdID, 2, p1),
	}); err != nil {
		t.Fatal(err)
	}
	gained, _, err = m.Apply([]DBOp{UpdateIn("CD", cdID, 3, relation.Str("a-book"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(gained) != 1 {
		t.Fatalf("a-book flip should gain the ϕ6 violation, got %v", gained)
	}
	bookIDs := book.IDs()
	gained, cleared, err = m.Apply([]DBOp{UpdateIn("book", bookIDs[len(bookIDs)-1], 3, relation.Str("audio"))})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared) != 1 || len(gained) != 0 {
		t.Fatalf("audio format grant should clear the ϕ6 violation, got +%v -%v", gained, cleared)
	}
	if want := New(1).DetectBatch(db, cs); !reflect.DeepEqual(m.Violations(), want) {
		t.Fatal("monitor diverges at the end of the scripted scenario")
	}
}

// TestDBMonitorBadOp: a failing op mid-batch reports the error and the
// monitor resynchronizes with the applied prefix.
func TestDBMonitorBadOp(t *testing.T) {
	db := gen.Orders(gen.OrdersConfig{Books: 10, CDs: 5, Orders: 40, Seed: 2, ViolationRate: 0})
	cfds, cinds, ecfds := mixedSigma()
	cs := wrapMixed(cfds, cinds, ecfds)
	m := NewDBMonitor(nil, db, cs)
	_, _, err := m.Apply([]DBOp{
		InsertInto("order", relation.Tuple{relation.Str("x"), relation.Str("No Such"), relation.Str("book"), relation.Float(1.99)}),
		{Rel: "nosuch", Op: Delete(0)},
		InsertInto("order", relation.Tuple{relation.Str("y"), relation.Str("Skipped"), relation.Str("book"), relation.Float(1.99)}),
	})
	if err == nil {
		t.Fatal("expected an error for the unknown relation")
	}
	if want := New(1).DetectBatch(db, cs); !reflect.DeepEqual(m.Violations(), want) {
		t.Fatal("monitor out of sync after failed batch")
	}
}

// The TestMonitor* tests run the monitor over a one-relation database:
// the paper's customer instance under the Figure 2 CFDs, churned by
// randomCustomerOp.

// customerDB is a one-relation database over a generated customer
// instance, with the Figure 2 CFDs wrapped as its constraint batch.
func customerDB(n int, seed int64, errorRate float64) (*relation.Database, *relation.Instance, []Constraint) {
	in := gen.Customers(gen.CustomerConfig{N: n, Seed: seed, ErrorRate: errorRate})
	db := relation.NewDatabase()
	db.Add(in)
	return db, in, WrapCFDs(sigmaFigure2(in.Schema()))
}

func TestMonitorMatchesFreshDetection(t *testing.T) {
	for _, seed := range []int64{3, 17, 91} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dbMonitorOracleRounds(t, seed, customerInput(seed, 300), 60, 8, 0)
		})
	}
}

// TestMonitorManySmallBatches is the steady-state serving shape: a long
// run of tiny batches against one relation.
func TestMonitorManySmallBatches(t *testing.T) {
	dbMonitorOracleRounds(t, 7, customerInput(7, 150), 150, 2, 0)
}

// TestMonitorChangelogFallback shrinks the changelog below the batch
// size so Sync always finds the log truncated and must take the
// full-resync path — which must preserve exactness all the same.
func TestMonitorChangelogFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db, in, cs := customerDB(120, 5, 0.2)
	in.SetChangelogCap(6)
	m := NewDBMonitor(nil, db, cs)
	fresh := 0
	for round := 0; round < 25; round++ {
		batch := make([]DBOp, 10) // always larger than the cap
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomCustomerOp(r, db, &fresh, dead)
		}
		if _, _, err := m.Apply(batch); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := m.Violations(), New(1).DetectBatch(db, cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: monitor diverges after changelog fallback", round)
		}
	}
	if m.FullSyncs() == 0 {
		t.Fatal("changelog cap of 6 with batches of 10 never forced a full resync")
	}
}

// TestMonitorExternalMutations mutates the relation directly and
// relies on Sync to pick the changes up from the changelog.
func TestMonitorExternalMutations(t *testing.T) {
	db, in, cs := customerDB(100, 9, 0.1)
	m := NewDBMonitor(nil, db, cs)
	r := rand.New(rand.NewSource(11))
	fresh := 0
	for round := 0; round < 20; round++ {
		for i := 0; i < 3; i++ {
			// Ops are applied immediately, so in.IDs() is always current
			// and no cross-op bookkeeping is needed.
			op := randomCustomerOp(r, db, &fresh, map[string]map[relation.TID]bool{}).Op
			switch op.Kind {
			case OpInsert:
				in.Insert(op.Tuple)
			case OpDelete:
				in.Delete(op.TID)
			case OpUpdate:
				if err := in.Update(op.TID, op.Pos, op.Val); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Sync()
		if got, want := m.Violations(), New(1).DetectBatch(db, cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: monitor missed external mutations", round)
		}
	}
	if m.FullSyncs() != 0 {
		t.Fatalf("external mutations within the changelog forced %d full resyncs", m.FullSyncs())
	}
	// The direct inserts advanced the instance's TID counter; a routed
	// insert must allocate past them.
	op := randomCustomerOp(r, db, &fresh, map[string]map[relation.TID]bool{})
	for op.Op.Kind != OpInsert {
		op = randomCustomerOp(r, db, &fresh, map[string]map[relation.TID]bool{})
	}
	if _, _, err := m.Apply([]DBOp{op}); err != nil {
		t.Fatalf("insert after external inserts: %v", err)
	}
	if got, want := m.Violations(), New(1).DetectBatch(db, cs); !reflect.DeepEqual(got, want) {
		t.Fatal("monitor diverges after an insert following external inserts")
	}
}

// TestMonitorEmptyBatch: no ops, no diff, on a single relation.
func TestMonitorEmptyBatch(t *testing.T) {
	db, _, cs := customerDB(30, 4, 0.3)
	m := NewDBMonitor(nil, db, cs)
	gained, cleared, err := m.Apply(nil)
	if err != nil || len(gained) != 0 || len(cleared) != 0 {
		t.Fatalf("empty batch: gained %v cleared %v err %v", gained, cleared, err)
	}
}

// TestMonitorBadOp: a failing op reports an error but leaves the
// monitor consistent with whatever prefix was applied — and the prefix
// is applied, the suffix is not.
func TestMonitorBadOp(t *testing.T) {
	db, in, cs := customerDB(30, 6, 0.2)
	m := NewDBMonitor(nil, db, cs)
	id := in.IDs()[0]
	_, _, err := m.Apply([]DBOp{
		UpdateIn("customer", id, 4, relation.Str("applied-before-failure")),
		UpdateIn("customer", relation.TID(999999), 4, relation.Str("x")), // no such tuple
		UpdateIn("customer", id, 5, relation.Str("skipped")),
	})
	if err == nil {
		t.Fatal("updating a missing tuple did not error")
	}
	if got, want := m.Violations(), New(1).DetectBatch(db, cs); !reflect.DeepEqual(got, want) {
		t.Fatal("monitor inconsistent after failed op")
	}
	t1, _ := in.Tuple(id)
	if !t1[4].Equal(relation.Str("applied-before-failure")) {
		t.Fatal("prefix op was not applied")
	}
	if t1[5].Equal(relation.Str("skipped")) {
		t.Fatal("op after the failure was applied")
	}
}

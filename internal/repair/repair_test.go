package repair_test

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/denial"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/repair"
)

// TestExample51RepairCount reproduces Example 5.1: Dn (2n tuples, key
// A → B) has exactly 2^n X-repairs.
func TestExample51RepairCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 10} {
		in := gen.Example51(n)
		db := relation.NewDatabase()
		db.Add(in)
		dcs, err := denial.Key(in.Schema(), []string{"A"})
		if err != nil {
			t.Fatal(err)
		}
		h, err := repair.BuildHypergraph(db, dcs)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 << n
		if got := h.CountXRepairs(0); got != want {
			t.Errorf("n=%d: repairs = %d, want 2^%d = %d", n, got, n, want)
		}
	}
}

// TestEnumeratedRepairsAreXRepairs: every enumerated repair passes the
// repair-checking predicate (Theorem 5.1's decision problem).
func TestEnumeratedRepairsAreXRepairs(t *testing.T) {
	in := gen.Example51(3)
	db := relation.NewDatabase()
	db.Add(in)
	dcs, err := denial.Key(in.Schema(), []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := repair.BuildHypergraph(db, dcs)
	if err != nil {
		t.Fatal(err)
	}
	repairs := h.EnumerateXRepairs(0)
	if len(repairs) != 8 {
		t.Fatalf("got %d repairs", len(repairs))
	}
	for i, kept := range repairs {
		// Build the sub-database of kept tuples.
		sub := db.Clone()
		keep := make(map[denial.TupleRef]bool, len(kept))
		for _, ref := range kept {
			keep[ref] = true
		}
		for _, name := range sub.Names() {
			si, _ := sub.Instance(name)
			for _, id := range si.IDs() {
				if !keep[denial.TupleRef{Rel: name, TID: id}] {
					si.Delete(id)
				}
			}
		}
		ok, err := repair.IsXRepair(db, sub, dcs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("repair %d fails IsXRepair", i)
		}
		if ok, _ := repair.IsSRepairDenial(db, sub, dcs); !ok {
			t.Errorf("repair %d fails IsSRepairDenial (must coincide)", i)
		}
	}
	// A non-maximal consistent subset is not an X-repair.
	empty := db.Clone()
	for _, name := range empty.Names() {
		ei, _ := empty.Instance(name)
		for _, id := range ei.IDs() {
			ei.Delete(id)
		}
	}
	if ok, _ := repair.IsXRepair(db, empty, dcs); ok {
		t.Error("the empty database is consistent but not maximal")
	}
	// A non-subset is not an X-repair.
	alien := db.Clone()
	alien.MustInstance("r").MustInsert(relation.Str("zz"), relation.Str("b"))
	if ok, _ := repair.IsXRepair(db, alien, dcs); ok {
		t.Error("a superset must not be an X-repair")
	}
}

func TestGreedyXRepair(t *testing.T) {
	in := gen.Example51(4)
	db := relation.NewDatabase()
	db.Add(in)
	dcs, err := denial.Key(in.Schema(), []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := repair.GreedyXRepair(db, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 {
		t.Errorf("greedy deleted %d tuples, want 4 (one per conflicting pair)", len(removed))
	}
	sub := repair.ApplyDeletions(db, removed)
	ok, err := repair.IsXRepair(db, sub, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("greedy result is not an X-repair")
	}
	// Idempotent on clean data.
	removed2, err := repair.GreedyXRepair(sub, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed2) != 0 {
		t.Errorf("clean database should need no deletions, got %v", removed2)
	}
}

func TestDisMetric(t *testing.T) {
	if repair.Dis(relation.Str("x"), relation.Str("x")) != 0 {
		t.Error("identical values have distance 0")
	}
	if d := repair.Dis(relation.Str("Mayfield"), relation.Str("Crichton")); d <= 0.5 {
		t.Errorf("unrelated streets should be distant: %v", d)
	}
	if d := repair.Dis(relation.Str("Mayfield"), relation.Str("Mayfeld")); d >= 0.3 {
		t.Errorf("typo should be close: %v", d)
	}
	if d := repair.Dis(relation.Int(100), relation.Int(101)); d >= 0.1 {
		t.Errorf("near numbers should be close: %v", d)
	}
	if d := repair.Dis(relation.Int(1), relation.Str("1")); d != 1 {
		t.Errorf("cross-kind distance = %v, want 1", d)
	}
	if d := repair.Dis(relation.Null(), relation.Str("x")); d != 1 {
		t.Errorf("null distance = %v, want 1", d)
	}
}

func TestChangeCostUsesWeights(t *testing.T) {
	d0 := paperdata.Figure1()
	s := d0.Schema()
	city := s.MustLookup("city")
	full := repair.ChangeCost(d0, 0, city, relation.Str("EDI"))
	d0.SetWeight(0, city, 0.5)
	half := repair.ChangeCost(d0, 0, city, relation.Str("EDI"))
	if half >= full || half == 0 {
		t.Errorf("weighted cost %v should be below default %v", half, full)
	}
	if repair.ChangeCost(d0, 99, city, relation.Str("EDI")) != 0 {
		t.Error("missing tuple costs 0")
	}
}

// TestHeuristicRepairFigure1 repairs the paper's dirty D0 against the
// Figure 2 CFDs: afterwards the instance satisfies ϕ1–ϕ3, and the city
// fixes are exactly what the paper prescribes (EDI for t1/t2, MH for t3).
func TestHeuristicRepairFigure1(t *testing.T) {
	d0 := paperdata.Figure1()
	s := d0.Schema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s), paperdata.Phi3(s)}
	report, err := repair.RepairCFDs(d0, sigma, repair.URepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cfd.SatisfiesAll(d0, sigma) {
		t.Fatal("repair left violations")
	}
	city := s.MustLookup("city")
	t0, _ := d0.Tuple(0)
	t1, _ := d0.Tuple(1)
	t2, _ := d0.Tuple(2)
	if t0[city].StrVal() != "EDI" || t1[city].StrVal() != "EDI" {
		t.Errorf("UK cities = %v, %v; want EDI (cfd2)", t0[city], t1[city])
	}
	if t2[city].StrVal() != "MH" {
		t.Errorf("US city = %v; want MH (cfd3)", t2[city])
	}
	// ϕ1: t1/t2 streets must now agree.
	street := s.MustLookup("street")
	if !t0[street].Equal(t1[street]) {
		t.Errorf("streets still differ: %v vs %v", t0[street], t1[street])
	}
	if report.Cost <= 0 || len(report.Changes) == 0 {
		t.Errorf("report = %v", report)
	}
	_ = report.String()
}

// TestHeuristicRepairCleans repairs generated dirty customer data at the
// paper's 1%–5% error rates.
func TestHeuristicRepairCleans(t *testing.T) {
	s := paperdata.CustomerSchema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	for _, rate := range []float64{0.01, 0.05} {
		dirty := gen.Customers(gen.CustomerConfig{N: 300, Seed: 42, ErrorRate: rate})
		before := len(cfd.DetectAll(dirty, sigma))
		report, err := repair.RepairCFDs(dirty, sigma, repair.URepairOptions{})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if !cfd.SatisfiesAll(dirty, sigma) {
			t.Fatalf("rate %v: still dirty", rate)
		}
		if before > 0 && len(report.Changes) == 0 {
			t.Errorf("rate %v: violations existed but no changes made", rate)
		}
	}
	// Clean data needs no changes.
	clean := gen.Customers(gen.CustomerConfig{N: 200, Seed: 1, ErrorRate: 0})
	report, err := repair.RepairCFDs(clean, sigma, repair.URepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Changes) != 0 {
		t.Errorf("clean data repaired with %d changes", len(report.Changes))
	}
}

// TestRepairWeightsSteerConsensus: the weighted-plurality target choice
// follows confidence weights, as the Section 5.1 metric intends.
func TestRepairWeightsSteerConsensus(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("k", relation.KindString),
		relation.Attr("v", relation.KindString),
	)
	key := cfd.MustFD(s, []string{"k"}, []string{"v"})
	in := relation.NewInstance(s)
	a := in.MustInsert(relation.Str("g"), relation.Str("right"))
	b := in.MustInsert(relation.Str("g"), relation.Str("wrong"))
	// Trust a's value fully, b's not at all.
	in.SetWeight(a, 1, 1.0)
	in.SetWeight(b, 1, 0.0)
	if _, err := repair.RepairCFDs(in, []*cfd.CFD{key}, repair.URepairOptions{}); err != nil {
		t.Fatal(err)
	}
	ta, _ := in.Tuple(a)
	tb, _ := in.Tuple(b)
	if ta[1].StrVal() != "right" || tb[1].StrVal() != "right" {
		t.Errorf("consensus = %v/%v, want the trusted value", ta[1], tb[1])
	}
}

func TestRepairRejectsInconsistentSigma(t *testing.T) {
	_, bad := paperdata.Example41()
	in := relation.NewInstance(bad[0].Schema())
	if _, err := repair.RepairCFDs(in, bad, repair.URepairOptions{}); err == nil {
		t.Error("inconsistent Σ must be rejected (no repair exists)")
	}
}

// TestRepairContradictoryDemands exercises the LHS-escape path: a tuple
// caught between two constant demands bends its LHS instead of
// oscillating.
func TestRepairContradictoryDemands(t *testing.T) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("C", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	c1 := cfd.MustNew(s, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("a"))}, []cfd.Cell{cfd.Const(relation.Str("c1"))}))
	c2 := cfd.MustNew(s, []string{"C"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("d"))}, []cfd.Cell{cfd.Const(relation.Str("c2"))}))
	sigma := []*cfd.CFD{c1, c2}
	if ok, _ := cfd.Consistent(sigma); !ok {
		t.Fatal("Σ should be consistent (escape via A≠a or C≠d)")
	}
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("a"), relation.Str("d"), relation.Str("x"))
	if _, err := repair.RepairCFDs(in, sigma, repair.URepairOptions{}); err != nil {
		t.Fatal(err)
	}
	if !cfd.SatisfiesAll(in, sigma) {
		t.Error("contradictory demands not resolved")
	}
}

func TestInstanceCost(t *testing.T) {
	orig := paperdata.Figure1()
	same := orig.Clone()
	if c := repair.InstanceCost(orig, same); c != 0 {
		t.Errorf("identical instances cost %v", c)
	}
	mod := orig.Clone()
	mod.Update(0, orig.Schema().MustLookup("city"), relation.Str("EDI"))
	if c := repair.InstanceCost(orig, mod); c <= 0 {
		t.Error("modification must cost > 0")
	}
	del := orig.Clone()
	del.Delete(2)
	if c := repair.InstanceCost(orig, del); c < 7 {
		t.Errorf("deleting a 7-attribute tuple costs %v, want ≥ 7", c)
	}
	ins := orig.Clone()
	ins.MustInsert(relation.Int(1), relation.Int(2), relation.Int(3),
		relation.Str("x"), relation.Str("y"), relation.Str("z"), relation.Str("w"))
	if c := repair.InstanceCost(orig, ins); c < 7 {
		t.Errorf("inserting a tuple costs %v, want ≥ 7", c)
	}
}

// TestRepairCINDs exercises both repair modes on the Figure 3/4 data.
func TestRepairCINDs(t *testing.T) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cdS := paperdata.CDSchema()
	phi6 := cind.MustNew(cdS, book,
		[]string{"album", "price"}, []string{"title", "price"},
		[]string{"genre"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("a-book")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	_ = order

	// Insertion mode: the missing audio edition is added.
	db := paperdata.Figure3()
	n, err := repair.RepairCINDs(db, []*cind.CIND{phi6}, repair.InsertDemanded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("inserted %d tuples, want 1", n)
	}
	if !cind.Satisfies(db, phi6) {
		t.Error("insertion repair did not resolve ϕ6")
	}

	// Deletion mode: the a-book CD t9 is removed.
	db2 := paperdata.Figure3()
	n, err = repair.RepairCINDs(db2, []*cind.CIND{phi6}, repair.DeleteViolating, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("deleted %d tuples, want 1", n)
	}
	if !cind.Satisfies(db2, phi6) {
		t.Error("deletion repair did not resolve ϕ6")
	}
	if db2.MustInstance("CD").Len() != 1 {
		t.Errorf("CD relation = %d tuples, want 1", db2.MustInstance("CD").Len())
	}
}

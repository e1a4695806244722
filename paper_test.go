package repro_test

// End-to-end integration tests tying the packages together the way the
// paper's narrative does, plus cross-package property tests
// (testing/quick) on the framework invariants.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/core"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/similarity"
)

// TestPaperNarrativeEndToEnd follows the paper front to back on one
// database: FDs see nothing (Fig. 1), CFDs find the errors (Fig. 2),
// static analysis validates the rules (Sec. 4), repair cleans the data
// (Sec. 5.1), and the repaired instance answers queries consistently.
func TestPaperNarrativeEndToEnd(t *testing.T) {
	d0 := paperdata.Figure1()
	s := d0.Schema()

	// Section 2: FDs pass, CFDs fail.
	if !cfd.Satisfies(d0, paperdata.F1(s)) || !cfd.Satisfies(d0, paperdata.F2(s)) {
		t.Fatal("Figure 1 FDs must hold")
	}
	rules := &core.Ruleset{CFDs: []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s), paperdata.Phi3(s)}}

	// Section 4: the rules themselves are clean.
	static := core.Analyze(rules)
	if !static.CFDConsistent {
		t.Fatal("Figure 2 CFDs are consistent")
	}

	// Section 2: detection.
	db := relation.NewDatabase()
	db.Add(d0)
	found, err := core.Detect(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	if found.Clean() {
		t.Fatal("D0 is dirty under the CFDs")
	}

	// Section 5.1: repair.
	cleanRep, err := core.Clean(db, rules, core.CleanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.After != 0 {
		t.Fatalf("repair left %d violations", cleanRep.After)
	}

	// The repaired instance satisfies the paper's semantic expectations.
	city := s.MustLookup("city")
	for tid, want := range map[relation.TID]string{0: "EDI", 1: "EDI", 2: "MH"} {
		tu, _ := d0.Tuple(tid)
		if tu[city].StrVal() != want {
			t.Errorf("t%d city = %v, want %s", tid+1, tu[city], want)
		}
	}

	// Section 5.2 on the now-clean data: every answer is certain.
	dcs, err := denial.Key(s, []string{"CC", "AC", "phn"})
	if err != nil {
		t.Fatal(err)
	}
	q := algebra.CQ{
		Head: []algebra.Term{algebra.V("city")},
		Atoms: []algebra.Atom{{Rel: "customer", Terms: []algebra.Term{
			algebra.V("cc"), algebra.V("ac"), algebra.V("phn"), algebra.V("n"),
			algebra.V("st"), algebra.V("city"), algebra.V("z")}}},
	}
	certain, n, err := cqa.CertainAnswers(db, dcs, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("clean data has exactly one repair (itself); got %d", n)
	}
	if certain.Len() != 2 { // EDI and MH
		t.Errorf("certain cities = %d, want 2", certain.Len())
	}
}

// TestRepairPropertyAlwaysCleans: the heuristic repair is a total cleaner
// for the Figure 2 CFDs on arbitrary generated workloads.
func TestRepairPropertyAlwaysCleans(t *testing.T) {
	s := paperdata.CustomerSchema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s), paperdata.Phi3(s)}
	prop := func(seed int64, rateBits uint8) bool {
		rate := float64(rateBits%50) / 100 // 0%–49%
		in := gen.Customers(gen.CustomerConfig{N: 60, Seed: seed, ErrorRate: rate})
		if _, err := repair.RepairCFDs(in, sigma, repair.URepairOptions{}); err != nil {
			return false
		}
		return cfd.SatisfiesAll(in, sigma)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCQAPropertyCertainAnswersAreAnswers: certain answers are contained
// in the answers over the original instance (a lower bound, as Section
// 5.3 puts it).
func TestCQAPropertyCertainAnswersAreAnswers(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := relation.MustSchema("p",
			relation.Attr("k", relation.KindInt),
			relation.Attr("v", relation.KindInt),
		)
		in := relation.NewInstance(s)
		for i := 0; i < 8; i++ {
			in.MustInsert(relation.Int(int64(rng.Intn(4))), relation.Int(int64(rng.Intn(3))))
		}
		db := relation.NewDatabase()
		db.Add(in)
		dcs, _ := denial.Key(s, []string{"k"})
		q := algebra.CQ{
			Head:  []algebra.Term{algebra.V("k"), algebra.V("v")},
			Atoms: []algebra.Atom{{Rel: "p", Terms: []algebra.Term{algebra.V("k"), algebra.V("v")}}},
		}
		certain, _, err := cqa.CertainAnswers(db, dcs, q, 0)
		if err != nil {
			return false
		}
		orig, err := q.Eval(db)
		if err != nil {
			return false
		}
		present := make(map[string]bool)
		for _, tu := range orig.Tuples() {
			present[tu.Key()] = true
		}
		for _, tu := range certain.Tuples() {
			if !present[tu.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMDImplicationSoundOnData: whenever md.Implies(Σ, key) holds, any
// tuple pair whose values satisfy the key's premises is matched by the
// MD fixpoint over Σ — the dynamic reading of generic implication.
func TestMDImplicationSoundOnData(t *testing.T) {
	card := paperdata.CardSchema()
	billing := paperdata.BillingSchema()
	eq := similarity.Eq()
	m := similarity.MatchOp()
	ed := similarity.EditOp(0.8)
	sigma := []*md.MD{
		md.MustNew(card, billing, []md.PremiseSpec{{Left: "tel", Right: "phn", Op: eq}},
			[]string{"addr"}, []string{"post"}, m),
		md.MustNew(card, billing, []md.PremiseSpec{
			{Left: "LN", Right: "SN", Op: m}, {Left: "addr", Right: "post", Op: m}, {Left: "FN", Right: "FN", Op: ed}},
			paperdata.Yc(), paperdata.Yb(), m),
	}
	key := paperdata.RCKs()[1] // rck2
	if !md.Implies(sigma, key) {
		t.Fatal("Σ ⊨ key expected")
	}
	cardIn, billingIn, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons: 80, Seed: 31, AddrDivergeRate: 0.5,
	})
	yl, _ := card.Positions(paperdata.Yc())
	yr, _ := billing.Positions(paperdata.Yb())
	for _, pair := range truth {
		t1, _ := cardIn.Tuple(pair[0])
		t2, _ := billingIn.Tuple(pair[1])
		if !match.EvaluateKey(key, t1, t2) {
			continue // the key's premises do not hold on this pair
		}
		facts := match.InferMatches(sigma, t1, t2)
		for i := range yl {
			if !facts[md.AttrPair{L: yl[i], R: yr[i]}] {
				t.Fatalf("implication unsound on data: pair %v lacks fact %d", pair, i)
			}
		}
	}
}

// TestCrossFormalismAgreement: an FD expressed as a CFD and as a denial
// constraint flags the same instances.
func TestCrossFormalismAgreement(t *testing.T) {
	s := paperdata.CustomerSchema()
	asCFD := paperdata.F2(s) // [CC,AC] → city
	asDC, err := denial.FromFD(s, []string{"CC", "AC"}, "city")
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		in := gen.Customers(gen.CustomerConfig{N: 40, Seed: seed, ErrorRate: 0.3})
		db := relation.NewDatabase()
		db.Add(in)
		return cfd.Satisfies(in, asCFD) == denial.Satisfies(db, asDC)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCINDRepairModesConverge: both CIND repair modes reach consistency
// on generated order databases.
func TestCINDRepairModesConverge(t *testing.T) {
	sigma := []*cind.CIND{paperdata.Phi4(), paperdata.Phi5(), paperdata.Phi6()}
	for _, mode := range []repair.RepairCINDMode{repair.InsertDemanded, repair.DeleteViolating} {
		db := gen.Orders(gen.OrdersConfig{Books: 30, CDs: 30, Orders: 60, Seed: 5, ViolationRate: 0.2})
		if _, err := repair.RepairCINDs(db, sigma, mode, 0); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !cind.SatisfiesAll(db, sigma) {
			t.Errorf("mode %v left violations", mode)
		}
	}
}

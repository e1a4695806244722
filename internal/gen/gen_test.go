package gen_test

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/gen"
	"repro/internal/paperdata"
)

func TestCustomersCleanSatisfiesFigure2(t *testing.T) {
	in := gen.Customers(gen.CustomerConfig{N: 500, Seed: 4, ErrorRate: 0})
	s := in.Schema()
	if in.Len() != 500 {
		t.Fatalf("len = %d", in.Len())
	}
	for _, c := range []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)} {
		if !cfd.Satisfies(in, c) {
			t.Errorf("clean data violates %v", c)
		}
	}
}

func TestCustomersErrorRateInjectsViolations(t *testing.T) {
	s := paperdata.CustomerSchema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	dirty := gen.Customers(gen.CustomerConfig{N: 500, Seed: 4, ErrorRate: 0.05})
	if len(cfd.DetectAll(dirty, sigma)) == 0 {
		t.Error("5% error rate should produce violations")
	}
	// Higher rates give (weakly) more dirty tuples.
	d1 := gen.Customers(gen.CustomerConfig{N: 500, Seed: 4, ErrorRate: 0.01})
	d10 := gen.Customers(gen.CustomerConfig{N: 500, Seed: 4, ErrorRate: 0.10})
	v1 := len(cfd.ViolatingTIDs(cfd.DetectAll(d1, sigma)))
	v10 := len(cfd.ViolatingTIDs(cfd.DetectAll(d10, sigma)))
	if v10 <= v1 {
		t.Errorf("10%% rate (%d dirty) should exceed 1%% rate (%d)", v10, v1)
	}
}

func TestCustomersDeterministic(t *testing.T) {
	a := gen.Customers(gen.CustomerConfig{N: 50, Seed: 8, ErrorRate: 0.05})
	b := gen.Customers(gen.CustomerConfig{N: 50, Seed: 8, ErrorRate: 0.05})
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic size")
	}
	at, bt := a.Tuples(), b.Tuples()
	for i := range at {
		if !at[i].Equal(bt[i]) {
			t.Fatalf("tuple %d differs across runs", i)
		}
	}
	c := gen.Customers(gen.CustomerConfig{N: 50, Seed: 9, ErrorRate: 0.05})
	same := true
	ct := c.Tuples()
	for i := range at {
		if !at[i].Equal(ct[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func figure4Sigma() []*cind.CIND {
	return []*cind.CIND{paperdata.Phi4(), paperdata.Phi5(), paperdata.Phi6()}
}

func TestOrdersCleanSatisfiesCINDs(t *testing.T) {
	db := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 40, Orders: 100, Seed: 6, ViolationRate: 0})
	if !cind.SatisfiesAll(db, figure4Sigma()) {
		t.Error("violation-free orders must satisfy ϕ4–ϕ6")
	}
	dirty := gen.Orders(gen.OrdersConfig{Books: 40, CDs: 40, Orders: 100, Seed: 6, ViolationRate: 0.3})
	if cind.SatisfiesAll(dirty, figure4Sigma()) {
		t.Error("30% violation rate should break some CIND")
	}
}

func TestCardBillingTruthAlignment(t *testing.T) {
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{NPersons: 40, Seed: 12})
	if card.Len() != 40 || billing.Len() != 40 || len(truth) != 40 {
		t.Fatalf("sizes: %d/%d/%d", card.Len(), billing.Len(), len(truth))
	}
	// Truth pairs share cno, tel/phn and email (the stable identifiers).
	cs, bs := card.Schema(), billing.Schema()
	for _, p := range truth {
		ct, _ := card.Tuple(p[0])
		bt, _ := billing.Tuple(p[1])
		if !ct[cs.MustLookup("cno")].Equal(bt[bs.MustLookup("cno")]) {
			t.Fatal("truth pair cno mismatch")
		}
		if !ct[cs.MustLookup("tel")].Equal(bt[bs.MustLookup("phn")]) {
			t.Fatal("truth pair tel/phn mismatch")
		}
		if !ct[cs.MustLookup("email")].Equal(bt[bs.MustLookup("email")]) {
			t.Fatal("truth pair email mismatch")
		}
	}
}

func TestCardBillingVariationRates(t *testing.T) {
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons: 200, Seed: 12, AddrDivergeRate: 0.5,
	})
	cs, bs := card.Schema(), billing.Schema()
	diverged := 0
	for _, p := range truth {
		ct, _ := card.Tuple(p[0])
		bt, _ := billing.Tuple(p[1])
		if !ct[cs.MustLookup("addr")].Equal(bt[bs.MustLookup("post")]) {
			diverged++
		}
	}
	if diverged < 60 || diverged > 140 {
		t.Errorf("diverged addresses = %d/200, want near 100", diverged)
	}
}

func TestExample51Shape(t *testing.T) {
	in := gen.Example51(5)
	if in.Len() != 10 {
		t.Fatalf("len = %d, want 10", in.Len())
	}
	// Every a_i appears exactly twice with b and b'.
	counts := map[string]int{}
	for _, tu := range in.Tuples() {
		counts[tu[0].StrVal()]++
	}
	for a, c := range counts {
		if c != 2 {
			t.Errorf("%s appears %d times", a, c)
		}
	}
	key := cfd.MustFD(in.Schema(), []string{"A"}, []string{"B"})
	if cfd.Satisfies(in, key) {
		t.Error("Example 5.1 instances violate the key by construction")
	}
}

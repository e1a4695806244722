package md_test

import (
	"testing"

	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/similarity"
)

// sigma1 builds Σ1 of Example 4.3: the MDs φ1–φ4 of Example 3.1 over the
// card/billing schemas of Section 3.1.
func sigma1() (left, right *relation.Schema, set []*md.MD) {
	return paperdata.CardSchema(), paperdata.BillingSchema(), paperdata.Sigma1()
}

// TestExample43RCKImplication reproduces Example 4.3: Σ1 ⊨m rck_i for
// each i ∈ [1,3].
func TestExample43RCKImplication(t *testing.T) {
	for i, rck := range paperdata.RCKs() {
		if !md.Implies(paperdata.Sigma1(), rck) {
			t.Errorf("Σ1 ⊨m rck%d failed: %v", i+1, rck)
		}
	}
}

// TestImplicationNegative: without the bridging MDs the keys are not
// implied, and an unrelated conclusion never follows.
func TestImplicationNegative(t *testing.T) {
	card, billing, set := sigma1()
	keys := paperdata.RCKs()
	// Without φ2 (email bridge), rck1 is no longer derivable.
	noPhi2 := []*md.MD{set[0], set[2], set[3]}
	if md.Implies(noPhi2, keys[0]) {
		t.Error("rck1 should need φ2")
	}
	// Without φ1 (tel/phn → addr/post), rck2 is no longer derivable.
	noPhi1 := []*md.MD{set[1], set[2], set[3]}
	if md.Implies(noPhi1, keys[1]) {
		t.Error("rck2 should need φ1")
	}
	// An unrelated conclusion (cno ⇋ item) never follows.
	bogus := md.MustNew(card, billing,
		[]md.PremiseSpec{{Left: "tel", Right: "phn", Op: similarity.Eq()}},
		[]string{"cno"}, []string{"item"}, similarity.MatchOp())
	if md.Implies(set, bogus) {
		t.Error("unrelated conclusion must not be implied")
	}
	// Weakening the premise below the registered operator also fails:
	// rck2 with edit threshold lower than ≈d is weaker, hence not implied
	// unless containment covers it.
	weak := md.MustRelativeKey(card, billing,
		[]string{"LN", "tel", "FN"}, []string{"SN", "phn", "FN"},
		[]similarity.Op{similarity.Eq(), similarity.Eq(), similarity.EditOp(0.5)},
		paperdata.Yc(), paperdata.Yb())
	if md.Implies(set, weak) {
		t.Error("a weaker premise (edit≥0.5) must not satisfy φ4's ≈d (edit≥0.8)")
	}
	// While a stronger premise (edit≥0.9 ⊆ edit≥0.8) still works.
	strong := md.MustRelativeKey(card, billing,
		[]string{"LN", "tel", "FN"}, []string{"SN", "phn", "FN"},
		[]similarity.Op{similarity.Eq(), similarity.Eq(), similarity.EditOp(0.9)},
		paperdata.Yc(), paperdata.Yb())
	if !md.Implies(set, strong) {
		t.Error("a stronger premise must still derive the key")
	}
}

func TestMDConstructorValidation(t *testing.T) {
	card := paperdata.CardSchema()
	billing := paperdata.BillingSchema()
	eq := similarity.Eq()
	if _, err := md.New(card, billing, nil, []string{"addr"}, []string{"post"}, similarity.MatchOp()); err == nil {
		t.Error("want error for empty premise")
	}
	if _, err := md.New(card, billing,
		[]md.PremiseSpec{{Left: "tel", Right: "phn", Op: eq}},
		nil, nil, similarity.MatchOp()); err == nil {
		t.Error("want error for empty conclusion")
	}
	if _, err := md.New(card, billing,
		[]md.PremiseSpec{{Left: "ghost", Right: "phn", Op: eq}},
		[]string{"addr"}, []string{"post"}, similarity.MatchOp()); err == nil {
		t.Error("want error for unknown premise attribute")
	}
	if _, err := md.New(card, billing,
		[]md.PremiseSpec{{Left: "tel", Right: "price", Op: eq}},
		[]string{"addr"}, []string{"post"}, similarity.MatchOp()); err == nil {
		t.Error("want error for kind-incompatible premise (string vs real)")
	}
	if _, err := md.New(card, billing,
		[]md.PremiseSpec{{Left: "tel", Right: "phn", Op: eq}},
		[]string{"FN", "LN"}, []string{"FN", "SN"}, similarity.EditOp(0.8)); err == nil {
		t.Error("want error for non-⇋ list conclusion")
	}
	if _, err := md.RelativeKey(card, billing,
		[]string{"tel"}, []string{"phn"}, []similarity.Op{similarity.MatchOp()},
		paperdata.Yc(), paperdata.Yb()); err == nil {
		t.Error("relative keys must reject ⇋ premises")
	}
	if _, err := md.RelativeKey(card, billing,
		[]string{"tel"}, []string{"phn", "email"}, []similarity.Op{eq},
		paperdata.Yc(), paperdata.Yb()); err == nil {
		t.Error("want error for unbalanced lists")
	}
}

func TestRelativeKeyPredicate(t *testing.T) {
	_, _, set := sigma1()
	keys := paperdata.RCKs()
	for i, k := range keys {
		if !k.IsRelativeKey() {
			t.Errorf("rck%d must be a relative key", i+1)
		}
		if k.Length() == 0 {
			t.Errorf("rck%d length 0", i+1)
		}
	}
	// φ2 and φ3 have ⇋ premises: not relative keys.
	if set[1].IsRelativeKey() || set[2].IsRelativeKey() {
		t.Error("MDs with ⇋ premises are not relative keys")
	}
	// φ1 has no ⇋ premise and a ⇋ conclusion: it is a key relative to
	// (addr, post).
	if !set[0].IsRelativeKey() {
		t.Error("φ1 is a key relative to ([addr],[post])")
	}
	for _, m := range set {
		if m.String() == "" {
			t.Error("String must render")
		}
	}
}

func TestLessEqOrder(t *testing.T) {
	card, billing, _ := sigma1()
	keys := paperdata.RCKs()
	// rck1 and rck2 are incomparable.
	if keys[0].LessEq(keys[1]) || keys[1].LessEq(keys[0]) {
		t.Error("rck1 and rck2 must be incomparable")
	}
	// A key with a premise dropped is ≤ the original.
	shorter := md.MustRelativeKey(card, billing,
		[]string{"LN", "tel"}, []string{"SN", "phn"},
		[]similarity.Op{similarity.Eq(), similarity.Eq()},
		paperdata.Yc(), paperdata.Yb())
	if !shorter.LessEq(keys[1]) {
		t.Error("dropping a premise gives a smaller key")
	}
	if keys[1].LessEq(shorter) {
		t.Error("the longer key must not be ≤ the shorter one")
	}
	// Weakening an operator gives a smaller key: edit≥0.5 contains
	// edit≥0.8, so the 0.5 variant asks less.
	weaker := md.MustRelativeKey(card, billing,
		[]string{"LN", "tel", "FN"}, []string{"SN", "phn", "FN"},
		[]similarity.Op{similarity.Eq(), similarity.Eq(), similarity.EditOp(0.5)},
		paperdata.Yc(), paperdata.Yb())
	if !weaker.LessEq(keys[1]) || keys[1].LessEq(weaker) {
		t.Error("operator weakening must strictly shrink the key")
	}
	// Every key is ≤ itself.
	if !keys[1].LessEq(keys[1]) {
		t.Error("LessEq must be reflexive")
	}
}

// TestDeriveRCKs reproduces the Section 3.3/4.2 workflow: derive relative
// candidate keys from Σ1 and verify they include (keys at least as small
// as) the paper's rck1–rck3.
func TestDeriveRCKs(t *testing.T) {
	_, _, set := sigma1()
	derived, err := md.DeriveRCKs(set, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(derived) == 0 {
		t.Fatal("no RCKs derived")
	}
	for _, k := range derived {
		if !k.IsRelativeKey() {
			t.Errorf("derived key is not a relative key: %v", k)
		}
		if !md.Implies(set, k) {
			t.Errorf("derived key not implied by Σ1: %v", k)
		}
	}
	// Every paper key is dominated by (or equal to) some derived key.
	for i, paper := range paperdata.RCKs() {
		covered := false
		for _, k := range derived {
			if k.LessEq(paper) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("rck%d not covered by derived keys:\npaper: %v\nderived: %v", i+1, paper, derived)
		}
	}
	// No derived key dominates another (candidate-key minimality).
	for i, a := range derived {
		for j, b := range derived {
			if i != j && a.LessEq(b) && !b.LessEq(a) {
				t.Errorf("derived set not minimal: %v < %v", a, b)
			}
		}
	}
	if _, err := md.DeriveRCKs(nil, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{}); err == nil {
		t.Error("want error for empty Σ")
	}
	if _, err := md.DeriveRCKs(set, []string{"ghost"}, []string{"item"}, md.DeriveOptions{}); err == nil {
		t.Error("want error for unknown target attribute")
	}
}

func TestMinimalCoverMD(t *testing.T) {
	_, _, set := sigma1()
	// Add a redundant MD: rck3 is implied by Σ1.
	redundant := paperdata.RCKs()[2]
	cover := md.MinimalCover(append(append([]*md.MD(nil), set...), redundant))
	if len(cover) >= len(set)+1 {
		t.Errorf("cover did not shrink: %d MDs", len(cover))
	}
	for _, m := range set {
		if !md.Implies(cover, m) {
			t.Errorf("cover lost %v", m)
		}
	}
}

func TestImpliesSelfAndClone(t *testing.T) {
	_, _, set := sigma1()
	for _, m := range set {
		if !md.Implies([]*md.MD{m}, m) {
			t.Errorf("m ⊭ m for %v", m)
		}
		c := m.Clone()
		if c.Key() != m.Key() {
			t.Error("clone changed identity")
		}
	}
}

package match_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/similarity"
)

// sigma1 rebuilds the Example 3.1 MDs φ1–φ4.
func sigma1() (card, billing *relation.Schema, set []*md.MD) {
	return paperdata.CardSchema(), paperdata.BillingSchema(), paperdata.Sigma1()
}

// givenRules are the paper's hand-written matching rules rck1 and rck3
// (the comparison vectors practitioners start from).
func givenRules() []*md.MD {
	rck := paperdata.RCKs()
	return []*md.MD{rck[0], rck[2]}
}

func TestMatcherOnCleanPairs(t *testing.T) {
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{NPersons: 60, Seed: 3})
	m := &match.Matcher{
		Left: card, Right: billing,
		Rules:   givenRules(),
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
	}
	pairs, err := m.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}
	q := match.Evaluate(pairs, truthPairs)
	if q.Recall < 0.99 || q.Precision < 0.99 {
		t.Errorf("clean data should match perfectly: %v", q)
	}
}

// TestDerivedRCKsImproveRecall reproduces the paper's central claim about
// derived rules (Section 3.1): pairs whose addresses radically differ are
// missed by the given rules but identified by RCKs derived from Σ1 via
// implication analysis.
func TestDerivedRCKsImproveRecall(t *testing.T) {
	_, _, set := sigma1()
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons:        120,
		Seed:            7,
		AbbrevRate:      0.15,
		TypoRate:        0.1,
		AddrDivergeRate: 0.3,
	})
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}

	given := &match.Matcher{
		Left: card, Right: billing,
		Rules:   givenRules(),
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
	}
	gp, err := given.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	qGiven := match.Evaluate(gp, truthPairs)

	derived, err := md.DeriveRCKs(set, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withDerived := &match.Matcher{
		Left: card, Right: billing,
		Rules:   append(append([]*md.MD(nil), givenRules()...), derived...),
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
	}
	dp, err := withDerived.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	qDerived := match.Evaluate(dp, truthPairs)

	if qDerived.Recall <= qGiven.Recall {
		t.Errorf("derived RCKs must improve recall: given %v, derived %v", qGiven, qDerived)
	}
	if qDerived.Precision < 0.99 {
		t.Errorf("derived RCKs should not hurt precision here: %v", qDerived)
	}
	// The given rules demonstrably miss the diverged-address pairs.
	if qGiven.Recall > 0.9 {
		t.Errorf("test setup: given-rule recall should visibly suffer, got %v", qGiven)
	}
}

// TestFixpointMatchesMDChain: with UseFixpoint, the raw MDs φ1–φ4 (which
// have ⇋ premises) identify pairs via inference chains — e.g. equal tel
// derives addr ⇋ post (φ1), feeding φ4.
func TestFixpointMatchesMDChain(t *testing.T) {
	_, _, set := sigma1()
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons:        80,
		Seed:            11,
		AddrDivergeRate: 0.4,
	})
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}
	m := &match.Matcher{
		Left: card, Right: billing,
		Rules:   set,
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
		UseFixpoint: true,
	}
	pairs, err := m.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	q := match.Evaluate(pairs, truthPairs)
	if q.Recall < 0.99 {
		t.Errorf("fixpoint over Σ1 should identify all pairs (tel is shared): %v", q)
	}
	// Without the fixpoint, rules with ⇋ premises must be rejected.
	m.UseFixpoint = false
	if _, err := m.Pairs(); err == nil {
		t.Error("⇋-premise rules require UseFixpoint")
	}
}

func TestBlockingReducesCandidatesNotRecall(t *testing.T) {
	cardS, billingS, set := sigma1()
	card, billing, truth := gen.CardBilling(gen.CardBillingConfig{NPersons: 100, Seed: 19})
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}
	blocker, err := match.SoundexBlocker(cardS, billingS, "LN", "SN")
	if err != nil {
		t.Fatal(err)
	}
	derived, err := md.DeriveRCKs(set, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &match.Matcher{
		Left: card, Right: billing,
		Rules:   derived,
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
		Blocker: blocker,
	}
	pairs, err := m.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	q := match.Evaluate(pairs, truthPairs)
	if q.Recall < 0.99 {
		t.Errorf("soundex blocking on identical last names must not lose matches: %v", q)
	}
	if _, err := match.SoundexBlocker(cardS, billingS, "ghost", "SN"); err == nil {
		t.Error("want error for unknown blocking attribute")
	}
	if _, err := match.SoundexBlocker(cardS, billingS, "LN", "ghost"); err == nil {
		t.Error("want error for unknown right blocking attribute")
	}
}

func TestClusterTransitivity(t *testing.T) {
	// Two card tuples matching the same billing tuple land in one cluster
	// (⇋ is transitive).
	pairs := []match.Pair{{L: 0, R: 5}, {L: 1, R: 5}, {L: 2, R: 7}}
	clusters := match.Cluster(pairs)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	if len(clusters[0][0]) != 2 || len(clusters[0][1]) != 1 {
		t.Errorf("first cluster = %v, want two left TIDs sharing right 5", clusters[0])
	}
	if clusters[1][0][0] != 2 || clusters[1][1][0] != 7 {
		t.Errorf("second cluster = %v", clusters[1])
	}
	if got := match.Cluster(nil); len(got) != 0 {
		t.Errorf("empty input yields no clusters, got %v", got)
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	q := match.Evaluate(nil, nil)
	if q.Precision != 0 || q.Recall != 0 || q.F1 != 0 {
		t.Errorf("empty evaluation: %v", q)
	}
	q = match.Evaluate([]match.Pair{{L: 1, R: 1}, {L: 1, R: 1}}, []match.Pair{{L: 1, R: 1}})
	if q.TruePos != 1 || q.FalsePos != 0 {
		t.Errorf("duplicate matches must count once: %v", q)
	}
	if q.String() == "" {
		t.Error("String must render")
	}
	m := &match.Matcher{
		Left:    relation.NewInstance(paperdata.CardSchema()),
		Right:   relation.NewInstance(paperdata.BillingSchema()),
		TargetL: []string{"ghost"}, TargetR: []string{"item"},
	}
	if _, err := m.Pairs(); err == nil {
		t.Error("want error for unknown target attribute")
	}
	m.TargetL = paperdata.Yc()
	m.TargetR = []string{"item"}
	if _, err := m.Pairs(); err == nil {
		t.Error("want error for unbalanced targets")
	}
}

func TestEvaluateKeyDirect(t *testing.T) {
	cardS, billingS, _ := sigma1()
	key := md.MustRelativeKey(cardS, billingS,
		[]string{"FN"}, []string{"FN"},
		[]similarity.Op{similarity.EditOp(0.8)},
		[]string{"FN"}, []string{"FN"})
	card := relation.NewInstance(cardS)
	billing := relation.NewInstance(billingS)
	mk := func(in *relation.Instance, vals ...string) relation.Tuple {
		t := make(relation.Tuple, in.Schema().Arity())
		for i := range t {
			t[i] = relation.Str("")
		}
		t[in.Schema().MustLookup("FN")] = relation.Str(vals[0])
		return t
	}
	if !match.EvaluateKey(key, mk(card, "James"), mk(billing, "Jamis")) {
		t.Error("one edit on a 5-letter name is ≥0.8 similar")
	}
	if match.EvaluateKey(key, mk(card, "James"), mk(billing, "Ruth")) {
		t.Error("unrelated names must not match")
	}
}

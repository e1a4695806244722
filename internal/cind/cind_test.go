package cind_test

import (
	"testing"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// figure4 builds the CINDs ϕ4, ϕ5, ϕ6 of Figure 4.
func figure4() (phi4, phi5, phi6 *cind.CIND) {
	return paperdata.Phi4(), paperdata.Phi5(), paperdata.Phi6()
}

// TestFigure4CINDs reproduces the paper's Figure 3/4 claims: D1 satisfies
// cind1 (ϕ4) and cind2 (ϕ5) but violates cind3 (ϕ6) through t9.
func TestFigure4CINDs(t *testing.T) {
	db := paperdata.Figure3()
	phi4, phi5, phi6 := figure4()
	if !cind.Satisfies(db, phi4) {
		t.Error("D1 should satisfy ϕ4 (cind1)")
	}
	if !cind.Satisfies(db, phi5) {
		t.Error("D1 should satisfy ϕ5 (cind2)")
	}
	if cind.Satisfies(db, phi6) {
		t.Error("D1 should violate ϕ6 (cind3): t9 has no audio book match")
	}
	vs := cind.Detect(db, phi6)
	if len(vs) != 1 {
		t.Fatalf("ϕ6 violations = %v, want exactly t9", vs)
	}
	// t9 is the second CD tuple, TID 1.
	if vs[0].TID != 1 {
		t.Errorf("violating TID = %d, want 1 (t9)", vs[0].TID)
	}
	_ = vs[0].String()
}

// TestFigure4FixByInsertion checks the semantics precisely: inserting the
// demanded audio-book tuple repairs ϕ6.
func TestFigure4FixByInsertion(t *testing.T) {
	db := paperdata.Figure3()
	_, _, phi6 := figure4()
	book := db.MustInstance("book")
	book.MustInsert(relation.Str("b99"), relation.Str("Snow White"), relation.Float(7.99), relation.Str("audio"))
	if !cind.Satisfies(db, phi6) {
		t.Error("after inserting the audio edition, ϕ6 must hold")
	}
}

// TestPlainINDsMakeNoSense reproduces the paper's motivation: the
// unconditional INDs order(title,price) ⊆ book(title,price) and
// order(title,price) ⊆ CD(album,price) are both violated by D1.
func TestPlainINDsMakeNoSense(t *testing.T) {
	db := paperdata.Figure3()
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cd := paperdata.CDSchema()
	ind1 := cind.MustIND(order, book, []string{"title", "price"}, []string{"title", "price"})
	ind2 := cind.MustIND(order, cd, []string{"title", "price"}, []string{"album", "price"})
	// ind1 happens to hold on D1 only because "Snow White" exists as a
	// book at the same price — a coincidence, not a semantic guarantee.
	if !cind.Satisfies(db, ind1) {
		t.Error("on this particular D1, ind1 is (coincidentally) satisfied")
	}
	if cind.Satisfies(db, ind2) {
		t.Error("the book order t5 cannot match a CD: IND must fail")
	}
	if !ind1.IsIND() {
		t.Error("pattern-free CIND should report IsIND")
	}
	if _, _, phi6 := figure4(); phi6.IsIND() {
		t.Error("ϕ6 is not a traditional IND")
	}
}

func TestCINDValidation(t *testing.T) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	if _, err := cind.New(order, book, nil, nil, nil, nil); err == nil {
		t.Error("want error for empty X")
	}
	if _, err := cind.New(order, book, []string{"title"}, []string{"title", "price"}, nil, nil); err == nil {
		t.Error("want error for unbalanced X/Y")
	}
	if _, err := cind.New(order, book, []string{"price"}, []string{"format"}, nil, nil); err == nil {
		t.Error("want error for kind mismatch (real vs string)")
	}
	if _, err := cind.New(order, book, []string{"title"}, []string{"title"}, []string{"type"}, nil); err == nil {
		t.Error("want error for pattern attrs without rows")
	}
	if _, err := cind.New(order, book, []string{"title"}, []string{"title"}, []string{"type"}, nil,
		cind.PatternRow{}); err == nil {
		t.Error("want error for row arity mismatch")
	}
	if _, err := cind.New(order, book, []string{"title"}, []string{"title"}, []string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Null()}}); err == nil {
		t.Error("want error for null pattern constant")
	}
	if _, err := cind.New(order, book, []string{"nope"}, []string{"title"}, nil, nil); err == nil {
		t.Error("want error for unknown attribute")
	}
}

// TestTable1CINDAlwaysConsistent exercises the O(1) consistency row of
// Table 1: arbitrary CIND sets always have a nonempty witness, and
// BuildWitness constructs one.
func TestTable1CINDAlwaysConsistent(t *testing.T) {
	phi4, phi5, phi6 := figure4()
	sets := [][]*cind.CIND{
		{phi4},
		{phi4, phi5},
		{phi4, phi5, phi6},
	}
	for i, set := range sets {
		db, err := cind.BuildWitness(set, "", 0)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if db.Size() == 0 {
			t.Fatalf("set %d: empty witness", i)
		}
		if !cind.SatisfiesAll(db, set) {
			t.Errorf("set %d: witness does not satisfy the set", i)
		}
	}
	// Even cyclic CIND sets are consistent (shared placeholder values
	// close the cycle).
	r1 := relation.MustSchema("r1", relation.Attr("a", relation.KindString))
	r2 := relation.MustSchema("r2", relation.Attr("b", relation.KindString))
	cyc := []*cind.CIND{
		cind.MustIND(r1, r2, []string{"a"}, []string{"b"}),
		cind.MustIND(r2, r1, []string{"b"}, []string{"a"}),
	}
	db, err := cind.BuildWitness(cyc, "r1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cind.SatisfiesAll(db, cyc) {
		t.Error("cyclic witness invalid")
	}
	if _, err := cind.BuildWitness(cyc, "ghost", 0); err == nil {
		t.Error("want error for unknown seed relation")
	}
}

// TestCINDImplicationTransitivity: {R1 ⊆ R2, R2 ⊆ R3} ⊨ R1 ⊆ R3 with
// patterns chained through Yp (the cind1 ∘ cind3 composition of the
// paper: book orders end up as book tuples; a-book CDs end up as audio
// books).
func TestCINDImplicationTransitivity(t *testing.T) {
	order := paperdata.OrderSchema()
	cd := paperdata.CDSchema()
	book := paperdata.BookSchema()
	// order(title,price; type='CD') ⊆ CD(album,price; genre='a-book') —
	// a strengthened ϕ5 whose target pattern feeds ϕ6's source pattern.
	strongPhi5 := cind.MustNew(order, cd,
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, []string{"genre"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("a-book")},
		})
	_, _, phi6 := figure4()
	target := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	if got := cind.Implies([]*cind.CIND{strongPhi5, phi6}, target); got != cind.Yes {
		t.Errorf("composition should be implied, got %v", got)
	}
	// Without the middle pattern guarantee it must fail: plain ϕ5 does
	// not force genre='a-book', so ϕ6 need not fire.
	phi4, phi5, _ := figure4()
	if got := cind.Implies([]*cind.CIND{phi5, phi6}, target); got != cind.No {
		t.Errorf("without the Yp guarantee implication must fail, got %v", got)
	}
	// Unrelated CIND is not implied.
	if got := cind.Implies([]*cind.CIND{phi4}, target); got != cind.No {
		t.Errorf("ϕ4 ⊭ target, got %v", got)
	}
	// Every CIND implies itself.
	if got := cind.Implies([]*cind.CIND{phi6}, phi6); got != cind.Yes {
		t.Errorf("self implication, got %v", got)
	}
	// Projection consequence: order[title;type=book] ⊆ book[title].
	proj := cind.MustNew(order, book, []string{"title"}, []string{"title"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	if got := cind.Implies([]*cind.CIND{phi4}, proj); got != cind.Yes {
		t.Errorf("projection should be implied, got %v", got)
	}
}

// TestCINDImplicationCyclicUnknown: a cyclic set can drive the chase past
// its bound, yielding Unknown rather than a wrong answer.
func TestCINDImplicationCyclicUnknown(t *testing.T) {
	r := relation.MustSchema("r", relation.Attr("a", relation.KindString), relation.Attr("b", relation.KindString))
	s := relation.MustSchema("s", relation.Attr("c", relation.KindString), relation.Attr("d", relation.KindString))
	// r[a] ⊆ s[c], s[d] ⊆ r[a]: each demanded tuple has a fresh partner
	// column, so the chase keeps generating.
	c1 := cind.MustIND(r, s, []string{"a"}, []string{"c"})
	c2 := cind.MustIND(s, r, []string{"d"}, []string{"a"})
	target := cind.MustIND(r, s, []string{"a"}, []string{"d"})
	got := cind.ImpliesBounded([]*cind.CIND{c1, c2}, target, 3)
	if got != cind.Unknown && got != cind.No {
		t.Errorf("cyclic chase should be Unknown (or a definite No at fixpoint), got %v", got)
	}
	if got := cind.Result(99).String(); got == "" {
		t.Error("Result String must not be empty")
	}
}

func TestAxiomSoundness(t *testing.T) {
	phi4, _, phi6 := figure4()
	// Permute: swap the (title, price) pairs of ϕ4.
	perm, err := cind.Permute(phi4, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := cind.Implies([]*cind.CIND{phi4}, perm); got != cind.Yes {
		t.Errorf("Permute unsound or chase incomplete: %v", got)
	}
	// Projection via Permute.
	proj, err := cind.Permute(phi4, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := cind.Implies([]*cind.CIND{phi4}, proj); got != cind.Yes {
		t.Errorf("projection unsound: %v", got)
	}
	if _, err := cind.Permute(phi4, nil); err == nil {
		t.Error("want error for empty Permute")
	}
	if _, err := cind.Permute(phi4, []int{7}); err == nil {
		t.Error("want error for out-of-range index")
	}

	// Transit on the strengthened chain (as in the implication test).
	order := paperdata.OrderSchema()
	cd := paperdata.CDSchema()
	strongPhi5 := cind.MustNew(order, cd,
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, []string{"genre"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("a-book")},
		})
	composed, err := cind.Transit(strongPhi5, phi6)
	if err != nil {
		t.Fatal(err)
	}
	if got := cind.Implies([]*cind.CIND{strongPhi5, phi6}, composed); got != cind.Yes {
		t.Errorf("Transit unsound: %v", got)
	}
	// Transit without the pattern guarantee must be rejected.
	_, phi5, _ := figure4()
	if _, err := cind.Transit(phi5, phi6); err == nil {
		t.Error("Transit must refuse composition without the Yp ⊇ Xp2 guarantee")
	}
	// Reflexivity is always implied, even by the empty set.
	refl, err := cind.Reflexive(phi4)
	if err != nil {
		t.Fatal(err)
	}
	if got := cind.Implies(nil, refl); got != cind.Yes {
		t.Errorf("identity CIND must be implied by ∅: %v", got)
	}
}

func TestInteractionSemiDecision(t *testing.T) {
	// (1) Inconsistent CFDs alone force No.
	_, bad := paperdata.Example41()
	r, _ := cind.InteractionConsistent(bad, nil, 0)
	if r != cind.No {
		t.Errorf("inconsistent CFDs: want No, got %v", r)
	}
	// (2) Consistent CFDs with compatible CINDs: Yes with a witness that
	// satisfies both sets.
	s := paperdata.CustomerSchema()
	custCFDs := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	// A CIND from customer to a directory relation keyed by city.
	dir := relation.MustSchema("directory",
		relation.Attr("city", relation.KindString),
		relation.Attr("country", relation.KindString))
	toDir := cind.MustNew(s, dir, []string{"city"}, []string{"city"},
		nil, []string{"country"},
		cind.PatternRow{YpVals: []relation.Value{relation.Str("UK")}})
	res, db := cind.InteractionConsistent(custCFDs, []*cind.CIND{toDir}, 0)
	if res != cind.Yes {
		t.Fatalf("consistent combination: want Yes, got %v", res)
	}
	if db == nil || db.Size() == 0 {
		t.Fatal("no witness database returned")
	}
	if !cind.SatisfiesAll(db, []*cind.CIND{toDir}) {
		t.Error("witness violates the CIND")
	}
	cust, ok := db.Instance("customer")
	if !ok || !cfd.SatisfiesAll(cust, custCFDs) {
		t.Error("witness violates the CFDs")
	}
	// (3) CFD-only combination: Yes.
	res, _ = cind.InteractionConsistent(custCFDs, nil, 0)
	if res != cind.Yes {
		t.Errorf("CFD-only: want Yes, got %v", res)
	}
	// (4) CIND-only combination: Yes.
	res, _ = cind.InteractionConsistent(nil, []*cind.CIND{toDir}, 0)
	if res != cind.Yes {
		t.Errorf("CIND-only: want Yes, got %v", res)
	}
}

func TestInteractionImplies(t *testing.T) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	phi4 := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	proj := cind.MustNew(order, book, []string{"title"}, []string{"title"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	// Pure-CIND consequences stay Yes with CFDs present.
	bookKey := cfd.MustFD(book, []string{"isbn"}, []string{"title", "price", "format"})
	if got := cind.InteractionImplies([]*cfd.CFD{bookKey}, []*cind.CIND{phi4}, proj, cind.DefaultChaseBound); got != cind.Yes {
		t.Errorf("want Yes, got %v", got)
	}
	// A non-consequence whose chase countermodel satisfies the CFDs is a
	// definite No.
	other := cind.MustNew(order, book, []string{"title"}, []string{"isbn"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	if got := cind.InteractionImplies([]*cfd.CFD{bookKey}, []*cind.CIND{phi4}, other, cind.DefaultChaseBound); got != cind.No {
		t.Errorf("want No, got %v", got)
	}
}

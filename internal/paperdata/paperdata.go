// Package paperdata provides executable fixtures for every figure and
// worked example of Fan (PODS 2008): the customer instance D0 of Figure 1
// with its FDs f1, f2 and CFDs ϕ1–ϕ3 of Figure 2; the order/book/CD
// instance D1 of Figure 3 with the CINDs ϕ4–ϕ6 of Figure 4; the
// inconsistent CFD pair of Example 4.1; and the schemas, the MDs Σ1 and
// the keys rck1–rck3 of the Section 3 card/billing scenario. Tests,
// benchmarks and the example programs all build on these fixtures so that
// the reproduction asserts exactly the outcomes the paper states.
package paperdata

import (
	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/md"
	"repro/internal/relation"
	"repro/internal/similarity"
)

// CustomerSchema returns the Section 2.1 schema
// customer(CC:int, AC:int, phn:int, name, street, city, zip:string).
func CustomerSchema() *relation.Schema {
	return relation.MustSchema("customer",
		relation.Attr("CC", relation.KindInt),
		relation.Attr("AC", relation.KindInt),
		relation.Attr("phn", relation.KindInt),
		relation.Attr("name", relation.KindString),
		relation.Attr("street", relation.KindString),
		relation.Attr("city", relation.KindString),
		relation.Attr("zip", relation.KindString),
	)
}

// Figure1 returns the instance D0 of Figure 1: three customer tuples t1,
// t2, t3 (TIDs 0, 1, 2).
func Figure1() *relation.Instance {
	in := relation.NewInstance(CustomerSchema())
	in.MustInsert(relation.Int(44), relation.Int(131), relation.Int(1234567),
		relation.Str("Mike"), relation.Str("Mayfield"), relation.Str("NYC"), relation.Str("EH4 8LE"))
	in.MustInsert(relation.Int(44), relation.Int(131), relation.Int(3456789),
		relation.Str("Rick"), relation.Str("Crichton"), relation.Str("NYC"), relation.Str("EH4 8LE"))
	in.MustInsert(relation.Int(1), relation.Int(908), relation.Int(3456789),
		relation.Str("Joe"), relation.Str("Mtn Ave"), relation.Str("NYC"), relation.Str("07974"))
	return in
}

// F1 returns the FD f1: [CC, AC, phn] → [street, city, zip].
func F1(s *relation.Schema) *cfd.CFD {
	return cfd.MustFD(s, []string{"CC", "AC", "phn"}, []string{"street", "city", "zip"})
}

// F2 returns the FD f2: [CC, AC] → [city].
func F2(s *relation.Schema) *cfd.CFD {
	return cfd.MustFD(s, []string{"CC", "AC"}, []string{"city"})
}

// Phi1 returns ϕ1 of Figure 2: ([CC, zip] → [street], T1) with the single
// pattern row (44, _ ‖ _) — cfd1, "in the UK, zip determines street".
func Phi1(s *relation.Schema) *cfd.CFD {
	return cfd.MustNew(s, []string{"CC", "zip"}, []string{"street"},
		cfd.Row(
			[]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Any()},
			[]cfd.Cell{cfd.Any()},
		))
}

// Phi2 returns ϕ2 of Figure 2: ([CC, AC, phn] → [street, city, zip], T2)
// with rows (_, _, _ ‖ _, _, _) for f1, (44, 131, _ ‖ _, EDI, _) for cfd2
// and (01, 908, _ ‖ _, MH, _) for cfd3.
func Phi2(s *relation.Schema) *cfd.CFD {
	return cfd.MustNew(s, []string{"CC", "AC", "phn"}, []string{"street", "city", "zip"},
		cfd.Row(
			[]cfd.Cell{cfd.Any(), cfd.Any(), cfd.Any()},
			[]cfd.Cell{cfd.Any(), cfd.Any(), cfd.Any()},
		),
		cfd.Row(
			[]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Const(relation.Int(131)), cfd.Any()},
			[]cfd.Cell{cfd.Any(), cfd.Const(relation.Str("EDI")), cfd.Any()},
		),
		cfd.Row(
			[]cfd.Cell{cfd.Const(relation.Int(1)), cfd.Const(relation.Int(908)), cfd.Any()},
			[]cfd.Cell{cfd.Any(), cfd.Const(relation.Str("MH")), cfd.Any()},
		))
}

// Phi3 returns ϕ3 of Figure 2: ([CC, AC] → [city], T3) with the single
// all-wildcard row — the FD f2 written as a CFD.
func Phi3(s *relation.Schema) *cfd.CFD {
	return cfd.MustNew(s, []string{"CC", "AC"}, []string{"city"},
		cfd.Row([]cfd.Cell{cfd.Any(), cfd.Any()}, []cfd.Cell{cfd.Any()}))
}

// Example41 returns the inconsistent CFD pair of Example 4.1 over
// R(A:bool, B:string): ψ1 = ([A] → [B], {(true ‖ b1), (false ‖ b2)}) and
// ψ2 = ([B] → [A], {(b1 ‖ false), (b2 ‖ true)}). No nonempty instance
// satisfies both.
func Example41() (*relation.Schema, []*cfd.CFD) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindBool),
		relation.Attr("B", relation.KindString),
	)
	b1, b2 := relation.Str("b1"), relation.Str("b2")
	psi1 := cfd.MustNew(s, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Bool(true))}, []cfd.Cell{cfd.Const(b1)}),
		cfd.Row([]cfd.Cell{cfd.Const(relation.Bool(false))}, []cfd.Cell{cfd.Const(b2)}),
	)
	psi2 := cfd.MustNew(s, []string{"B"}, []string{"A"},
		cfd.Row([]cfd.Cell{cfd.Const(b1)}, []cfd.Cell{cfd.Const(relation.Bool(false))}),
		cfd.Row([]cfd.Cell{cfd.Const(b2)}, []cfd.Cell{cfd.Const(relation.Bool(true))}),
	)
	return s, []*cfd.CFD{psi1, psi2}
}

// OrderSchema returns the Section 2.2 source schema
// order(asin, title, type:string, price:real).
func OrderSchema() *relation.Schema {
	return relation.MustSchema("order",
		relation.Attr("asin", relation.KindString),
		relation.Attr("title", relation.KindString),
		relation.Attr("type", relation.KindString),
		relation.Attr("price", relation.KindFloat),
	)
}

// BookSchema returns the Section 2.2 target schema
// book(isbn, title:string, price:real, format:string).
func BookSchema() *relation.Schema {
	return relation.MustSchema("book",
		relation.Attr("isbn", relation.KindString),
		relation.Attr("title", relation.KindString),
		relation.Attr("price", relation.KindFloat),
		relation.Attr("format", relation.KindString),
	)
}

// CDSchema returns the Section 2.2 target schema
// CD(id, album:string, price:real, genre:string).
func CDSchema() *relation.Schema {
	return relation.MustSchema("CD",
		relation.Attr("id", relation.KindString),
		relation.Attr("album", relation.KindString),
		relation.Attr("price", relation.KindFloat),
		relation.Attr("genre", relation.KindString),
	)
}

// Figure3 returns the instance D1 of Figure 3 as a database with the
// order (t4, t5), book (t6, t7) and CD (t8, t9) relations.
func Figure3() *relation.Database {
	db := relation.NewDatabase()

	order := relation.NewInstance(OrderSchema())
	order.MustInsert(relation.Str("a23"), relation.Str("Snow White"), relation.Str("CD"), relation.Float(7.99))
	order.MustInsert(relation.Str("a12"), relation.Str("Harry Potter"), relation.Str("book"), relation.Float(17.99))
	db.Add(order)

	book := relation.NewInstance(BookSchema())
	book.MustInsert(relation.Str("b32"), relation.Str("Harry Potter"), relation.Float(17.99), relation.Str("hard-cover"))
	book.MustInsert(relation.Str("b65"), relation.Str("Snow White"), relation.Float(7.99), relation.Str("paper-cover"))
	db.Add(book)

	cdRel := relation.NewInstance(CDSchema())
	cdRel.MustInsert(relation.Str("c12"), relation.Str("J. Denver"), relation.Float(7.94), relation.Str("country"))
	cdRel.MustInsert(relation.Str("c58"), relation.Str("Snow White"), relation.Float(7.99), relation.Str("a-book"))
	db.Add(cdRel)

	return db
}

// Phi4 returns ϕ4 (cind1) of Figure 4: order[title, price; type] ⊆ book[title, price; nil], (book ‖ ).
func Phi4() *cind.CIND {
	return cind.MustNew(OrderSchema(), BookSchema(),
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
}

// Phi5 returns ϕ5 (cind2) of Figure 4: order[title, price; type] ⊆ CD[album, price; nil], (CD ‖ ).
func Phi5() *cind.CIND {
	return cind.MustNew(OrderSchema(), CDSchema(),
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("CD")}})
}

// Phi6 returns ϕ6 (cind3) of Figure 4, which Figure 3's t9 violates:
// CD[album, price; genre] ⊆ book[title, price; format], (a-book ‖ audio).
func Phi6() *cind.CIND {
	return cind.MustNew(CDSchema(), BookSchema(),
		[]string{"album", "price"}, []string{"title", "price"},
		[]string{"genre"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("a-book")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
}

// CardSchema returns the Section 3.1 source schema
// card(c#, SSN, FN, LN, addr, tel, email, type).
func CardSchema() *relation.Schema {
	return relation.MustSchema("card",
		relation.Attr("cno", relation.KindString),
		relation.Attr("SSN", relation.KindString),
		relation.Attr("FN", relation.KindString),
		relation.Attr("LN", relation.KindString),
		relation.Attr("addr", relation.KindString),
		relation.Attr("tel", relation.KindString),
		relation.Attr("email", relation.KindString),
		relation.Attr("type", relation.KindString),
	)
}

// BillingSchema returns the Section 3.1 source schema
// billing(c#, FN, SN, post, phn, email, item, price).
func BillingSchema() *relation.Schema {
	return relation.MustSchema("billing",
		relation.Attr("cno", relation.KindString),
		relation.Attr("FN", relation.KindString),
		relation.Attr("SN", relation.KindString),
		relation.Attr("post", relation.KindString),
		relation.Attr("phn", relation.KindString),
		relation.Attr("email", relation.KindString),
		relation.Attr("item", relation.KindString),
		relation.Attr("price", relation.KindFloat),
	)
}

// Yc returns the card-side identity attribute list of Section 3.1:
// [FN, LN, addr, tel, email].
func Yc() []string { return []string{"FN", "LN", "addr", "tel", "email"} }

// Yb returns the billing-side identity attribute list of Section 3.1:
// [FN, SN, post, phn, email].
func Yb() []string { return []string{"FN", "SN", "post", "phn", "email"} }

// Sigma1 returns Σ1, the matching dependencies φ1–φ4 of Example 3.1 from
// card to billing; φ4 compares FN by ≈d, the 0.8 edit-distance similarity.
func Sigma1() []*md.MD {
	card, billing := CardSchema(), BillingSchema()
	eq, m, ed := similarity.Eq(), similarity.MatchOp(), similarity.EditOp(0.8)
	return []*md.MD{
		md.MustNew(card, billing, []md.PremiseSpec{{Left: "tel", Right: "phn", Op: eq}},
			[]string{"addr"}, []string{"post"}, m),
		md.MustNew(card, billing, []md.PremiseSpec{{Left: "email", Right: "email", Op: m}},
			[]string{"FN", "LN"}, []string{"FN", "SN"}, m),
		md.MustNew(card, billing, []md.PremiseSpec{
			{Left: "LN", Right: "SN", Op: m}, {Left: "addr", Right: "post", Op: m}, {Left: "FN", Right: "FN", Op: m}},
			Yc(), Yb(), m),
		md.MustNew(card, billing, []md.PremiseSpec{
			{Left: "LN", Right: "SN", Op: m}, {Left: "addr", Right: "post", Op: m}, {Left: "FN", Right: "FN", Op: ed}},
			Yc(), Yb(), m),
	}
}

// RCKs returns the relative candidate keys rck1–rck3 of Example 3.2 for
// (Yc, Yb), each of which Σ1 implies (Example 4.3).
func RCKs() []*md.MD {
	card, billing := CardSchema(), BillingSchema()
	eq, ed := similarity.Eq(), similarity.EditOp(0.8)
	return []*md.MD{
		md.MustRelativeKey(card, billing,
			[]string{"email", "addr"}, []string{"email", "post"},
			[]similarity.Op{eq, eq}, Yc(), Yb()),
		md.MustRelativeKey(card, billing,
			[]string{"LN", "tel", "FN"}, []string{"SN", "phn", "FN"},
			[]similarity.Op{eq, eq, ed}, Yc(), Yb()),
		md.MustRelativeKey(card, billing,
			[]string{"LN", "addr", "FN"}, []string{"SN", "post", "FN"},
			[]similarity.Op{eq, eq, ed}, Yc(), Yb()),
	}
}

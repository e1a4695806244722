package repro_test

// Benchmarks regenerating the scaling behaviour behind every table and
// figure of Fan (PODS 2008). Each benchmark name carries the experiment
// id of the DESIGN.md index. Absolute numbers are machine-dependent; the
// shapes — polynomial vs exponential growth, the effect of indexes,
// blocking and covers — are what reproduce the paper (run with
// `go test -bench=. -benchmem`).

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/discovery"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/propagate"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/repr"
	"repro/internal/similarity"
)

// --- E1/E2: Figure 1/2 detection at scale --------------------------------

func BenchmarkFig1FDDetection(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := gen.Customers(gen.CustomerConfig{N: n, Seed: 1, ErrorRate: 0.05})
			s := in.Schema()
			sigma := []*cfd.CFD{paperdata.F1(s), paperdata.F2(s)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range sigma {
					cfd.Detect(in, c)
				}
			}
		})
	}
}

func BenchmarkFig2CFDDetection(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := gen.Customers(gen.CustomerConfig{N: n, Seed: 1, ErrorRate: 0.05})
			s := in.Schema()
			sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s), paperdata.Phi3(s)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfd.DetectAll(in, sigma)
			}
		})
	}
}

// Ablation: hash-index grouping vs naive quadratic pair scanning for CFD
// pair violations (the design choice DESIGN.md calls out).
func BenchmarkAblationDetectNaivePairs(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 2000, Seed: 1, ErrorRate: 0.05})
	s := in.Schema()
	phi := paperdata.Phi1(s)
	row := phi.Tableau()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples := in.Tuples()
		count := 0
		for x := 0; x < len(tuples); x++ {
			for y := x + 1; y < len(tuples); y++ {
				t1, t2 := tuples[x], tuples[y]
				match := true
				for j, p := range phi.LHS() {
					if !row.LHS[j].Matches(t1[p]) || !t1[p].Equal(t2[p]) {
						match = false
						break
					}
				}
				if match && !t1[phi.RHS()[0]].Equal(t2[phi.RHS()[0]]) {
					count++
				}
			}
		}
		_ = count
	}
}

func BenchmarkAblationDetectIndexed(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 2000, Seed: 1, ErrorRate: 0.05})
	phi := paperdata.Phi1(in.Schema())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfd.Detect(in, phi)
	}
}

// --- E4: Figure 4 CIND detection at scale --------------------------------

func BenchmarkFig4CINDDetection(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			db := gen.Orders(gen.OrdersConfig{Books: n / 4, CDs: n / 4, Orders: n, Seed: 1, ViolationRate: 0.05})
			sigma := []*cind.CIND{paperdata.Phi4()}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cind.DetectAll(db, sigma)
			}
		})
	}
}

// --- E5/E9: Table 1 consistency rows --------------------------------------

// benchBoolCFDs builds n CFDs over a bool attribute (NP-hard regime).
func benchBoolCFDs(n int) []*cfd.CFD {
	s := relation.MustSchema("r",
		relation.FiniteAttr("A", relation.BoolDom()),
		relation.FiniteAttr("B", relation.BoolDom()),
		relation.Attr("C", relation.KindString),
	)
	var out []*cfd.CFD
	for i := 0; i < n; i++ {
		av := relation.Bool(i%2 == 0)
		bv := relation.Bool((i/2)%2 == 0)
		out = append(out, cfd.MustNew(s, []string{"A"}, []string{"B"},
			cfd.Row([]cfd.Cell{cfd.Const(av)}, []cfd.Cell{cfd.Const(bv)})))
	}
	return out
}

// benchFreeCFDs builds n constant-free-domain CFDs (quadratic regime).
func benchFreeCFDs(n int) []*cfd.CFD {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	var out []*cfd.CFD
	for i := 0; i < n; i++ {
		out = append(out, cfd.MustNew(s, []string{"A"}, []string{"B"},
			cfd.Row([]cfd.Cell{cfd.Const(relation.Str(fmt.Sprintf("a%d", i)))},
				[]cfd.Cell{cfd.Const(relation.Str(fmt.Sprintf("b%d", i%3)))})))
	}
	return out
}

func BenchmarkTable1ConsistencyCFDExact(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("deps=%d", n), func(b *testing.B) {
			set := benchBoolCFDs(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfd.ConsistentExact(set)
			}
		})
	}
}

func BenchmarkTable1ConsistencyCFDFast(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("deps=%d", n), func(b *testing.B) {
			set := benchFreeCFDs(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfd.ConsistentFast(set)
			}
		})
	}
}

func BenchmarkTable1ConsistencyCIND(b *testing.B) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	var set []*cind.CIND
	for i := 0; i < 8; i++ {
		set = append(set, cind.MustNew(order, book,
			[]string{"title", "price"}, []string{"title", "price"},
			[]string{"type"}, nil,
			cind.PatternRow{XpVals: []relation.Value{relation.Str(fmt.Sprintf("kind%d", i))}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cind.BuildWitness(set, "", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ConsistencyECFD(b *testing.B) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	var set []*ecfd.ECFD
	for i := 0; i < 8; i++ {
		set = append(set, ecfd.MustNew(s, []string{"A"}, []string{"B"},
			ecfd.Row{
				LHS: []ecfd.Cell{ecfd.In(relation.Str(fmt.Sprintf("a%d", i)), relation.Str(fmt.Sprintf("a%d", i+1)))},
				RHS: []ecfd.Cell{ecfd.NotIn(relation.Str(fmt.Sprintf("b%d", i)))},
			}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecfd.Consistent(set)
	}
}

// --- E7/E8/E9: Table 1 implication rows -----------------------------------

func BenchmarkTable1ImplicationCFDExact(b *testing.B) {
	set := benchBoolCFDs(8)
	target := set[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfd.ImpliesExact(set[1:], target)
	}
}

func BenchmarkTable1ImplicationCFDFast(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("deps=%d", n), func(b *testing.B) {
			set := benchFreeCFDs(n)
			target := set[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfd.Implies(set[1:], target)
			}
		})
	}
}

func BenchmarkTable1ImplicationCIND(b *testing.B) {
	order := paperdata.OrderSchema()
	cdS := paperdata.CDSchema()
	book := paperdata.BookSchema()
	strongPhi5 := cind.MustNew(order, cdS,
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, []string{"genre"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("a-book")},
		})
	phi6 := paperdata.Phi6()
	target := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	set := []*cind.CIND{strongPhi5, phi6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cind.Implies(set, target) != cind.Yes {
			b.Fatal("implication regressed")
		}
	}
}

// --- E11: bounded interaction ---------------------------------------------

func BenchmarkTable1InteractionBounded(b *testing.B) {
	s := paperdata.CustomerSchema()
	custCFDs := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	dir := relation.MustSchema("directory",
		relation.Attr("city", relation.KindString),
		relation.Attr("country", relation.KindString))
	toDir := cind.MustNew(s, dir, []string{"city"}, []string{"city"},
		nil, []string{"country"},
		cind.PatternRow{YpVals: []relation.Value{relation.Str("UK")}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cind.InteractionConsistent(custCFDs, []*cind.CIND{toDir}, 0)
	}
}

// --- E13: propagation ------------------------------------------------------

func BenchmarkPropagationSPC(b *testing.B) {
	mk := func(name string) *relation.Schema {
		return relation.MustSchema(name,
			relation.Attr("zip", relation.KindString),
			relation.Attr("street", relation.KindString),
			relation.Attr("AC", relation.KindInt),
			relation.Attr("city", relation.KindString),
		)
	}
	schemas := map[string]*relation.Schema{"R1": mk("R1"), "R2": mk("R2"), "R3": mk("R3")}
	sigma := []*cfd.CFD{
		cfd.MustFD(schemas["R1"], []string{"zip"}, []string{"street"}),
		cfd.MustFD(schemas["R1"], []string{"AC"}, []string{"city"}),
		cfd.MustFD(schemas["R2"], []string{"AC"}, []string{"city"}),
		cfd.MustFD(schemas["R3"], []string{"AC"}, []string{"city"}),
	}
	branch := func(rel string, cc int64) propagate.Branch {
		return propagate.Branch{
			Atoms: []algebra.Atom{{Rel: rel, Terms: []algebra.Term{
				algebra.V("z"), algebra.V("s"), algebra.V("a"), algebra.V("c")}}},
			Head: []algebra.Term{
				algebra.C(relation.Int(cc)), algebra.V("z"), algebra.V("s"), algebra.V("a"), algebra.V("c")},
		}
	}
	view := propagate.View{
		Name:     "R",
		Cols:     []string{"CC", "zip", "street", "AC", "city"},
		Branches: []propagate.Branch{branch("R1", 44), branch("R2", 1), branch("R3", 31)},
	}
	vs, err := view.Schema(schemas)
	if err != nil {
		b.Fatal(err)
	}
	phi7 := cfd.MustNew(vs, []string{"CC", "zip"}, []string{"street"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Any()}, []cfd.Cell{cfd.Any()}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := propagate.Propagates(schemas, sigma, view, phi7)
		if err != nil || !ok {
			b.Fatal("propagation regressed")
		}
	}
}

// --- E14/E15: MD implication, RCK derivation, matching ---------------------

func BenchmarkMDImplication(b *testing.B) {
	sigma := paperdata.Sigma1()
	rck2 := paperdata.RCKs()[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !md.Implies(sigma, rck2) {
			b.Fatal("implication regressed")
		}
	}
}

func BenchmarkRCKDerivation(b *testing.B) {
	sigma := paperdata.Sigma1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := md.DeriveRCKs(sigma, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectIdentification(b *testing.B) {
	sigma := paperdata.Sigma1()
	derived, err := md.DeriveRCKs(sigma, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	card, billing, _ := gen.CardBilling(gen.CardBillingConfig{
		NPersons: 300, Seed: 7, AbbrevRate: 0.15, TypoRate: 0.1, AddrDivergeRate: 0.3,
	})
	for _, block := range []bool{false, true} {
		b.Run(fmt.Sprintf("blocking=%v", block), func(b *testing.B) {
			matcher := &match.Matcher{
				Left: card, Right: billing, Rules: derived,
				TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
			}
			if block {
				blocker, err := match.SoundexBlocker(card.Schema(), billing.Schema(), "LN", "SN")
				if err != nil {
					b.Fatal(err)
				}
				matcher.Blocker = blocker
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matcher.Pairs(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E16/E17: repairs -------------------------------------------------------

func BenchmarkRepairEnumeration(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := gen.Example51(n)
			db := relation.NewDatabase()
			db.Add(in)
			dcs, _ := denial.Key(in.Schema(), []string{"A"})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := repair.BuildHypergraph(db, dcs)
				if err != nil {
					b.Fatal(err)
				}
				if got := h.CountXRepairs(0); got != 1<<n {
					b.Fatalf("repairs = %d", got)
				}
			}
		})
	}
}

func BenchmarkHeuristicRepair(b *testing.B) {
	s := paperdata.CustomerSchema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty := gen.Customers(gen.CustomerConfig{N: n, Seed: int64(i), ErrorRate: 0.05})
				b.StartTimer()
				if _, err := repair.RepairCFDs(dirty, sigma, repair.URepairOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E18/E19: CQA and the nucleus ------------------------------------------

func BenchmarkCQAEnumeration(b *testing.B) {
	in := gen.Example51(8)
	db := relation.NewDatabase()
	db.Add(in)
	dcs, _ := denial.Key(in.Schema(), []string{"A"})
	q := algebra.CQ{
		Head:  []algebra.Term{algebra.V("a")},
		Atoms: []algebra.Atom{{Rel: "r", Terms: []algebra.Term{algebra.V("a"), algebra.V("b")}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cqa.CertainAnswers(db, dcs, q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCQARewriting(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 5000, Seed: 3, ErrorRate: 0.05})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cqa.CertainByKeyRewriting(in, []string{"CC", "AC", "phn"}, nil, []string{"city"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNucleusVsEnumeration(b *testing.B) {
	in := gen.Example51(10)
	key := cfd.MustFD(in.Schema(), []string{"A"}, []string{"B"})
	b.Run("nucleus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repr.Nucleus(in, []*cfd.CFD{key}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerate-repairs", func(b *testing.B) {
		db := relation.NewDatabase()
		db.Add(in)
		dcs, _ := denial.Key(in.Schema(), []string{"A"})
		for i := 0; i < b.N; i++ {
			h, err := repair.BuildHypergraph(db, dcs)
			if err != nil {
				b.Fatal(err)
			}
			h.EnumerateXRepairs(0)
		}
	})
}

// --- E20: discovery ----------------------------------------------------------

func BenchmarkDiscovery(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 1000, Seed: 5, ErrorRate: 0})
	b.Run("fds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.DiscoverFDs(in, discovery.Options{MaxLHS: 2})
		}
	})
	b.Run("constant-cfds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			discovery.DiscoverConstantCFDs(in, discovery.Options{MaxLHS: 2, MinSupport: 10})
		}
	})
}

// Ablation: full re-detection vs incremental detection after one update.
func BenchmarkAblationDetectFullAfterUpdate(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 5000, Seed: 9, ErrorRate: 0})
	phi := paperdata.Phi1(in.Schema())
	street := in.Schema().MustLookup("street")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Update(0, street, relation.Str(fmt.Sprintf("Changed %d", i)))
		cfd.Detect(in, phi)
	}
}

func BenchmarkAblationDetectIncrementalAfterUpdate(b *testing.B) {
	in := gen.Customers(gen.CustomerConfig{N: 5000, Seed: 9, ErrorRate: 0})
	phi := paperdata.Phi1(in.Schema())
	street := in.Schema().MustLookup("street")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Update(0, street, relation.Str(fmt.Sprintf("Changed %d", i)))
		cfd.DetectTouched(in, phi, []relation.TID{0})
	}
}

// WSD (Section 5.3 world-set decompositions) vs explicit enumeration.
func BenchmarkWSDConstruction(b *testing.B) {
	in := gen.Example51(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repr.WSDFromKeyRepairs(in, []string{"A"}); err != nil {
			b.Fatal(err)
		}
	}
}

// E21: master-data repair (the Section 5.1 Remark).
func BenchmarkMasterRepair(b *testing.B) {
	s := paperdata.CustomerSchema()
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	key := md.MustRelativeKey(s, s,
		[]string{"phn"}, []string{"phn"},
		[]similarity.Op{similarity.Eq()},
		[]string{"street", "city", "zip"}, []string{"street", "city", "zip"})
	master := gen.Customers(gen.CustomerConfig{N: 1000, Seed: 55, ErrorRate: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirty := gen.Customers(gen.CustomerConfig{N: 1000, Seed: 55, ErrorRate: 0})
		city := s.MustLookup("city")
		for j, id := range dirty.IDs() {
			if j%25 == 0 {
				dirty.Update(id, city, relation.Str("Wrong"))
			}
		}
		b.StartTimer()
		if _, err := repair.RepairWithMaster(dirty, sigma, master, []*md.MD{key}, repair.URepairOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

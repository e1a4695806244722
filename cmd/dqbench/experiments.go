package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/detect"
	"repro/internal/discovery"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/gen/drift"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/propagate"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/repr"
	"repro/internal/serve"
	"repro/internal/similarity"
)

// The experiment registry mirrors the DESIGN.md index.
var experiments = []experiment{
	{
		id:    "E1",
		title: "Figure 1: D0 satisfies the traditional FDs f1, f2",
		claim: "D0 ⊨ f1, f2 — no errors found with FDs alone",
		run: func(bool) (string, bool) {
			d0 := paperdata.Figure1()
			s := d0.Schema()
			ok1 := cfd.Satisfies(d0, paperdata.F1(s))
			ok2 := cfd.Satisfies(d0, paperdata.F2(s))
			return fmt.Sprintf("D0 ⊨ f1: %v, D0 ⊨ f2: %v", ok1, ok2), ok1 && ok2
		},
	},
	{
		id:    "E2",
		title: "Figure 2: CFDs expose errors in every tuple of D0",
		claim: "D0 ⊭ ϕ1 (t1,t2 clash on street), D0 ⊭ ϕ2 (city ≠ EDI/MH), D0 ⊨ ϕ3",
		run: func(bool) (string, bool) {
			d0 := paperdata.Figure1()
			s := d0.Schema()
			v1 := cfd.Detect(d0, paperdata.Phi1(s))
			v2 := cfd.Detect(d0, paperdata.Phi2(s))
			ok3 := cfd.Satisfies(d0, paperdata.Phi3(s))
			dirty := cfd.ViolatingTIDs(append(append([]cfd.Violation(nil), v1...), v2...))
			pass := len(v1) == 1 && len(v2) >= 3 && ok3 && len(dirty) == 3
			return fmt.Sprintf("ϕ1: %d violation(s), ϕ2: %d, ϕ3 holds: %v, dirty tuples: %d/3",
				len(v1), len(v2), ok3, len(dirty)), pass
		},
	},
	{
		id:    "E3",
		title: "Figure 3: the order/book/CD instance D1",
		claim: "D1 as printed (2 orders, 2 books, 2 CDs)",
		run: func(bool) (string, bool) {
			db := paperdata.Figure3()
			o := db.MustInstance("order").Len()
			b := db.MustInstance("book").Len()
			c := db.MustInstance("CD").Len()
			return fmt.Sprintf("order: %d, book: %d, CD: %d tuples", o, b, c), o == 2 && b == 2 && c == 2
		},
	},
	{
		id:    "E4",
		title: "Figure 4: D1 ⊨ ϕ4, ϕ5 but D1 ⊭ ϕ6 (tuple t9)",
		claim: "t9 (a-book Snow White) has no audio-format book match",
		run: func(bool) (string, bool) {
			db := paperdata.Figure3()
			phi4, phi5, phi6 := figure4CINDs()
			ok4 := cind.Satisfies(db, phi4)
			ok5 := cind.Satisfies(db, phi5)
			vs := cind.Detect(db, phi6)
			pass := ok4 && ok5 && len(vs) == 1 && vs[0].TID == 1
			return fmt.Sprintf("ϕ4: %v, ϕ5: %v, ϕ6 violations: %v", ok4, ok5, vs), pass
		},
	},
	{
		id:    "E5",
		title: "Table 1: CFD consistency is NP-complete (Ex. 4.1)",
		claim: "finite domains make consistency nontrivial; Example 4.1 is inconsistent",
		run: func(quick bool) (string, bool) {
			_, bad := paperdata.Example41()
			ok41, _ := cfd.Consistent(bad)
			// Scaling probe: random bool-domain CFD families.
			n := 14
			if quick {
				n = 8
			}
			t0 := time.Now()
			consistent := 0
			for seed := 0; seed < n; seed++ {
				set := randomBoolCFDs(seed, 6)
				if ok, _ := cfd.ConsistentExact(set); ok {
					consistent++
				}
			}
			el := time.Since(t0)
			return fmt.Sprintf("Example 4.1 consistent: %v (want false); %d/%d random bool families consistent, exact search %v",
				ok41, consistent, n, el.Round(time.Millisecond)), !ok41
		},
	},
	{
		id:    "E6",
		title: "Table 1: CIND consistency is O(1) — always satisfiable",
		claim: "every CIND set has a nonempty witness",
		run: func(bool) (string, bool) {
			phi4, phi5, phi6 := figure4CINDs()
			sets := [][]*cind.CIND{{phi4}, {phi4, phi5, phi6}}
			for _, set := range sets {
				db, err := cind.BuildWitness(set, "", 0)
				if err != nil || !cind.SatisfiesAll(db, set) {
					return fmt.Sprintf("witness construction failed: %v", err), false
				}
			}
			return "witnesses built and verified for all probe sets", true
		},
	},
	{
		id:    "E7",
		title: "Table 1: CFD implication is coNP-complete",
		claim: "finite-domain case analysis yields consequences the infinite case lacks",
		run: func(bool) (string, bool) {
			boolImplied, strImplied := finiteCaseAnalysisProbe()
			return fmt.Sprintf("bool-domain case analysis implied: %v (want true); string-domain: %v (want false)",
				boolImplied, strImplied), boolImplied && !strImplied
		},
	},
	{
		id:    "E8",
		title: "Table 1: CIND implication via the chase (EXPTIME)",
		claim: "definite on acyclic families; Unknown past the bound on cyclic ones",
		run: func(bool) (string, bool) {
			yes, no, cyc := cindImplicationProbe()
			pass := yes == cind.Yes && no == cind.No && (cyc == cind.Unknown || cyc == cind.No)
			return fmt.Sprintf("transitive composition: %v, non-consequence: %v, cyclic probe: %v", yes, no, cyc), pass
		},
	},
	{
		id:    "E9",
		title: "Table 1: no finite domains ⇒ quadratic algorithms",
		claim: "consistency and implication drop to O(n²) (Theorem 4.3)",
		run: func(quick bool) (string, bool) {
			trials := 300
			if quick {
				trials = 60
			}
			agreeC, agreeI := fastVsExactProbe(trials)
			return fmt.Sprintf("fixpoint vs exact consistency agreement: %d/%d; chase vs exact implication: %d/%d",
				agreeC, trials, agreeI, trials), agreeC == trials && agreeI == trials
		},
	},
	{
		id:    "E10",
		title: "Table 1: eCFDs keep NP/coNP (Section 2.3 NY example)",
		claim: "disjunction and inequality cost nothing extra; ecfd1/ecfd2 behave as narrated",
		run: func(bool) (string, bool) {
			okClean, violAlbany, viol555 := nyECFDProbe()
			return fmt.Sprintf("clean NY data consistent with ecfd1+ecfd2: %v; second Albany AC flagged: %v; NYC AC 555 flagged: %v",
				okClean, violAlbany, viol555), okClean && violAlbany && viol555
		},
	},
	{
		id:    "E11",
		title: "Table 1: CFDs+CINDs together are undecidable",
		claim: "bounded semi-decision: Yes/No definite, Unknown past the bound",
		run: func(bool) (string, bool) {
			d0s := paperdata.CustomerSchema()
			custCFDs := []*cfd.CFD{paperdata.Phi1(d0s), paperdata.Phi2(d0s)}
			dir := relation.MustSchema("directory",
				relation.Attr("city", relation.KindString),
				relation.Attr("country", relation.KindString))
			toDir := cind.MustNew(d0s, dir, []string{"city"}, []string{"city"},
				nil, []string{"country"},
				cind.PatternRow{YpVals: []relation.Value{relation.Str("UK")}})
			resOK, _ := cind.InteractionConsistent(custCFDs, []*cind.CIND{toDir}, 0)
			_, bad := paperdata.Example41()
			resBad, _ := cind.InteractionConsistent(bad, []*cind.CIND{toDir}, 0)
			return fmt.Sprintf("compatible combination: %v (want yes); inconsistent CFDs: %v (want no)",
				resOK, resBad), resOK == cind.Yes && resBad == cind.No
		},
	},
	{
		id:    "E12",
		title: "Table 1: finite axiomatizability (sound inference systems)",
		claim: "CFD and CIND rules derive only semantic consequences (Theorem 4.6a)",
		run: func(bool) (string, bool) {
			nCFD, okCFD := cfdAxiomsSound()
			okCIND := cindAxiomsSound()
			return fmt.Sprintf("CFD closure: %d derivations, all implied: %v; CIND Permute/Transit sound: %v",
				nCFD, okCFD, okCIND), okCFD && okCIND
		},
	},
	{
		id:    "E13",
		title: "Example 4.2 / Theorem 4.7: propagation to union views",
		claim: "f3, AC→city do NOT propagate; ϕ7, ϕ8 DO",
		run: func(bool) (string, bool) {
			notF3, notAC, yes7, yes8 := example42Probe()
			pass := !notF3 && !notAC && yes7 && yes8
			return fmt.Sprintf("f3 propagates: %v (want false); AC→city: %v (want false); ϕ7: %v; ϕ8: %v",
				notF3, notAC, yes7, yes8), pass
		},
	},
	{
		id:    "E14",
		title: "Example 4.3 / Theorem 4.8: MD implication in PTIME",
		claim: "Σ1 ⊨m rck1, rck2, rck3",
		run: func(bool) (string, bool) {
			_, _, sigma := sigma1MDs()
			keys := paperRCKs()
			all := true
			for _, k := range keys {
				if !md.Implies(sigma, k) {
					all = false
				}
			}
			return fmt.Sprintf("all three RCKs implied: %v", all), all
		},
	},
	{
		id:    "E15",
		title: "Section 3: derived RCKs improve match quality",
		claim: "true matches missed by given rules are found by derived comparison vectors",
		run: func(quick bool) (string, bool) {
			n := 300
			if quick {
				n = 100
			}
			qGiven, qDerived := matchQualityProbe(n)
			pass := qDerived.Recall > qGiven.Recall && qDerived.Precision >= 0.99
			return fmt.Sprintf("given rules:   %v\nwith derived:  %v", qGiven, qDerived), pass
		},
	},
	{
		id:    "E16",
		title: "Example 5.1: Dn has exactly 2^n repairs",
		claim: "2n tuples, single key A→B ⇒ 2^n X-repairs",
		run: func(quick bool) (string, bool) {
			ns := []int{2, 4, 8, 10}
			if quick {
				ns = []int{2, 4, 6}
			}
			out := ""
			pass := true
			for _, n := range ns {
				in := gen.Example51(n)
				db := relation.NewDatabase()
				db.Add(in)
				dcs, _ := denial.Key(in.Schema(), []string{"A"})
				h, _ := repair.BuildHypergraph(db, dcs)
				got := h.CountXRepairs(0)
				if got != 1<<n {
					pass = false
				}
				out += fmt.Sprintf("n=%d: %d repairs (want %d); ", n, got, 1<<n)
			}
			return out, pass
		},
	},
	{
		id:    "E17",
		title: "Section 5.1: cost-based heuristic repair cleans dirty data",
		claim: "repair terminates with a Σ-satisfying instance at 1%–5% error rates",
		run: func(quick bool) (string, bool) {
			n := 800
			if quick {
				n = 200
			}
			s := paperdata.CustomerSchema()
			sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
			out := ""
			pass := true
			for _, rate := range []float64{0.01, 0.05} {
				dirty := gen.Customers(gen.CustomerConfig{N: n, Seed: 77, ErrorRate: rate})
				before := len(cfd.DetectAll(dirty, sigma))
				rep, err := repair.RepairCFDs(dirty, sigma, repair.URepairOptions{})
				clean := err == nil && cfd.SatisfiesAll(dirty, sigma)
				if !clean {
					pass = false
				}
				out += fmt.Sprintf("rate %.0f%%: %d violations → clean=%v, %d changes, cost %.1f; ",
					rate*100, before, clean, len(rep.Changes), rep.Cost)
			}
			return out, pass
		},
	},
	{
		id:    "E18",
		title: "Section 5.2: certain answers, rewriting vs enumeration",
		claim: "the PTIME key rewriting equals exhaustive repair enumeration",
		run: func(bool) (string, bool) {
			agree, total := cqaProbe()
			return fmt.Sprintf("rewriting agrees with enumeration on %d/%d probe queries", agree, total), agree == total
		},
	},
	{
		id:    "E19",
		title: "Section 5.3: nucleus vs materialized repairs",
		claim: "condensed representation is linear while repairs are exponential; same certain answers",
		run: func(bool) (string, bool) {
			rows, vars, repairs, sameAnswers := nucleusProbe(10)
			pass := rows == 20 && vars == 10 && repairs == 1024 && sameAnswers
			return fmt.Sprintf("n=10: nucleus %d rows / %d vars vs %d repairs; certain answers agree: %v",
				rows, vars, repairs, sameAnswers), pass
		},
	},
	{
		id:    "E21",
		title: "Section 5.1 Remark: master-data repair via relative keys",
		claim: "repairing against reference data restores truth where consensus entrenches majority errors",
		run: func(bool) (string, bool) {
			consRestored, masterRestored, corrupted, ok := masterRepairProbe()
			pass := ok && masterRestored == corrupted && consRestored < masterRestored
			return fmt.Sprintf("corrupted cells: %d; consensus restored: %d; master-guided restored: %d",
				corrupted, consRestored, masterRestored), pass
		},
	},
	{
		id:    "E20",
		title: "Section 1: profiling discovers the cleaning rules",
		claim: "FDs and constant CFDs are re-discovered from clean data and catch injected errors",
		run: func(quick bool) (string, bool) {
			n := 300
			if quick {
				n = 120
			}
			rules, caught := discoveryProbe(n)
			return fmt.Sprintf("mined %d constant-CFD groups; violations caught in dirty data: %d", rules, caught),
				rules > 0 && caught > 0
		},
	},
	{
		id:    "E23",
		title: "Incremental monitoring: DBMonitor.Apply vs invalidate-and-rebuild",
		claim: "update batches cost the touched groups, not a full re-freeze; diffs stay exact",
		run: func(quick bool) (string, bool) {
			n := 20000
			if quick {
				n = 4000
			}
			monT, rebuildT, exact := monitorIncrProbe(n, 20, 10)
			ratio := float64(rebuildT) / float64(monT)
			return fmt.Sprintf("n=%d, 20 batches of 10 updates: monitor %v, rebuild+retouch %v (%.0fx); exact vs DetectAll: %v",
				n, monT.Round(time.Microsecond), rebuildT.Round(time.Microsecond), ratio, exact), exact && ratio > 3
		},
	},
	{
		id:    "E24",
		title: "Mixed-class detection: CFDs+CINDs+eCFDs on one engine",
		claim: "one DBSnapshot serves every class; CIND detection sheds its per-rule index builds and string probes",
		run: func(quick bool) (string, bool) {
			n := 20000
			if quick {
				n = 4000
			}
			engineT, legacyT, identical := mixedDetectProbe(n)
			ratio := float64(legacyT) / float64(engineT)
			// Identity gates; the ratio is reported, not asserted — this
			// row runs in CI, and a one-shot wall-clock ratio on a shared
			// runner is noise, not signal (BenchmarkDetectMixed carries
			// the measured speedup tables).
			return fmt.Sprintf("n=%d orders: mixed engine batch %v, per-class legacy detectors %v (%.1fx); per-class streams byte-identical: %v",
				n, engineT.Round(time.Microsecond), legacyT.Round(time.Microsecond), ratio, identical), identical
		},
	},
	{
		id:    "E30",
		title: "Observability: change-point detection on a drifting violation rate",
		claim: "an 8× violation-rate step is flagged within 5 commits with ≥0.95 confidence; a stationary control stream fires nothing",
		run: func(bool) (string, bool) {
			latency, conf, ctrlCPs, err := driftDetectProbe()
			if err != nil {
				return err.Error(), false
			}
			// Overhead is benchmarked, not gated here (E24 precedent:
			// one-shot wall clock on a shared runner is noise) —
			// BenchmarkMetricsOverhead carries the ops/sec table.
			pass := latency >= 0 && latency <= 5 && conf >= 0.95 && ctrlCPs == 0
			return fmt.Sprintf("8× step at commit 21: detected %d commit(s) later (confidence %.3f); control change points: %d",
				latency, conf, ctrlCPs), pass
		},
	},
}

// --- probe helpers -------------------------------------------------------

func figure4CINDs() (phi4, phi5, phi6 *cind.CIND) {
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()
	cdS := paperdata.CDSchema()
	phi4 = cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	phi5 = cind.MustNew(order, cdS,
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("CD")}})
	phi6 = cind.MustNew(cdS, book,
		[]string{"album", "price"}, []string{"title", "price"},
		[]string{"genre"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("a-book")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	return
}

// randomBoolCFDs builds deterministic pseudo-random CFD families over a
// bool attribute (the NP-hard regime).
func randomBoolCFDs(seed, n int) []*cfd.CFD {
	s := relation.MustSchema("r",
		relation.FiniteAttr("A", relation.BoolDom()),
		relation.Attr("B", relation.KindString),
	)
	vals := []relation.Value{relation.Str("x"), relation.Str("y")}
	var out []*cfd.CFD
	state := seed*2654435761 + 12345
	next := func(m int) int {
		state = state*1103515245 + 12345
		if state < 0 {
			state = -state
		}
		return state % m
	}
	for i := 0; i < n; i++ {
		if next(2) == 0 {
			out = append(out, cfd.MustNew(s, []string{"A"}, []string{"B"},
				cfd.Row([]cfd.Cell{cfd.Const(relation.Bool(next(2) == 0))},
					[]cfd.Cell{cfd.Const(vals[next(2)])})))
		} else {
			out = append(out, cfd.MustNew(s, []string{"B"}, []string{"A"},
				cfd.Row([]cfd.Cell{cfd.Const(vals[next(2)])},
					[]cfd.Cell{cfd.Const(relation.Bool(next(2) == 0))})))
		}
	}
	return out
}

func finiteCaseAnalysisProbe() (boolImplied, strImplied bool) {
	bs := relation.MustSchema("r",
		relation.FiniteAttr("A", relation.BoolDom()),
		relation.Attr("B", relation.KindString))
	z := relation.Str("z")
	bt := cfd.MustNew(bs, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Bool(true))}, []cfd.Cell{cfd.Const(z)}))
	bf := cfd.MustNew(bs, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Bool(false))}, []cfd.Cell{cfd.Const(z)}))
	bAll := cfd.MustNew(bs, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Any()}, []cfd.Cell{cfd.Const(z)}))
	boolImplied = cfd.Implies([]*cfd.CFD{bt, bf}, bAll)

	ss := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString))
	st := cfd.MustNew(ss, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("t"))}, []cfd.Cell{cfd.Const(z)}))
	sf := cfd.MustNew(ss, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("f"))}, []cfd.Cell{cfd.Const(z)}))
	sAll := cfd.MustNew(ss, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Any()}, []cfd.Cell{cfd.Const(z)}))
	strImplied = cfd.Implies([]*cfd.CFD{st, sf}, sAll)
	return
}

func cindImplicationProbe() (yes, no, cyc cind.Result) {
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
	_, _, phi6 := figure4CINDs()
	target := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	yes = cind.Implies([]*cind.CIND{strongPhi5, phi6}, target)
	phi4, phi5, _ := figure4CINDs()
	no = cind.Implies([]*cind.CIND{phi4, phi5}, target)

	r := relation.MustSchema("cr", relation.Attr("a", relation.KindString), relation.Attr("b", relation.KindString))
	t := relation.MustSchema("ct", relation.Attr("c", relation.KindString), relation.Attr("d", relation.KindString))
	c1 := cind.MustIND(r, t, []string{"a"}, []string{"c"})
	c2 := cind.MustIND(t, r, []string{"d"}, []string{"a"})
	cyc = cind.ImpliesBounded([]*cind.CIND{c1, c2}, cind.MustIND(r, t, []string{"a"}, []string{"d"}), 3)
	return
}

func fastVsExactProbe(trials int) (agreeC, agreeI int) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
	)
	consts := []relation.Value{relation.Str("x"), relation.Str("y")}
	state := 98765
	next := func(m int) int {
		state = state*1103515245 + 12345
		if state < 0 {
			state = -state
		}
		return state % m
	}
	randCell := func() cfd.Cell {
		if next(3) == 0 {
			return cfd.Any()
		}
		return cfd.Const(consts[next(2)])
	}
	mk := func() *cfd.CFD {
		if next(2) == 0 {
			return cfd.MustNew(s, []string{"A"}, []string{"B"},
				cfd.Row([]cfd.Cell{randCell()}, []cfd.Cell{randCell()}))
		}
		return cfd.MustNew(s, []string{"B"}, []string{"A"},
			cfd.Row([]cfd.Cell{randCell()}, []cfd.Cell{randCell()}))
	}
	for i := 0; i < trials; i++ {
		var set []*cfd.CFD
		for j := 0; j <= next(3); j++ {
			set = append(set, mk())
		}
		f, _ := cfd.ConsistentFast(set)
		e, _ := cfd.ConsistentExact(set)
		if f == e {
			agreeC++
		}
		phi := mk()
		if cfd.Implies(set, phi) == cfd.ImpliesExact(set, phi) {
			agreeI++
		}
	}
	return
}

func nyECFDProbe() (okClean, violAlbany, viol555 bool) {
	s := relation.MustSchema("nycust",
		relation.Attr("CT", relation.KindString),
		relation.Attr("AC", relation.KindInt),
	)
	e1 := ecfd.MustNew(s, []string{"CT"}, []string{"AC"},
		ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Str("NYC"), relation.Str("LI"))}, RHS: []ecfd.Cell{ecfd.Any()}})
	e2 := ecfd.MustNew(s, []string{"CT"}, []string{"AC"},
		ecfd.Row{LHS: []ecfd.Cell{ecfd.In(relation.Str("NYC"))},
			RHS: []ecfd.Cell{ecfd.In(relation.Int(212), relation.Int(718), relation.Int(646), relation.Int(347), relation.Int(917))}})
	in := relation.NewInstance(s)
	in.MustInsert(relation.Str("Albany"), relation.Int(518))
	in.MustInsert(relation.Str("NYC"), relation.Int(212))
	in.MustInsert(relation.Str("NYC"), relation.Int(718))
	okClean = ecfd.SatisfiesAll(in, []*ecfd.ECFD{e1, e2})
	d1 := in.Clone()
	d1.MustInsert(relation.Str("Albany"), relation.Int(838))
	violAlbany = !ecfd.Satisfies(d1, e1)
	d2 := in.Clone()
	d2.MustInsert(relation.Str("NYC"), relation.Int(555))
	viol555 = !ecfd.Satisfies(d2, e2)
	return
}

func cfdAxiomsSound() (int, bool) {
	s := relation.MustSchema("r",
		relation.Attr("A", relation.KindString),
		relation.Attr("B", relation.KindString),
		relation.Attr("C", relation.KindString),
	)
	ab := cfd.MustNew(s, []string{"A"}, []string{"B"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Str("a"))}, []cfd.Cell{cfd.Const(relation.Str("b"))}))
	bc := cfd.MustFD(s, []string{"B"}, []string{"C"})
	base := []*cfd.CFD{ab, bc}
	_, derivations := cfd.Closure(base, 40)
	for _, d := range derivations {
		if !cfd.ImpliesExact(base, d.Derived) {
			return len(derivations), false
		}
	}
	return len(derivations), true
}

func cindAxiomsSound() bool {
	phi4, _, phi6 := figure4CINDs()
	perm, err := cind.Permute(phi4, []int{1, 0})
	if err != nil || cind.Implies([]*cind.CIND{phi4}, perm) != cind.Yes {
		return false
	}
	order := paperdata.OrderSchema()
	cdS := paperdata.CDSchema()
	strongPhi5 := cind.MustNew(order, cdS,
		[]string{"title", "price"}, []string{"album", "price"},
		[]string{"type"}, []string{"genre"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("a-book")},
		})
	composed, err := cind.Transit(strongPhi5, phi6)
	return err == nil && cind.Implies([]*cind.CIND{strongPhi5, phi6}, composed) == cind.Yes
}

func example42Probe() (f3, acCity, phi7, phi8 bool) {
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
		Name: "R",
		Cols: []string{"CC", "zip", "street", "AC", "city"},
		Branches: []propagate.Branch{
			branch("R1", 44), branch("R2", 1), branch("R3", 31),
		},
	}
	vs, _ := view.Schema(schemas)
	f3, _ = propagate.Propagates(schemas, sigma, view, cfd.MustFD(vs, []string{"zip"}, []string{"street"}))
	acCity, _ = propagate.Propagates(schemas, sigma, view, cfd.MustFD(vs, []string{"AC"}, []string{"city"}))
	p7 := cfd.MustNew(vs, []string{"CC", "zip"}, []string{"street"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Any()}, []cfd.Cell{cfd.Any()}))
	phi7, _ = propagate.Propagates(schemas, sigma, view, p7)
	p8 := cfd.MustNew(vs, []string{"CC", "AC"}, []string{"city"},
		cfd.Row([]cfd.Cell{cfd.Const(relation.Int(44)), cfd.Any()}, []cfd.Cell{cfd.Any()}),
		cfd.Row([]cfd.Cell{cfd.Const(relation.Int(1)), cfd.Any()}, []cfd.Cell{cfd.Any()}),
		cfd.Row([]cfd.Cell{cfd.Const(relation.Int(31)), cfd.Any()}, []cfd.Cell{cfd.Any()}))
	phi8, _ = propagate.Propagates(schemas, sigma, view, p8)
	return
}

func sigma1MDs() (*relation.Schema, *relation.Schema, []*md.MD) {
	card := paperdata.CardSchema()
	billing := paperdata.BillingSchema()
	eq := similarity.Eq()
	m := similarity.MatchOp()
	ed := similarity.EditOp(0.8)
	return card, billing, []*md.MD{
		md.MustNew(card, billing, []md.PremiseSpec{{Left: "tel", Right: "phn", Op: eq}},
			[]string{"addr"}, []string{"post"}, m),
		md.MustNew(card, billing, []md.PremiseSpec{{Left: "email", Right: "email", Op: m}},
			[]string{"FN", "LN"}, []string{"FN", "SN"}, m),
		md.MustNew(card, billing, []md.PremiseSpec{
			{Left: "LN", Right: "SN", Op: m}, {Left: "addr", Right: "post", Op: m}, {Left: "FN", Right: "FN", Op: m}},
			paperdata.Yc(), paperdata.Yb(), m),
		md.MustNew(card, billing, []md.PremiseSpec{
			{Left: "LN", Right: "SN", Op: m}, {Left: "addr", Right: "post", Op: m}, {Left: "FN", Right: "FN", Op: ed}},
			paperdata.Yc(), paperdata.Yb(), m),
	}
}

func paperRCKs() []*md.MD {
	card := paperdata.CardSchema()
	billing := paperdata.BillingSchema()
	eq := similarity.Eq()
	ed := similarity.EditOp(0.8)
	return []*md.MD{
		md.MustRelativeKey(card, billing,
			[]string{"email", "addr"}, []string{"email", "post"},
			[]similarity.Op{eq, eq}, paperdata.Yc(), paperdata.Yb()),
		md.MustRelativeKey(card, billing,
			[]string{"LN", "tel", "FN"}, []string{"SN", "phn", "FN"},
			[]similarity.Op{eq, eq, ed}, paperdata.Yc(), paperdata.Yb()),
		md.MustRelativeKey(card, billing,
			[]string{"LN", "addr", "FN"}, []string{"SN", "post", "FN"},
			[]similarity.Op{eq, eq, ed}, paperdata.Yc(), paperdata.Yb()),
	}
}

func matchQualityProbe(nPersons int) (qGiven, qDerived match.Quality) {
	cardS, billingS, sigma := sigma1MDs()
	cardIn, billingIn, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons: nPersons, Seed: 7,
		AbbrevRate: 0.15, TypoRate: 0.1, AddrDivergeRate: 0.3,
	})
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}
	eq := similarity.Eq()
	ed := similarity.EditOp(0.8)
	given := []*md.MD{
		md.MustRelativeKey(cardS, billingS,
			[]string{"email", "addr"}, []string{"email", "post"},
			[]similarity.Op{eq, eq}, paperdata.Yc(), paperdata.Yb()),
		md.MustRelativeKey(cardS, billingS,
			[]string{"LN", "addr", "FN"}, []string{"SN", "post", "FN"},
			[]similarity.Op{eq, eq, ed}, paperdata.Yc(), paperdata.Yb()),
	}
	run := func(rules []*md.MD) match.Quality {
		matcher := &match.Matcher{
			Left: cardIn, Right: billingIn, Rules: rules,
			TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
		}
		pairs, _ := matcher.Pairs()
		return match.Evaluate(pairs, truthPairs)
	}
	qGiven = run(given)
	derived, _ := md.DeriveRCKs(sigma, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	qDerived = run(append(append([]*md.MD(nil), given...), derived...))
	return
}

func cqaProbe() (agree, total int) {
	s := relation.MustSchema("acct",
		relation.Attr("id", relation.KindInt),
		relation.Attr("owner", relation.KindString),
		relation.Attr("balance", relation.KindInt),
	)
	in := relation.NewInstance(s)
	in.MustInsert(relation.Int(1), relation.Str("ann"), relation.Int(100))
	in.MustInsert(relation.Int(1), relation.Str("ann"), relation.Int(250))
	in.MustInsert(relation.Int(2), relation.Str("bob"), relation.Int(80))
	in.MustInsert(relation.Int(3), relation.Str("cat"), relation.Int(10))
	in.MustInsert(relation.Int(3), relation.Str("dan"), relation.Int(10))
	db := relation.NewDatabase()
	db.Add(in)
	dcs, _ := denial.Key(s, []string{"id"})
	probes := []struct {
		pred algebra.Predicate
		out  []string
		v    string
	}{
		{nil, []string{"owner"}, "o"},
		{algebra.AttrConst{Attr: "balance", Op: algebra.OpGe, Const: relation.Int(50)}, []string{"id"}, "i"},
		{nil, []string{"owner", "balance"}, ""},
	}
	varOf := map[string]string{"id": "i", "owner": "o", "balance": "b"}
	for _, p := range probes {
		total++
		rew, err := cqa.CertainByKeyRewriting(in, []string{"id"}, p.pred, p.out)
		if err != nil {
			continue
		}
		var head []algebra.Term
		for _, a := range p.out {
			head = append(head, algebra.V(varOf[a]))
		}
		q := algebra.CQ{Head: head, Atoms: []algebra.Atom{{Rel: "acct",
			Terms: []algebra.Term{algebra.V("i"), algebra.V("o"), algebra.V("b")}}}}
		if p.pred != nil {
			ac := p.pred.(algebra.AttrConst)
			q.Conds = []algebra.Cond{{Left: algebra.V(varOf[ac.Attr]), Op: ac.Op, Right: algebra.C(ac.Const)}}
		}
		enum, _, err := cqa.CertainAnswers(db, dcs, q, 0)
		if err != nil {
			continue
		}
		if sortedKey(rew) == sortedKey(enum) {
			agree++
		}
	}
	return
}

func sortedKey(in *relation.Instance) string {
	out := ""
	for _, t := range algebra.SortedTuples(in) {
		out += t.Key() + ";"
	}
	return out
}

func nucleusProbe(n int) (rows, vars, repairs int, sameAnswers bool) {
	in := gen.Example51(n)
	key := cfd.MustFD(in.Schema(), []string{"A"}, []string{"B"})
	nuc, err := repr.Nucleus(in, []*cfd.CFD{key})
	if err != nil {
		return 0, 0, 0, false
	}
	rows, vars = nuc.Rows(), nuc.Vars()
	db := relation.NewDatabase()
	db.Add(in)
	dcs, _ := denial.Key(in.Schema(), []string{"A"})
	h, _ := repair.BuildHypergraph(db, dcs)
	repairs = h.CountXRepairs(0)
	q := algebra.CQ{
		Head:  []algebra.Term{algebra.V("a")},
		Atoms: []algebra.Atom{{Rel: "r", Terms: []algebra.Term{algebra.V("a"), algebra.V("b")}}},
	}
	fromNuc, err1 := nuc.CertainAnswers(q)
	fromEnum, _, err2 := cqa.CertainAnswers(db, dcs, q, 0)
	sameAnswers = err1 == nil && err2 == nil && sortedKey(fromNuc) == sortedKey(fromEnum)
	return
}

func discoveryProbe(n int) (rules, caught int) {
	clean := gen.Customers(gen.CustomerConfig{N: n, Seed: 21, ErrorRate: 0})
	dirty := gen.Customers(gen.CustomerConfig{N: n, Seed: 21, ErrorRate: 0.05})
	mined := discoverConstantCFDs(clean)
	rules = len(mined)
	for _, r := range mined {
		caught += len(cfd.Detect(dirty, r))
	}
	return
}

// discoverConstantCFDs wraps the discovery package (kept here to localize
// the import in one helper).
func discoverConstantCFDs(in *relation.Instance) []*cfd.CFD {
	return discovery.DiscoverConstantCFDs(in, discovery.Options{MaxLHS: 2, MinSupport: 5})
}

// masterRepairProbe builds a truth/master/dirty triple where the majority
// of one group is corrupted, and compares consensus vs master-guided
// repair accuracy.
func masterRepairProbe() (consRestored, masterRestored, corrupted int, ok bool) {
	s := paperdata.CustomerSchema()
	truth := relation.NewInstance(s)
	streets := []string{"Mayfield Rd", "Crichton St", "High St", "Park Ave"}
	for i := 0; i < 12; i++ {
		truth.MustInsert(
			relation.Int(44), relation.Int(131), relation.Int(int64(1000000+i)),
			relation.Str("Person"), relation.Str(streets[i%4]), relation.Str("EDI"),
			relation.Str("EH"+string(rune('0'+i%4))))
	}
	master := truth.Clone()
	dirty := truth.Clone()
	street := s.MustLookup("street")
	zipPos := s.MustLookup("zip")
	count := 0
	for _, id := range dirty.IDs() {
		tu, _ := dirty.Tuple(id)
		if tu[zipPos].StrVal() == "EH0" && count < 2 {
			dirty.Update(id, street, relation.Str("Wrong Way"))
			count++
		}
	}
	sigma := []*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}
	key := md.MustRelativeKey(s, s,
		[]string{"phn"}, []string{"phn"},
		[]similarity.Op{similarity.Eq()},
		[]string{"street", "city", "zip"}, []string{"street", "city", "zip"})

	consensus := dirty.Clone()
	if _, err := repair.RepairCFDs(consensus, sigma, repair.URepairOptions{}); err != nil {
		return 0, 0, 0, false
	}
	consRestored, corrupted = repair.RestoredAccuracy(dirty, consensus, truth)

	guided := dirty.Clone()
	if _, err := repair.RepairWithMaster(guided, sigma, master, []*md.MD{key}, repair.URepairOptions{}); err != nil {
		return 0, 0, 0, false
	}
	masterRestored, _ = repair.RestoredAccuracy(dirty, guided, truth)
	return consRestored, masterRestored, corrupted, cfd.SatisfiesAll(guided, sigma)
}

// mixedDetectProbe measures one warm mixed-class engine batch against
// the per-class legacy detectors on an order/book/CD database, and
// verifies the engine's per-class streams are byte-identical to them.
func mixedDetectProbe(n int) (engine, legacy time.Duration, identical bool) {
	db := gen.Orders(gen.OrdersConfig{Books: n / 4, CDs: n / 4, Orders: n, Seed: 17, ViolationRate: 0.05})
	order := db.MustInstance("order")
	s := order.Schema()
	cfds := []*cfd.CFD{
		cfd.MustFD(s, []string{"title"}, []string{"price"}),
		cfd.MustFD(s, []string{"title", "price", "type"}, []string{"asin"}),
	}
	phi4, phi5, phi6 := figure4CINDs()
	cinds := []*cind.CIND{phi4, phi5, phi6}
	ecfds := []*ecfd.ECFD{
		ecfd.MustNew(s, []string{"title"}, []string{"type"},
			ecfd.Row{LHS: []ecfd.Cell{ecfd.Any()},
				RHS: []ecfd.Cell{ecfd.In(relation.Str("book"), relation.Str("CD"))}}),
	}
	var cs []detect.Constraint
	cs = append(cs, detect.WrapCFDs(cfds)...)
	cs = append(cs, detect.WrapCINDs(cinds)...)
	cs = append(cs, detect.WrapECFDs(ecfds)...)

	e := detect.New(1)
	e.DetectBatch(db, cs) // warm the DBSnapshot and shared indexes
	start := time.Now()
	got := e.DetectBatch(db, cs)
	engine = time.Since(start)

	start = time.Now()
	wantCFD := cfd.DetectAll(order, cfds)
	wantCIND := cind.DetectAll(db, cinds)
	wantECFD := ecfd.DetectAll(order, ecfds)
	legacy = time.Since(start)

	gotCFD, gotCIND, gotECFD := detect.SplitViolations(got)
	identical = len(gotCFD) == len(wantCFD) && len(gotCIND) == len(wantCIND) && len(gotECFD) == len(wantECFD)
	if identical {
		for i := range gotCFD {
			if gotCFD[i] != wantCFD[i] {
				identical = false
				break
			}
		}
		for i := range gotCIND {
			if gotCIND[i] != wantCIND[i] {
				identical = false
				break
			}
		}
		for i := range gotECFD {
			if gotECFD[i] != wantECFD[i] {
				identical = false
				break
			}
		}
	}
	return engine, legacy, identical
}

// monitorIncrProbe measures the steady-state monitoring cost: `batches`
// batches of `batchSize` street updates against an n-tuple dirty
// customer instance under 8 CFDs, once through a stateful
// detect.DBMonitor over the one-relation database (incremental
// snapshot/index maintenance) and once
// through the invalidate-and-rebuild discipline (fresh snapshot + fresh
// group indexes + the touched CFD kernel per batch). Exactness compares
// the monitor's maintained violation set against the string-keyed
// cfd.DetectAll after every batch.
func monitorIncrProbe(n, batches, batchSize int) (monitor, rebuild time.Duration, exact bool) {
	mkSigma := func(s *relation.Schema) []*cfd.CFD {
		ccs := []int64{44, 1, 31, 49, 33, 39, 34, 46}
		out := make([]*cfd.CFD, 0, 8)
		for i := 0; i < 8; i++ {
			cc := cfd.Const(relation.Int(ccs[i]))
			if i%2 == 0 {
				out = append(out, cfd.MustNew(s, []string{"CC", "zip"}, []string{"street"},
					cfd.Row([]cfd.Cell{cc, cfd.Any()}, []cfd.Cell{cfd.Any()})))
			} else {
				out = append(out, cfd.MustNew(s, []string{"CC", "AC"}, []string{"city"},
					cfd.Row([]cfd.Cell{cc, cfd.Any()}, []cfd.Cell{cfd.Any()})))
			}
		}
		return out
	}
	mkOps := func(in *relation.Instance, round int) []detect.DBOp {
		street := in.Schema().MustLookup("street")
		ids := in.IDs()
		ops := make([]detect.DBOp, batchSize)
		for i := range ops {
			id := ids[(round*7919+i*104729)%len(ids)]
			ops[i] = detect.UpdateIn(in.Schema().Name(), id, street, relation.Str(fmt.Sprintf("St %d-%d", round, i)))
		}
		return ops
	}

	// DBMonitor path.
	inM := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
	sigma := mkSigma(inM.Schema())
	db := relation.NewDatabase()
	db.Add(inM)
	m := detect.NewDBMonitor(detect.New(1), db, detect.WrapCFDs(sigma))
	exact = true
	for r := 0; r < batches; r++ {
		ops := mkOps(inM, r)
		start := time.Now()
		if _, _, err := m.Apply(ops); err != nil {
			return 0, 0, false
		}
		monitor += time.Since(start)
		got := m.Violations()
		// Oracle: the string-keyed reference detector, which shares no
		// snapshot or index with the monitor's incrementally derived
		// state.
		want := cfd.DetectAll(inM, sigma)
		if len(got) != len(want) {
			exact = false
		} else {
			for i := range got {
				if got[i] != want[i] {
					exact = false
					break
				}
			}
		}
	}

	// Invalidate-and-rebuild path: same updates on a twin instance; each
	// batch pays a fresh freeze + intern + index build before the
	// touched-group scan (PR 2's behavior after any mutation).
	inR := gen.Customers(gen.CustomerConfig{N: n, Seed: 17, ErrorRate: 0.05})
	for r := 0; r < batches; r++ {
		ops := mkOps(inR, r)
		touched := make([]relation.TID, 0, len(ops))
		for _, op := range ops {
			if err := inR.Update(op.Op.TID, op.Op.Pos, op.Op.Val); err != nil {
				return 0, 0, false
			}
			touched = append(touched, op.Op.TID)
		}
		start := time.Now()
		snap := relation.NewSnapshot(inR) // invalidation: nothing carried over
		for _, c := range sigma {
			cfd.DetectTouchedWithSnapshot(snap, c, snap.CodeIndexOn(c.LHS()), touched)
		}
		rebuild += time.Since(start)
	}
	return monitor, rebuild, exact
}

// driftDetectProbe is the E30 acceptance probe: drive the synthetic
// drift workload (internal/gen) through an observability-enabled
// service and read the change points back off the trend tracker.
// latency is detection seq minus first-post-change seq on the stepped
// stream; ctrlCPs counts change points (false positives) on a
// stationary control stream of the same length.
func driftDetectProbe() (latency int64, conf float64, ctrlCPs int, err error) {
	run := func(cfg drift.Config) ([]obs.ChangePoint, error) {
		in := drift.Customers(200, 1)
		db := relation.NewDatabase()
		db.Add(in)
		s := in.Schema()
		svc, err := serve.New(serve.Config{
			DB:          db,
			Constraints: detect.WrapCFDs([]*cfd.CFD{paperdata.Phi1(s), paperdata.Phi2(s)}),
			Obs:         &serve.ObsConfig{},
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		defer svc.Stop(ctx)
		for _, ops := range drift.Batches(cfg) {
			if _, err := svc.Submit(ctx, ops); err != nil {
				return nil, err
			}
		}
		var cps []obs.ChangePoint
		for _, tr := range svc.Trends(0) {
			cps = append(cps, tr.ChangePoints...)
		}
		return cps, nil
	}

	step := drift.Config{
		Seed: 7, Batches: 40, OpsPerBatch: 25,
		BaseRate: 0.1, ChangeAt: 20, Factor: 8,
	}
	cps, err := run(step)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(cps) != 1 {
		return 0, 0, 0, fmt.Errorf("stepped stream: %d change points, want exactly 1", len(cps))
	}
	const changeSeq = 21 // ChangeAt is 0-based; seed state is seq 0
	latency = int64(cps[0].DetectedSeq) - changeSeq
	conf = cps[0].Confidence

	control := step
	control.Seed, control.ChangeAt = 19, step.Batches // never shifts
	ctrl, err := run(control)
	if err != nil {
		return 0, 0, 0, err
	}
	return latency, conf, len(ctrl), nil
}

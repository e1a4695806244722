package repro_test

// The paper's claims that no package test asserts at the same input size,
// one subtest per experiment id of DESIGN.md's experiment index. The
// other ids point at the package tests that carry them; the index names
// each one. Rows run at full size, and at reduced size under -short.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/cqa"
	"repro/internal/denial"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/repair"
	"repro/internal/repr"
	"repro/internal/similarity"
)

// paperClaim is one row: the experiment id, what the row is about, the
// paper's claim, and a check that reports what was measured and whether
// the claim holds (short selects the reduced sizes).
type paperClaim struct {
	id, title, claim string
	check            func(short bool) (measured string, pass bool)
}

var paperClaims = []paperClaim{
	{
		id:    "E3",
		title: "Figure 3: the order/book/CD instance D1",
		claim: "D1 as printed (2 orders, 2 books, 2 CDs)",
		check: func(bool) (string, bool) {
			db := paperdata.Figure3()
			o := db.MustInstance("order").Len()
			b := db.MustInstance("book").Len()
			c := db.MustInstance("CD").Len()
			return fmt.Sprintf("order: %d, book: %d, CD: %d tuples", o, b, c), o == 2 && b == 2 && c == 2
		},
	},
	{
		id:    "E8",
		title: "Table 1: CIND implication via the chase (EXPTIME)",
		claim: "definite on acyclic families; Unknown past the bound on cyclic ones",
		check: func(bool) (string, bool) {
			yes, no, cyc := cindImplicationProbe()
			pass := yes == cind.Yes && no == cind.No && (cyc == cind.Unknown || cyc == cind.No)
			return fmt.Sprintf("transitive composition: %v, non-consequence: %v, cyclic probe: %v", yes, no, cyc), pass
		},
	},
	{
		id:    "E9",
		title: "Table 1: no finite domains ⇒ quadratic algorithms",
		claim: "consistency and implication drop to O(n²) (Theorem 4.3)",
		check: func(short bool) (string, bool) {
			trials := 300
			if short {
				trials = 60
			}
			agreeC, agreeI := fastVsExactProbe(trials)
			return fmt.Sprintf("fixpoint vs exact consistency agreement: %d/%d; chase vs exact implication: %d/%d",
				agreeC, trials, agreeI, trials), agreeC == trials && agreeI == trials
		},
	},
	{
		id:    "E11",
		title: "Table 1: CFDs+CINDs together are undecidable",
		claim: "bounded semi-decision: Yes/No definite, Unknown past the bound",
		check: func(bool) (string, bool) {
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
		id:    "E15",
		title: "Section 3: derived RCKs improve match quality",
		claim: "true matches missed by given rules are found by derived comparison vectors",
		check: func(short bool) (string, bool) {
			n := 300
			if short {
				n = 100
			}
			qGiven, qDerived := matchQualityProbe(n)
			pass := qDerived.Recall > qGiven.Recall && qDerived.Precision >= 0.99
			return fmt.Sprintf("given rules: %v; with derived: %v", qGiven, qDerived), pass
		},
	},
	{
		id:    "E17",
		title: "Section 5.1: cost-based heuristic repair cleans dirty data",
		claim: "repair terminates with a Σ-satisfying instance at 1%–5% error rates",
		check: func(short bool) (string, bool) {
			n := 800
			if short {
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
		id:    "E19",
		title: "Section 5.3: nucleus vs materialized repairs",
		claim: "condensed representation is linear while repairs are exponential; same certain answers",
		check: func(bool) (string, bool) {
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
		check: func(bool) (string, bool) {
			consRestored, masterRestored, corrupted, ok := masterRepairProbe()
			pass := ok && masterRestored == corrupted && consRestored < masterRestored
			return fmt.Sprintf("corrupted cells: %d; consensus restored: %d; master-guided restored: %d",
				corrupted, consRestored, masterRestored), pass
		},
	},
	{
		id:    "E23",
		title: "Incremental monitoring: DBMonitor.Apply vs invalidate-and-rebuild",
		claim: "update batches cost the touched groups, not a full re-freeze; diffs stay exact",
		check: func(short bool) (string, bool) {
			n := 20000
			if short {
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
		check: func(short bool) (string, bool) {
			n := 20000
			if short {
				n = 4000
			}
			engineT, legacyT, identical := mixedDetectProbe(n)
			ratio := float64(legacyT) / float64(engineT)
			// Identity gates; the one-shot wall-clock ratio is reported,
			// not asserted: on a shared host it is noise, and the bench
			// metrics cfd/cind/ecfd.detect_ms carry the timing.
			return fmt.Sprintf("n=%d orders: mixed engine batch %v, per-class reference detectors %v (%.1fx); per-class streams byte-identical: %v",
				n, engineT.Round(time.Microsecond), legacyT.Round(time.Microsecond), ratio, identical), identical
		},
	},
}

// TestPaperClaims runs every row of paperClaims as a subtest named by its
// experiment id, logging the claim next to what was measured.
func TestPaperClaims(t *testing.T) {
	for _, c := range paperClaims {
		t.Run(c.id, func(t *testing.T) {
			measured, pass := c.check(testing.Short())
			t.Logf("%s\npaper:    %s\nmeasured: %s", c.title, c.claim, measured)
			if !pass {
				t.Errorf("%s does not hold: %s", c.id, measured)
			}
		})
	}
}

// --- probes --------------------------------------------------------------

// cindImplicationProbe decides a transitive composition through a
// strengthened ϕ5 (Yes), a non-consequence of ϕ4, ϕ5 (No), and a cyclic
// IND family whose chase runs past a bound of 3 (Unknown, or a definite
// No at fixpoint).
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
	target := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, []string{"format"},
		cind.PatternRow{
			XpVals: []relation.Value{relation.Str("CD")},
			YpVals: []relation.Value{relation.Str("audio")},
		})
	yes = cind.Implies([]*cind.CIND{strongPhi5, paperdata.Phi6()}, target)
	no = cind.Implies([]*cind.CIND{paperdata.Phi4(), paperdata.Phi5()}, target)

	r := relation.MustSchema("cr", relation.Attr("a", relation.KindString), relation.Attr("b", relation.KindString))
	t := relation.MustSchema("ct", relation.Attr("c", relation.KindString), relation.Attr("d", relation.KindString))
	c1 := cind.MustIND(r, t, []string{"a"}, []string{"c"})
	c2 := cind.MustIND(t, r, []string{"d"}, []string{"a"})
	cyc = cind.ImpliesBounded([]*cind.CIND{c1, c2}, cind.MustIND(r, t, []string{"a"}, []string{"d"}), 3)
	return
}

// fastVsExactProbe counts, over deterministic pseudo-random CFD families
// on infinite string domains, how often the quadratic procedures agree
// with the exact ones: consistency (fixpoint vs search) and implication
// (chase vs search).
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

// matchQualityProbe matches generated card/billing sources of nPersons
// people with the given rules rck1 and rck3, then again with the RCKs
// derived from Σ1 added.
func matchQualityProbe(nPersons int) (qGiven, qDerived match.Quality) {
	cardIn, billingIn, truth := gen.CardBilling(gen.CardBillingConfig{
		NPersons: nPersons, Seed: 7,
		AbbrevRate: 0.15, TypoRate: 0.1, AddrDivergeRate: 0.3,
	})
	var truthPairs []match.Pair
	for _, p := range truth {
		truthPairs = append(truthPairs, match.Pair{L: p[0], R: p[1]})
	}
	rck := paperdata.RCKs()
	given := []*md.MD{rck[0], rck[2]}
	run := func(rules []*md.MD) match.Quality {
		matcher := &match.Matcher{
			Left: cardIn, Right: billingIn, Rules: rules,
			TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
		}
		pairs, _ := matcher.Pairs()
		return match.Evaluate(pairs, truthPairs)
	}
	qGiven = run(given)
	derived, _ := md.DeriveRCKs(paperdata.Sigma1(), paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	qDerived = run(append(append([]*md.MD(nil), given...), derived...))
	return
}

// sortedKey renders an instance's tuples in sorted order, for comparing
// answer sets.
func sortedKey(in *relation.Instance) string {
	out := ""
	for _, t := range algebra.SortedTuples(in) {
		out += t.Key() + ";"
	}
	return out
}

// nucleusProbe builds the nucleus of Example 5.1's D_n, counts its
// X-repairs, and compares the certain answers of one query computed on
// the nucleus and by repair enumeration.
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
// the per-class string-keyed reference detectors on an order/book/CD
// database, and verifies the engine's per-class streams are
// byte-identical to them.
func mixedDetectProbe(n int) (engine, reference time.Duration, identical bool) {
	db := gen.Orders(gen.OrdersConfig{Books: n / 4, CDs: n / 4, Orders: n, Seed: 17, ViolationRate: 0.05})
	order := db.MustInstance("order")
	s := order.Schema()
	cfds := []*cfd.CFD{
		cfd.MustFD(s, []string{"title"}, []string{"price"}),
		cfd.MustFD(s, []string{"title", "price", "type"}, []string{"asin"}),
	}
	cinds := []*cind.CIND{paperdata.Phi4(), paperdata.Phi5(), paperdata.Phi6()}
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
	reference = time.Since(start)

	gotCFD, gotCIND, gotECFD := detect.SplitViolations(got)
	identical = sameViolations(gotCFD, wantCFD) && sameViolations(gotCIND, wantCIND) && sameViolations(gotECFD, wantECFD)
	return engine, reference, identical
}

// sameViolations reports whether a and b hold equal violations in the
// same order.
func sameViolations[A, B any](a []A, b []B) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if any(a[i]) != any(b[i]) {
			return false
		}
	}
	return true
}

// monitorIncrProbe measures the steady-state monitoring cost: `batches`
// batches of `batchSize` street updates against an n-tuple dirty
// customer instance under 8 CFDs, once through a stateful
// detect.DBMonitor over the one-relation database (incremental
// snapshot/index maintenance) and once through the
// invalidate-and-rebuild discipline (fresh snapshot + fresh group
// indexes + the touched CFD kernel per batch). Exactness compares the
// monitor's maintained violation set against the string-keyed
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
		// Oracle: the string-keyed reference detector, which shares no
		// snapshot or index with the monitor's incrementally derived
		// state.
		if !sameViolations(m.Violations(), cfd.DetectAll(inM, sigma)) {
			exact = false
		}
	}

	// Invalidate-and-rebuild path: same updates on a twin instance; each
	// batch pays a fresh freeze + intern + index build before the
	// touched-group scan.
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

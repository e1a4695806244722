package cfd_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// FuzzFormatRoundTrip: whatever Parse accepts, Format writes as text that
// parses back to the same constants, kinds included, and formats again
// byte for byte. The seeds are inputs the formatter once misread: Null
// written as ⊥ (an int parse error, or silently the string "⊥"), a
// constant with a leading '#' that re-parsed as a comment, and a
// constant with surrounding quotes that lost them.
func FuzzFormatRoundTrip(f *testing.F) {
	schemas := map[string]*relation.Schema{
		"customer": paperdata.CustomerSchema(),
		"r": relation.MustSchema("r",
			relation.Attr("A", relation.KindString),
			relation.Attr("B", relation.KindInt),
			relation.Attr("C", relation.KindFloat),
			relation.Attr("D", relation.KindBool)),
	}
	for _, seed := range []string{
		"cfd customer: [AC] -> [city]\n  || EDI\n",
		"cfd customer: [city] -> [street]\n  || x\n",
		"cfd customer: [city] -> [street]\n  '#1' || x\n",
		"cfd customer: [city] -> [street]\n  ''a'' || x\n",
		"cfd customer: [CC, zip] -> [street]\n  44, _ || _\n",
		"cfd customer: [CC, AC, phn] -> [street, city, zip]\n  _, _, _ || _, _, _\n  44, 131, _ || _, EDI, _\n",
		"cfd customer: [city, zip] -> [street]\n  'EH4, flat', '_' || ' a b '\n",
		"cfd r: [A, B] -> [C, D]\n  'x,y', 7 || 1.5, true\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		set, err := cfd.ParseString(text, schemas)
		if err != nil {
			return
		}
		var first strings.Builder
		if err := cfd.Format(&first, set); err != nil {
			t.Fatal(err)
		}
		again, err := cfd.ParseString(first.String(), schemas)
		if err != nil {
			t.Fatalf("re-parse: %v\ninput:\n%q\nformatted:\n%q", err, text, first.String())
		}
		if got, want := constants(again), constants(set); got != want {
			t.Fatalf("constants changed\ninput:\n%q\nformatted:\n%q\nwant %s\ngot  %s", text, first.String(), want, got)
		}
		var second strings.Builder
		if err := cfd.Format(&second, again); err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Fatalf("format not stable\nfirst:\n%q\nsecond:\n%q", first.String(), second.String())
		}
	})
}

// constants renders each CFD's attributes and pattern cells, every
// constant with its kind, so that Null and the string "⊥" differ.
func constants(set []*cfd.CFD) string {
	var b strings.Builder
	for _, c := range set {
		fmt.Fprintf(&b, "%s%v%v:", c.Schema().Name(), c.LHSNames(), c.RHSNames())
		for _, row := range c.Tableau() {
			for _, cell := range append(append([]cfd.Cell(nil), row.LHS...), row.RHS...) {
				if cell.IsWildcard() {
					b.WriteString(" _")
					continue
				}
				fmt.Fprintf(&b, " %d:%q", cell.Value().Kind(), cell.Value().String())
			}
			b.WriteString(" ;")
		}
	}
	return b.String()
}

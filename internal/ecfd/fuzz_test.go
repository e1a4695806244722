package ecfd_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ecfd"
	"repro/internal/relation"
)

// FuzzFormatRoundTrip: whatever Parse accepts, Format writes as text that
// parses back to the same cells, value kinds included, and formats again
// byte for byte. The first two seeds are inputs the formatter once
// misread: empty cells (Null) written as in{⊥}, which does not re-parse,
// and a set whose repeated value balanced its braces.
func FuzzFormatRoundTrip(f *testing.F) {
	schemas := map[string]*relation.Schema{
		"customer": relation.MustSchema("customer",
			relation.Attr("city", relation.KindString),
			relation.Attr("AC", relation.KindInt),
			relation.Attr("zip", relation.KindString),
			relation.Attr("rate", relation.KindFloat)),
	}
	for _, seed := range []string{
		"ecfd customer:[city]->[AC]\n  ||\n",
		"ecfd customer: [city, zip] -> [AC]\n  in{a{,a{,}}}, x || 1\n",
		"ecfd customer: [city] -> [AC]\n  notin{NYC,LI} || _\n  in{NYC} || in{212,718,646,347,917}\n",
		"ecfd customer: [city, zip] -> [AC, rate]\n  EDI, _ || 131, in{1.5,}\n",
		"ecfd customer: [city] -> [zip]\n  {a,b} || in{#1,_,in{x}}\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		set, err := ecfd.ParseString(text, schemas)
		if err != nil {
			return
		}
		var first strings.Builder
		if err := ecfd.Format(&first, set); err != nil {
			t.Fatal(err)
		}
		again, err := ecfd.ParseString(first.String(), schemas)
		if err != nil {
			t.Fatalf("re-parse: %v\ninput:\n%q\nformatted:\n%q", err, text, first.String())
		}
		if got, want := cells(again), cells(set); got != want {
			t.Fatalf("cells changed\ninput:\n%q\nformatted:\n%q\nwant %s\ngot  %s", text, first.String(), want, got)
		}
		var second strings.Builder
		if err := ecfd.Format(&second, again); err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Fatalf("format not stable\nfirst:\n%q\nsecond:\n%q", first.String(), second.String())
		}
	})
}

// cells renders each eCFD with its pattern cells, every set value with
// its kind, so that Null and the string "⊥" differ.
func cells(set []*ecfd.ECFD) string {
	var b strings.Builder
	for _, e := range set {
		fmt.Fprintf(&b, "%s:", e)
		for _, row := range e.Tableau() {
			for _, c := range append(append([]ecfd.Cell(nil), row.LHS...), row.RHS...) {
				fmt.Fprintf(&b, " %d{", c.Op())
				for _, v := range c.Set() {
					fmt.Fprintf(&b, "%d:%q,", v.Kind(), v.String())
				}
				b.WriteString("}")
			}
			b.WriteString(" ;")
		}
	}
	return b.String()
}

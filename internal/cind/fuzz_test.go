package cind_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cind"
	"repro/internal/relation"
)

// FuzzFormatRoundTrip: whatever Parse accepts, Format writes as text that
// parses back to the same pattern constants, kinds included, and formats
// again byte for byte.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"cind order[title, price; type] <= book[title, price; ]\n  book ||\n",
		"cind CD[album, price; genre] <= book[title, price; format]\n  a-book || audio\n",
		"cind order[title; type, asin] <= book[title; format, isbn]\n  CD, || ,x\n",
		"cind order[title] <= CD[album]\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		set, err := cind.ParseString(text, parseSchemas())
		if err != nil {
			return
		}
		var first strings.Builder
		if err := cind.Format(&first, set); err != nil {
			t.Fatal(err)
		}
		again, err := cind.ParseString(first.String(), parseSchemas())
		if err != nil {
			t.Fatalf("re-parse: %v\ninput:\n%q\nformatted:\n%q", err, text, first.String())
		}
		if got, want := patterns(again), patterns(set); got != want {
			t.Fatalf("patterns changed\ninput:\n%q\nformatted:\n%q\nwant %s\ngot  %s", text, first.String(), want, got)
		}
		var second strings.Builder
		if err := cind.Format(&second, again); err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Fatalf("format not stable\nfirst:\n%q\nsecond:\n%q", first.String(), second.String())
		}
	})
}

// patterns renders each CIND with its pattern constants, every constant
// with its kind, so that Null and the string "⊥" differ.
func patterns(set []*cind.CIND) string {
	var b strings.Builder
	for _, c := range set {
		fmt.Fprintf(&b, "%s:", c)
		for _, row := range c.Tableau() {
			for _, v := range append(append([]relation.Value(nil), row.XpVals...), row.YpVals...) {
				fmt.Fprintf(&b, " %d:%q", v.Kind(), v.String())
			}
			b.WriteString(" ;")
		}
	}
	return b.String()
}

package cind_test

import (
	"fmt"
	"testing"

	"repro/internal/cind"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// TestViolationString pins the rendering AppendTo builds by hand (with
// the CIND text New renders once) to the fmt format it replaced.
func TestViolationString(t *testing.T) {
	order, book := paperdata.OrderSchema(), paperdata.BookSchema()
	c := cind.MustNew(order, book,
		[]string{"title", "price"}, []string{"title", "price"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	if got, want := c.String(), "order[title, price; type] ⊆ book[title, price; ], {book || }"; got != want {
		t.Fatalf("CIND String() = %q, want %q", got, want)
	}
	for _, tid := range []relation.TID{0, 99996, -7, 1 << 45} {
		v := cind.Violation{CIND: c, Row: 3, TID: tid}
		want := fmt.Sprintf("%s: tuple %d of %s has no match in %s (row %d)", c, v.TID, "order", "book", v.Row)
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

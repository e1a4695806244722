package ecfd_test

import (
	"fmt"
	"testing"

	"repro/internal/ecfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// TestViolationString pins the rendering AppendTo builds by hand to
// the fmt format it replaced, for single tuples and pairs.
func TestViolationString(t *testing.T) {
	order := paperdata.OrderSchema()
	e := ecfd.MustNew(order, []string{"type"}, []string{"price"},
		ecfd.Row{LHS: []ecfd.Cell{ecfd.NotIn(relation.Str("book"))}, RHS: []ecfd.Cell{ecfd.Any()}})
	for _, tids := range [][2]relation.TID{{5, 5}, {5, 9}, {-1, 1 << 50}} {
		v := ecfd.Violation{ECFD: e, Row: 1, T1: tids[0], T2: tids[1], Attr: 3}
		want := fmt.Sprintf("%s: tuples %d,%d violate row %d on %s", "order", v.T1, v.T2, v.Row, "price")
		if v.T1 == v.T2 {
			want = fmt.Sprintf("%s: tuple %d violates row %d on %s", "order", v.T1, v.Row, "price")
		}
		if got := v.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

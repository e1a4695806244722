package cfd_test

import (
	"fmt"
	"testing"

	"repro/internal/cfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// TestViolationString pins the rendering AppendTo builds by hand to
// the fmt format it replaced, for both kinds and extreme TIDs.
func TestViolationString(t *testing.T) {
	order := paperdata.OrderSchema()
	c := cfd.MustFD(order, []string{"title"}, []string{"price"})
	for _, tids := range [][2]relation.TID{{0, 0}, {1, 7710}, {-3, 99}, {1 << 40, 1<<62 + 5}} {
		for _, kind := range []cfd.ViolationKind{cfd.SingleTuple, cfd.TuplePair} {
			v := cfd.Violation{CFD: c, Row: 2, Kind: kind, T1: tids[0], T2: tids[1], Attr: 3}
			want := fmt.Sprintf("%s: tuples %d,%d violate row %d on %s", "order", v.T1, v.T2, v.Row, "price")
			if kind == cfd.SingleTuple {
				want = fmt.Sprintf("%s: tuple %d violates row %d on %s", "order", v.T1, v.Row, "price")
			}
			if got := v.String(); got != want {
				t.Fatalf("String() = %q, want %q", got, want)
			}
			if got := string(v.AppendTo([]byte("x"))); got != "x"+want {
				t.Fatalf("AppendTo = %q, want %q", got, "x"+want)
			}
		}
	}
}

package md_test

import (
	"strings"
	"testing"

	"repro/internal/md"
)

// FuzzFormatRoundTrip: whatever Parse accepts, Format writes as text that
// parses back to the same MDs and formats again byte for byte.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"md card/billing: tel = phn -> addr <=> post\n",
		"md card/billing: email <=> email -> [FN,LN] <=> [FN,SN]\n",
		"md card/billing: LN <=> SN, addr <=> post, FN ~edit(0.8) FN -> [FN,LN,addr,tel,email] <=> [FN,SN,post,phn,email]\n",
		"md card/billing: FN ~jw(0.9) FN, LN ~qgram(2,0.5) SN, tel ~soundex phn -> addr <=> post\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		set, err := md.ParseString(text, mdSchemas())
		if err != nil {
			return
		}
		var first strings.Builder
		if err := md.Format(&first, set); err != nil {
			t.Fatal(err)
		}
		again, err := md.ParseString(first.String(), mdSchemas())
		if err != nil {
			t.Fatalf("re-parse: %v\ninput:\n%q\nformatted:\n%q", err, text, first.String())
		}
		if len(again) != len(set) {
			t.Fatalf("re-parse gave %d MDs, want %d", len(again), len(set))
		}
		for i := range set {
			if again[i].String() != set[i].String() {
				t.Fatalf("MD %d changed: %s -> %s", i, set[i], again[i])
			}
		}
		var second strings.Builder
		if err := md.Format(&second, again); err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Fatalf("format not stable\nfirst:\n%q\nsecond:\n%q", first.String(), second.String())
		}
	})
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

// oldViolationJSON is the wire object as the service rendered it
// through encoding/json before the leaf encoder: the oracle the
// memoised bytes must reproduce exactly.
type oldViolationJSON struct {
	Class string        `json:"class"`
	Rule  string        `json:"rule"`
	Rel   string        `json:"rel"`
	Row   int           `json:"row"`
	T1    relation.TID  `json:"t1"`
	T2    *relation.TID `json:"t2,omitempty"`
	Attr  string        `json:"attr,omitempty"`
	Text  string        `json:"text"`
}

func oldWire(vs []detect.Violation) []oldViolationJSON {
	out := make([]oldViolationJSON, len(vs))
	for i, v := range vs {
		w := oldViolationJSON{
			Class: detect.ClassOf(v).String(),
			Rule:  fmt.Sprint(detect.DepOf(v)),
			Rel:   detect.RelationOf(v),
			Text:  v.String(),
		}
		switch v := v.(type) {
		case cfd.Violation:
			w.Row, w.T1, w.Attr = v.Row, v.T1, v.CFD.Schema().Attr(v.Attr).Name
			t2 := v.T2
			w.T2 = &t2
		case cind.Violation:
			w.Row, w.T1 = v.Row, v.TID
		case ecfd.Violation:
			w.Row, w.T1, w.Attr = v.Row, v.T1, v.ECFD.Schema().Attr(v.Attr).Name
			t2 := v.T2
			w.T2 = &t2
		}
		out[i] = w
	}
	return out
}

// encodingJSON renders v the way writeJSON does.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldViolationsBody is the pre-leaf GET /violations body for a list.
func oldViolationsBody(t *testing.T, seq uint64, vs []detect.Violation) []byte {
	return encodingJSON(t, struct {
		Seq        uint64             `json:"seq"`
		Total      int                `json:"total"`
		Violations []oldViolationJSON `json:"violations"`
	}{seq, len(vs), oldWire(vs)})
}

func get(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzAppendJSONString: the hand-rolled string escaper writes exactly
// what encoding/json writes with HTML escaping off — control bytes,
// quotes, backslashes, invalid UTF-8, U+2028/U+2029 included.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `q"uo\te`, "\x00\x01\b\f\n\r\t\x1f\x7f",
		"<a href='x'>&amp;</a>", "caf\u00e9 \u2028 \u2029 \U0001F600", "\xff\xfe bad \xc3", "\xe2\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := bytes.TrimSuffix(encodingJSON(t, s), []byte("\n"))
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, encoding/json %s", s, got, want)
		}
	})
}

// seqViolations is n distinct CFD violations in canonical order: one
// per T1, against the first rule of serveSigma.
func seqViolations(rule *cfd.CFD, tids []int) []detect.Violation {
	out := make([]detect.Violation, len(tids))
	for i, id := range tids {
		out[i] = cfd.Violation{CFD: rule, Kind: cfd.TuplePair, T1: relation.TID(id), T2: relation.TID(id + 1), Attr: 3}
	}
	return out
}

// checkSeq asserts the sequence's invariants and contents: want in
// order, every leaf non-empty and below 2·leafCap, n exact.
func checkSeq(t *testing.T, q violSeq, want []detect.Violation, sigma map[any]int) {
	t.Helper()
	if got := q.all(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("sequence holds %d violations, want %d", len(got), len(want))
	}
	if q.n != len(want) {
		t.Fatalf("n = %d, want %d", q.n, len(want))
	}
	for i, l := range q.leaves {
		if len(l.vs) == 0 || len(l.vs) >= 2*leafCap {
			t.Fatalf("leaf %d holds %d violations, want 1..%d", i, len(l.vs), 2*leafCap-1)
		}
	}
	vs := q.all()
	for i := 1; i < len(vs); i++ {
		if detect.CompareViolations(vs[i-1], vs[i], sigma) >= 0 {
			t.Fatalf("sequence out of order at %d", i)
		}
	}
}

// TestViolSeqApply drives the leaf sequence through the shapes a commit
// can take — empty to non-empty and back, a leaf growing past its split
// point, a leaf emptied and dropped, edits to the first and last leaf —
// then a randomized stream, checking contents, invariants, that the
// predecessor is left intact and that untouched leaves are shared.
func TestViolSeqApply(t *testing.T) {
	cs := serveSigma()
	sigma := detect.SigmaOf(cs)
	rule := cs[0].Dep().(*cfd.CFD)
	set := func(tids ...int) []detect.Violation { return seqViolations(rule, tids) }
	span := func(lo, hi int) []detect.Violation {
		var tids []int
		for id := lo; id < hi; id++ {
			tids = append(tids, id)
		}
		return set(tids...)
	}

	var q violSeq
	checkSeq(t, q, nil, sigma)
	q = q.apply(set(10, 20), nil, sigma)
	checkSeq(t, q, set(10, 20), sigma)
	q = q.apply(nil, set(10, 20), sigma)
	checkSeq(t, q, nil, sigma)
	if len(q.leaves) != 0 {
		t.Fatalf("empty sequence kept %d leaves", len(q.leaves))
	}

	// 10 leaves of leafCap over even TIDs 0, 2, 4, ...
	base := make([]int, 10*leafCap)
	for i := range base {
		base[i] = 2 * i
	}
	q = newViolSeq(set(base...))
	checkSeq(t, q, set(base...), sigma)
	if len(q.leaves) != 10 {
		t.Fatalf("built %d leaves, want 10", len(q.leaves))
	}

	// Grow leaf 3 to 2·leafCap by the odd TIDs between its predecessor's
	// last and its own last: it splits, and no other leaf is copied.
	lo, hi := 3*leafCap*2, 4*leafCap*2 // leaf 3 holds lo, lo+2, ..., hi-2
	var grow []int
	for id := lo - 1; id < hi-2; id += 2 {
		grow = append(grow, id)
	}
	q2 := q.apply(set(grow...), nil, sigma)
	want := append(set(base...), set(grow...)...)
	sort.Slice(want, func(i, j int) bool { return detect.CompareViolations(want[i], want[j], sigma) < 0 })
	checkSeq(t, q2, want, sigma)
	if len(q2.leaves) != 11 {
		t.Fatalf("after the split: %d leaves, want 11", len(q2.leaves))
	}
	checkSeq(t, q, set(base...), sigma) // the predecessor is untouched
	for i := 0; i < 10; i++ {
		j := i
		if i > 3 {
			j = i + 1
		}
		if shared := q.leaves[i] == q2.leaves[j]; shared == (i == 3) {
			t.Fatalf("leaf %d shared=%v after an edit of leaf 3 only", i, shared)
		}
	}

	// Clear all of leaf 5 (in q): it is dropped.
	q3 := q.apply(nil, span(0, 0), sigma)
	if !reflect.DeepEqual(q3, q) {
		t.Fatal("an empty diff must return the sequence as is")
	}
	var leaf5 []int
	for _, v := range q.leaves[5].vs {
		leaf5 = append(leaf5, int(v.(cfd.Violation).T1))
	}
	q3 = q.apply(nil, set(leaf5...), sigma)
	if len(q3.leaves) != 9 || q3.leaves[5] != q.leaves[6] {
		t.Fatalf("emptied leaf not dropped: %d leaves", len(q3.leaves))
	}

	// Below the first and past the last violation: the end leaves take them.
	q4 := q.apply(set(-5, 10*leafCap*2+7), set(0, 2*(10*leafCap-1)), sigma)
	want = append(set(-5), set(base[1:len(base)-1]...)...)
	want = append(want, set(10*leafCap*2+7)...)
	checkSeq(t, q4, want, sigma)
	if q4.leaves[0] == q.leaves[0] || q4.leaves[9] == q.leaves[9] || q4.leaves[1] != q.leaves[1] {
		t.Fatal("edits of the end leaves copied the wrong leaves")
	}

	// Randomized: a reference set against a chain of applies.
	r := rand.New(rand.NewSource(7))
	held := map[int]bool{}
	q = violSeq{}
	for round := 0; round < 300; round++ {
		var g, c []int
		picked := map[int]bool{}
		for k := r.Intn(40); k > 0; k-- {
			id := r.Intn(4000)
			if picked[id] {
				continue
			}
			picked[id] = true
			if !held[id] {
				g = append(g, id)
			} else if r.Intn(3) > 0 { // bias towards growth, then churn
				c = append(c, id)
			}
		}
		if round%50 == 49 { // a mass clear that empties many leaves
			for id := range held {
				if !picked[id] && r.Intn(2) == 0 {
					c = append(c, id)
				}
			}
		}
		for _, id := range g {
			held[id] = true
		}
		for _, id := range c {
			delete(held, id)
		}
		sort.Ints(g)
		sort.Ints(c)
		prev, prevAll := q, q.all()
		q = q.apply(set(g...), set(c...), sigma)
		var ids []int
		for id := range held {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		checkSeq(t, q, set(ids...), sigma)
		if !reflect.DeepEqual(prev.all(), prevAll) {
			t.Fatalf("round %d: apply modified its receiver", round)
		}
	}
}

// countsFromScratch is Counts computed by walking the list, the way
// /stats counted before the per-rule counts rode the State.
func countsFromScratch(svc *Service, st *State) Counts {
	out := Counts{Seq: st.Seq, ByClass: map[string]int{}, ByRelation: map[string]int{}}
	perDep := map[any]int{}
	for _, v := range st.Violations() {
		out.Total++
		out.ByClass[detect.ClassOf(v).String()]++
		out.ByRelation[detect.RelationOf(v)]++
		perDep[detect.DepOf(v)]++
	}
	seen := map[any]bool{}
	for _, c := range svc.Constraints() {
		if seen[c.Dep()] {
			continue
		}
		seen[c.Dep()] = true
		out.ByConstraint = append(out.ByConstraint,
			ConstraintCount{Class: c.Class().String(), Rule: fmt.Sprint(c.Dep()), Count: perDep[c.Dep()]})
	}
	return out
}

// TestViolationsLeafOracle: after every commit of a randomized mixed
// CFD+CIND+eCFD stream over a list spanning dozens of leaves, GET
// /violations is byte-identical to encoding/json of the pre-leaf body
// and ?format=text to the text of a fresh DetectBatch on a shadow, and
// Counts equals a from-scratch count. Two services run the same
// stream: one read after every commit (memos always fresh), one only
// every fifth (memos of many commits back, mixed with new leaves).
// Each commit's SSE delta payload is held to encoding/json as well.
func TestViolationsLeafOracle(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(61, 2500)
	shadow := db.Clone()
	every := mustNew(t, Config{DB: db.Clone(), Constraints: cs})
	sparse := mustNew(t, Config{DB: db, Constraints: cs})
	he, hs := NewHandler(every), NewHandler(sparse)
	oracle := detect.New(2)
	if n := len(every.State().viols.leaves); n < 20 {
		t.Fatalf("fixture spans %d leaves, want at least 20", n)
	}

	check := func(svc *Service, h http.Handler, round int) {
		t.Helper()
		st := svc.State()
		want := oracle.DetectBatch(shadow, cs)
		if got, wantBody := get(t, h, "/violations"), oldViolationsBody(t, st.Seq, want); !bytes.Equal(got, wantBody) {
			t.Fatalf("round %d: JSON body diverges from encoding/json (%d vs %d bytes)", round, len(got), len(wantBody))
		}
		if got, wantText := string(get(t, h, "/violations?format=text")), ViolationsText(want); got != wantText {
			t.Fatalf("round %d: text body diverges from fresh DetectBatch", round)
		}
		if got, want := svc.Counts(), countsFromScratch(svc, st); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Counts %+v, from scratch %+v", round, got, want)
		}
	}

	sub := every.SubscribeBuf(128)
	defer sub.Close()

	r := rand.New(rand.NewSource(61))
	fresh := 0
	var firstTouched, lastTouched, grew, shrank bool
	for round := 0; round < 60; round++ {
		before := every.State().viols.leaves
		var batch []detect.DBOp
		if round == 30 {
			batch = emptyLeafBatch(t, before)
		} else {
			batch = make([]detect.DBOp, 1+r.Intn(12))
			dead := make(map[string]map[relation.TID]bool)
			for i := range batch {
				batch[i] = randomServeOp(r, shadow, &fresh, dead)
			}
		}
		for _, svc := range []*Service{every, sparse} {
			if _, err := svc.Submit(context.Background(), batch); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if err := applyShadow(shadow, batch); err != nil {
			t.Fatal(err)
		}
		after := every.State().viols.leaves
		firstTouched = firstTouched || after[0] != before[0]
		lastTouched = lastTouched || after[len(after)-1] != before[len(before)-1]
		grew = grew || len(after) > len(before)
		shrank = shrank || len(after) < len(before)

		// The SSE payload of the same commit, against the encoding/json
		// rendering of the pre-leaf delta struct.
		d := <-sub.Events()
		want := bytes.TrimSuffix(encodingJSON(t, struct {
			Seq     uint64             `json:"seq"`
			Gained  []oldViolationJSON `json:"gained"`
			Cleared []oldViolationJSON `json:"cleared"`
		}{d.Seq, oldWire(d.Gained), oldWire(d.Cleared)}), []byte("\n"))
		if got := he.deltaJSON(d); !bytes.Equal(got, want) {
			t.Fatalf("round %d: SSE delta %s, encoding/json %s", round, got, want)
		}

		check(every, he, round)
		if round%5 == 4 {
			check(sparse, hs, round)
		}
	}
	if !firstTouched || !lastTouched || !grew || !shrank {
		t.Fatalf("stream never exercised: first leaf %v, last leaf %v, split %v, leaf dropped %v",
			firstTouched, lastTouched, grew, shrank)
	}
}

// emptyLeafBatch deletes the source tuple of every violation of a leaf
// holding only CIND violations, between two such leaves: deleting a
// source tuple clears its CIND violations and cannot raise another, and
// CFD and eCFD violations sort into other leaves, so the leaf empties.
func emptyLeafBatch(t *testing.T, leaves []*leaf) []detect.DBOp {
	t.Helper()
	onlyCIND := func(l *leaf) bool {
		for _, v := range l.vs {
			if _, ok := v.(cind.Violation); !ok {
				return false
			}
		}
		return true
	}
	for i := 1; i+1 < len(leaves); i++ {
		if !onlyCIND(leaves[i-1]) || !onlyCIND(leaves[i]) || !onlyCIND(leaves[i+1]) {
			continue
		}
		var ops []detect.DBOp
		seen := map[relation.TID]bool{}
		for _, v := range leaves[i].vs {
			cv := v.(cind.Violation)
			if !seen[cv.TID] {
				seen[cv.TID] = true
				ops = append(ops, detect.DeleteFrom(detect.RelationOf(cv), cv.TID))
			}
		}
		return ops
	}
	t.Fatal("no CIND-only leaf to empty")
	return nil
}

// TestViolationsEmptyToNonEmpty: the bodies of an empty list
// ("violations":[] and an empty text) and the transitions into and
// out of it, through the same oracle.
func TestViolationsEmptyToNonEmpty(t *testing.T) {
	cs := serveSigma()
	db := relation.NewDatabase()
	db.Add(relation.NewInstance(paperdata.OrderSchema()))
	db.Add(relation.NewInstance(paperdata.BookSchema()))
	db.Add(relation.NewInstance(paperdata.CDSchema()))
	svc := mustNew(t, Config{DB: db, Constraints: cs})
	h := NewHandler(svc)

	expect := func(wantN int) {
		t.Helper()
		st := svc.State()
		if got := get(t, h, "/violations"); !bytes.Equal(got, oldViolationsBody(t, st.Seq, st.Violations())) {
			t.Fatalf("seq %d: JSON body %s", st.Seq, got)
		}
		if got := string(get(t, h, "/violations?format=text")); got != ViolationsText(st.Violations()) {
			t.Fatalf("seq %d: text body %q", st.Seq, got)
		}
		if st.NumViolations() != wantN {
			t.Fatalf("seq %d: %d violations, want %d", st.Seq, st.NumViolations(), wantN)
		}
	}
	expect(0)
	if got := string(get(t, h, "/violations")); !strings.Contains(got, `"violations":[]`) {
		t.Fatalf("empty body %s", got)
	}
	// An order of type book with no book to match: one CIND violation.
	res, err := svc.Submit(context.Background(), []detect.DBOp{detect.InsertInto("order", relation.Tuple{
		relation.Str("a1"), relation.Str("Lonely Title"), relation.Str("book"), relation.Float(9.99)})})
	if err != nil {
		t.Fatal(err)
	}
	expect(1)
	tid := svc.State().Violations()[0].(cind.Violation).TID
	if _, err := svc.Submit(context.Background(), []detect.DBOp{detect.DeleteFrom("order", tid)}); err != nil {
		t.Fatal(err)
	}
	expect(0)
	if res.Gained != 1 {
		t.Fatalf("insert gained %d, want 1", res.Gained)
	}
}

// TestConcurrentLeafReaders is meant for -race: readers stream both
// formats of GET /violations while the writer commits — racing each
// other to build the same leaves' memos — and then all read one fresh
// State at once, which must give every reader the same bytes.
func TestConcurrentLeafReaders(t *testing.T) {
	cs := serveSigma()
	db := ordersDB(67, 600)
	genDB := db.Clone()
	svc := mustNew(t, Config{DB: db, Constraints: cs})
	h := NewHandler(svc)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					var body struct {
						Total      int               `json:"total"`
						Violations []json.RawMessage `json:"violations"`
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/violations", nil))
					if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Total != len(body.Violations) {
						t.Errorf("reader %d: bad body (err %v, total %d, %d elements)", i, err, body.Total, len(body.Violations))
						return
					}
				} else {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/violations?format=text", nil))
					if !utf8.Valid(rec.Body.Bytes()) {
						t.Errorf("reader %d: text body not UTF-8", i)
						return
					}
				}
			}
		}(i)
	}
	r := rand.New(rand.NewSource(67))
	fresh := 0
	for round := 0; round < 40; round++ {
		batch := make([]detect.DBOp, 1+r.Intn(8))
		dead := make(map[string]map[relation.TID]bool)
		for i := range batch {
			batch[i] = randomServeOp(r, genDB, &fresh, dead)
		}
		if _, err := svc.Submit(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if err := applyShadow(genDB, batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// One commit whose leaves no reader has seen, then a simultaneous read.
	batch := []detect.DBOp{randomServeOp(r, genDB, &fresh, map[string]map[relation.TID]bool{})}
	if _, err := svc.Submit(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := applyShadow(genDB, batch); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 8)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/violations", nil))
			bodies[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()
	want := oldViolationsBody(t, svc.State().Seq, detect.New(2).DetectBatch(genDB, cs))
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("simultaneous reader %d got a different body", i)
		}
	}
}

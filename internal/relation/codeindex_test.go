package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomInstance builds a seeded instance with small value domains so
// that projections collide often and groups get large.
func randomInstance(n int, seed int64) *Instance {
	r := rand.New(rand.NewSource(seed))
	in := NewInstance(customerSchema())
	for i := 0; i < n; i++ {
		in.MustInsert(
			Int(int64(r.Intn(3))), Int(int64(r.Intn(4))), Int(int64(r.Intn(5))),
			Str(fmt.Sprintf("n%d", r.Intn(6))), Str(fmt.Sprintf("s%d", r.Intn(3))),
			Str(fmt.Sprintf("c%d", r.Intn(2))), Str(fmt.Sprintf("z%d", r.Intn(4))),
		)
	}
	// Sprinkle deletions so TIDs have gaps.
	for i := 0; i < n/10; i++ {
		in.Delete(TID(r.Intn(n)))
	}
	return in
}

// groupSets canonicalizes an index's groups as sorted "tid,tid,..."
// strings for order-insensitive comparison.
func indexGroupSets(ix *Index) []string {
	var out []string
	ix.Groups(1, func(_ string, ids []TID) {
		out = append(out, fmt.Sprint(ids))
	})
	sort.Strings(out)
	return out
}

func codeIndexGroupSets(cx *CodeIndex) []string {
	var out []string
	cx.Groups(1, func(rows []int32) {
		ids := make([]TID, len(rows))
		for i, r := range rows {
			ids[i] = cx.snap.TID(int(r))
		}
		out = append(out, fmt.Sprint(ids))
	})
	sort.Strings(out)
	return out
}

func TestCodeIndexMatchesIndex(t *testing.T) {
	posSets := [][]int{{0}, {0, 1}, {0, 6}, {5}, {2, 3, 4}, {0, 1, 2, 3, 4, 5, 6}}
	for _, n := range []int{0, 1, 10, 500} {
		in := randomInstance(n, int64(n)+1)
		snap := NewSnapshot(in)
		for _, pos := range posSets {
			t.Run(fmt.Sprintf("n=%d/pos=%v", n, pos), func(t *testing.T) {
				ix := BuildIndex(in, pos)
				cx := BuildCodeIndex(snap, pos)
				if ix.Len() != cx.Len() {
					t.Fatalf("CodeIndex has %d groups, Index has %d", cx.Len(), ix.Len())
				}
				want := indexGroupSets(ix)
				got := codeIndexGroupSets(cx)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("groups diverge:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestCodeIndexForcedCollisions drives every row into the same uint64
// bucket: the verification scan must still separate the groups exactly.
func TestCodeIndexForcedCollisions(t *testing.T) {
	in := randomInstance(300, 99)
	snap := NewSnapshot(in)
	for _, pos := range [][]int{{0, 1}, {5, 6}} {
		ix := BuildIndex(in, pos)
		cx := buildCodeIndex(snap, pos, func([]uint32) uint64 { return 42 })
		if ix.Len() != cx.Len() {
			t.Fatalf("pos %v: collided CodeIndex has %d groups, Index has %d", pos, cx.Len(), ix.Len())
		}
		if got, want := codeIndexGroupSets(cx), indexGroupSets(ix); !reflect.DeepEqual(got, want) {
			t.Fatalf("pos %v: collided groups diverge:\n got %v\nwant %v", pos, got, want)
		}
		// Lookup must also survive the all-collision bucket.
		for _, id := range in.IDs()[:20] {
			tup, _ := in.Tuple(id)
			if got, want := cx.Lookup(tup), ix.Lookup(tup); !reflect.DeepEqual(got, want) {
				t.Fatalf("pos %v: Lookup(t%d) = %v, want %v", pos, id, got, want)
			}
		}
	}
}

func TestCodeIndexLookup(t *testing.T) {
	in := figure1Instance()
	snap := NewSnapshot(in)
	cx := BuildCodeIndex(snap, []int{0, 1})
	ix := BuildIndex(in, []int{0, 1})
	for _, id := range in.IDs() {
		tup, _ := in.Tuple(id)
		if got, want := cx.Lookup(tup), ix.Lookup(tup); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(t%d) = %v, want %v", id, got, want)
		}
	}
	// A projection whose values never occur returns nil without hashing.
	ghost := Tuple{Int(999), Int(999), Int(0), Str(""), Str(""), Str(""), Str("")}
	if got := cx.Lookup(ghost); got != nil {
		t.Fatalf("Lookup(ghost) = %v, want nil", got)
	}
	// GroupOf / GroupOrdinal agree with the groups.
	for row := 0; row < snap.Len(); row++ {
		rows := cx.GroupOf(row)
		found := false
		for _, r := range rows {
			if int(r) == row {
				found = true
			}
		}
		if !found {
			t.Fatalf("GroupOf(%d) = %v does not contain the row", row, rows)
		}
	}
}

func TestCodeIndexGroupsWhileStops(t *testing.T) {
	in := randomInstance(100, 5)
	snap := NewSnapshot(in)
	cx := BuildCodeIndex(snap, []int{0})
	calls := 0
	cx.GroupsWhile(1, func([]int32) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("GroupsWhile visited %d groups after fn returned false, want 1", calls)
	}
}

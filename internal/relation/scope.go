package relation

// Scope is the set of snapshot rows one detection pass evaluates: every
// row, or the rows of a touched TID list. The class detectors run one
// body over either; single-tuple checks visit the scope's rows, pair
// checks the groups those rows reach.
type Scope struct {
	n       int     // row count of a full scope
	rows    []int32 // rows of a touched scope, in touched-list order
	touched bool
}

// FullScope is every row of snap (none for a nil snapshot).
func FullScope(snap *Snapshot) Scope {
	if snap == nil {
		return Scope{}
	}
	return Scope{n: snap.Len()}
}

// TouchedScope is the rows of the touched TIDs present in snap, resolved
// once. TIDs missing from the snapshot (deleted, or inserted after it
// was built) are skipped.
func TouchedScope(snap *Snapshot, touched []TID) Scope {
	sc := Scope{touched: true}
	if snap == nil {
		return sc
	}
	sc.rows = make([]int32, 0, len(touched))
	for _, id := range touched {
		if r, ok := snap.Row(id); ok {
			sc.rows = append(sc.rows, int32(r))
		}
	}
	return sc
}

// Len returns the number of rows in the scope.
func (sc Scope) Len() int {
	if sc.touched {
		return len(sc.rows)
	}
	return sc.n
}

// Row returns the i-th row of the scope, 0 <= i < Len().
func (sc Scope) Row(i int) int {
	if sc.touched {
		return int(sc.rows[i])
	}
	return i
}

// GroupsWhile invokes fn for every group of cx with at least minSize
// members that the scope reaches — all of them for a full scope (in
// cx's order), the distinct groups of the touched rows otherwise — and
// stops as soon as fn returns false. A nil cx groups nothing: each row
// of the scope is its own group, in scope order.
func (sc Scope) GroupsWhile(cx *CodeIndex, minSize int, fn func(rows []int32) bool) {
	if cx == nil {
		one := make([]int32, 1)
		for i := 0; i < sc.Len() && minSize <= 1; i++ {
			one[0] = int32(sc.Row(i))
			if !fn(one) {
				return
			}
		}
		return
	}
	if !sc.touched {
		cx.GroupsWhile(minSize, fn)
		return
	}
	var seen map[int32]bool
	for _, r := range sc.rows {
		gi := cx.GroupOrdinal(int(r))
		if seen[gi] {
			continue
		}
		if seen == nil {
			seen = make(map[int32]bool, len(sc.rows))
		}
		seen[gi] = true
		if rows := cx.GroupOf(int(r)); len(rows) >= minSize && !fn(rows) {
			return
		}
	}
}

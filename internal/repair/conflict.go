package repair

import (
	"sort"

	"repro/internal/cfd"
	"repro/internal/denial"
	"repro/internal/relation"
)

// detectOn runs one columnar CFD kernel of package cfd for every CFD of
// sigma on one frozen snapshot, possibly not its instance's latest, and
// merges the violations in cfd.DetectAll's order. Each CFD reads the
// snapshot's cached index on its LHS, so CFDs sharing an LHS share one
// build, and so do later calls on the same snapshot.
func detectOn(snap *relation.Snapshot, sigma []*cfd.CFD,
	kernel func(*relation.Snapshot, *cfd.CFD, *relation.CodeIndex) []cfd.Violation) []cfd.Violation {
	var out []cfd.Violation
	for _, c := range sigma {
		out = append(out, kernel(snap, c, snap.CodeIndexOn(c.LHS()))...)
	}
	cfd.SortViolations(out)
	return out
}

// satisfiesOn reports whether the snapshot satisfies every CFD of sigma,
// stopping at the first violation, on the same cached indexes as
// detectOn.
func satisfiesOn(snap *relation.Snapshot, sigma []*cfd.CFD) bool {
	for _, c := range sigma {
		if !cfd.SatisfiesWithSnapshot(snap, c, snap.CodeIndexOn(c.LHS())) {
			return false
		}
	}
	return true
}

// Conflict hypergraph machinery for X-repairs of denial constraints:
// vertices are tuples, hyperedges the conflicts (matches of a forbidden
// pattern). An X-repair is a maximal subset of tuples hitting no
// hyperedge, i.e. a maximal independent set. For the single key of
// Example 5.1 the hypergraph is n disjoint 2-cliques, giving exactly 2^n
// repairs.

// Hypergraph is the conflict hypergraph of a database w.r.t. a set of
// denial constraints.
type Hypergraph struct {
	Vertices []denial.TupleRef
	Edges    [][]int // vertex indexes per conflict
	index    map[denial.TupleRef]int
}

// BuildHypergraph detects all conflicts and assembles the hypergraph.
func BuildHypergraph(db *relation.Database, dcs []denial.DC) (*Hypergraph, error) {
	conflicts, err := denial.DetectAll(db, dcs, 0)
	if err != nil {
		return nil, err
	}
	h := &Hypergraph{index: make(map[denial.TupleRef]int)}
	// Vertices: every tuple of every relation, so that maximality is
	// judged against the whole database.
	for _, name := range db.Names() {
		in, _ := db.Instance(name)
		for _, id := range in.IDs() {
			ref := denial.TupleRef{Rel: name, TID: id}
			h.index[ref] = len(h.Vertices)
			h.Vertices = append(h.Vertices, ref)
		}
	}
	for _, c := range conflicts {
		edge := make([]int, 0, len(c.Tuples))
		for _, ref := range c.Tuples {
			edge = append(edge, h.index[ref])
		}
		sort.Ints(edge)
		h.Edges = append(h.Edges, edge)
	}
	return h, nil
}

// BuildCFDHypergraph assembles the conflict hypergraph of a single
// instance w.r.t. a set of CFDs over the instance's current snapshot
// (relation.SnapshotOf — cached, and caught up via the changelog after
// mutations rather than re-frozen). Callers that already hold a
// snapshot (e.g. a detect.ShardedDBMonitor's shard snapshot) should
// use BuildCFDHypergraphOn with it.
func BuildCFDHypergraph(in *relation.Instance, sigma []*cfd.CFD) *Hypergraph {
	return BuildCFDHypergraphOn(relation.SnapshotOf(in), sigma)
}

// BuildCFDHypergraphOn assembles the conflict hypergraph of a frozen
// snapshot w.r.t. a set of CFDs, gathering the violations through the
// columnar CFD kernels: vertices are the snapshot's tuples and
// every violation contributes a hyperedge — {t} for a single-tuple
// constant clash, {t1, t2} for a pair violation (deduplicated across
// RHS attributes and pattern rows, which add no new conflicts between
// the same tuples). Gathering uses the kernels' exhaustive pair mode,
// so conflicts between non-representative group members are present and
// every enumerated X-repair really satisfies Σ. Detection shares the
// snapshot's cached group indexes, so iterating repair loops that keep
// the snapshot warm (e.g. through a detect.ShardedDBMonitor) pay only
// for the violation scan.
func BuildCFDHypergraphOn(snap *relation.Snapshot, sigma []*cfd.CFD) *Hypergraph {
	name := snap.Schema().Name()
	h := &Hypergraph{index: make(map[denial.TupleRef]int)}
	for row := 0; row < snap.Len(); row++ {
		ref := denial.TupleRef{Rel: name, TID: snap.TID(row)}
		h.index[ref] = len(h.Vertices)
		h.Vertices = append(h.Vertices, ref)
	}
	seen := make(map[[2]int]bool)
	for _, v := range detectOn(snap, sigma, cfd.DetectExhaustiveWithSnapshot) {
		a := h.index[denial.TupleRef{Rel: name, TID: v.T1}]
		b := h.index[denial.TupleRef{Rel: name, TID: v.T2}]
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		if a == b {
			h.Edges = append(h.Edges, []int{a})
			continue
		}
		h.Edges = append(h.Edges, []int{a, b})
	}
	return h
}

// EnumerateXRepairs enumerates all X-repairs (maximal independent vertex
// sets) as sets of kept tuples, up to limit (0 = unlimited). The
// branching is the textbook one: pick an uncovered edge, branch on
// deleting each of its vertices; leaves are deduplicated and tested for
// maximality.
func (h *Hypergraph) EnumerateXRepairs(limit int) [][]denial.TupleRef {
	var out [][]denial.TupleRef
	seen := make(map[string]bool)
	deleted := make([]bool, len(h.Vertices))

	var keyOf func() string
	keyOf = func() string {
		b := make([]byte, len(deleted))
		for i, d := range deleted {
			if d {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}

	edgeAlive := func(edge []int) bool {
		for _, v := range edge {
			if deleted[v] {
				return false
			}
		}
		return true
	}
	firstAlive := func() []int {
		for _, e := range h.Edges {
			if edgeAlive(e) {
				return e
			}
		}
		return nil
	}
	// isMaximal: no deleted vertex can be restored without reviving an
	// edge.
	isMaximal := func() bool {
		for v, d := range deleted {
			if !d {
				continue
			}
			deleted[v] = false
			revives := firstAlive() != nil
			deleted[v] = true
			if !revives {
				return false
			}
		}
		return true
	}

	var rec func()
	rec = func() {
		if limit > 0 && len(out) >= limit {
			return
		}
		edge := firstAlive()
		if edge == nil {
			if !isMaximal() {
				return
			}
			k := keyOf()
			if seen[k] {
				return
			}
			seen[k] = true
			var kept []denial.TupleRef
			for i, ref := range h.Vertices {
				if !deleted[i] {
					kept = append(kept, ref)
				}
			}
			out = append(out, kept)
			return
		}
		for _, v := range edge {
			if deleted[v] {
				continue
			}
			deleted[v] = true
			rec()
			deleted[v] = false
			if limit > 0 && len(out) >= limit {
				return
			}
		}
	}
	rec()
	return out
}

// CountXRepairs counts the X-repairs without materializing them when the
// limit allows; it simply enumerates with the given cap (0 = all) and
// returns the count.
func (h *Hypergraph) CountXRepairs(limit int) int {
	return len(h.EnumerateXRepairs(limit))
}

// GreedyXRepair deletes tuples greedily (highest conflict degree first)
// until no conflict remains, then restores any deletion that stays
// conflict-free — yielding a maximal consistent subset (an X-repair; not
// necessarily a maximum one, which is NP-hard). It returns the deleted
// tuple refs.
func GreedyXRepair(db *relation.Database, dcs []denial.DC) ([]denial.TupleRef, error) {
	work := db.Clone()
	var removed []denial.TupleRef
	for {
		conflicts, err := denial.DetectAll(work, dcs, 0)
		if err != nil {
			return nil, err
		}
		if len(conflicts) == 0 {
			break
		}
		degree := make(map[denial.TupleRef]int)
		for _, c := range conflicts {
			for _, ref := range c.Tuples {
				degree[ref]++
			}
		}
		var victim denial.TupleRef
		best := -1
		for ref, d := range degree {
			if d > best || (d == best && (ref.Rel < victim.Rel || (ref.Rel == victim.Rel && ref.TID < victim.TID))) {
				best = d
				victim = ref
			}
		}
		work.MustInstance(victim.Rel).Delete(victim.TID)
		removed = append(removed, victim)
	}
	// Restore pass for maximality.
	restored := true
	for restored {
		restored = false
		for i, ref := range removed {
			orig, _ := db.MustInstance(ref.Rel).Tuple(ref.TID)
			trial := work.Clone()
			if _, err := trial.MustInstance(ref.Rel).Insert(orig); err != nil {
				continue
			}
			if denial.SatisfiesAll(trial, dcs) {
				in := work.MustInstance(ref.Rel)
				if _, err := in.Insert(orig); err == nil {
					removed = append(removed[:i], removed[i+1:]...)
					restored = true
					break
				}
			}
		}
	}
	return removed, nil
}

// ApplyDeletions returns a copy of db with the listed tuples removed.
func ApplyDeletions(db *relation.Database, refs []denial.TupleRef) *relation.Database {
	out := db.Clone()
	for _, ref := range refs {
		out.MustInstance(ref.Rel).Delete(ref.TID)
	}
	return out
}

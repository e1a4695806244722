package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/relation"
)

// dataset is one generated database: the in-memory original (the
// oracle and the in-process replay clone it) and its CSV files (what
// the program under test loads).
type dataset struct {
	db     *relation.Database
	files  map[string]string // relation -> CSV path
	mutRel string            // the relation the traffic mutates
	tuples int               // across all relations
}

// makeDataset generates the named dataset from the seed and writes one
// CSV per relation under dir.
func makeDataset(kind string, n int, errRate float64, seed int64, dir string) (*dataset, error) {
	db := relation.NewDatabase()
	ds := &dataset{db: db, files: map[string]string{}}
	switch kind {
	case "customers":
		db.Add(gen.Customers(gen.CustomerConfig{N: n, Seed: seed, ErrorRate: errRate}))
		ds.mutRel = "customer"
	case "orders":
		// dqgen's proportions: a quarter as many books and CDs as orders.
		db = gen.Orders(gen.OrdersConfig{Books: n / 4, CDs: n / 4, Orders: n, Seed: seed, ViolationRate: errRate})
		ds.db = db
		ds.mutRel = "order"
	default:
		return nil, fmt.Errorf("unknown dataset %q", kind)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, name := range db.Names() {
		in := db.MustInstance(name)
		ds.tuples += in.Len()
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := relation.WriteCSV(f, in); err != nil {
			f.Close()
			return nil, fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		ds.files[name] = path
	}
	return ds, nil
}

// op is one mutation in the driver's own terms; wire() renders it in
// the op-log format POST /batch reads, and toDBOp (oracle.go) turns it
// into the library's type for the shadow database and the replay.
type op struct {
	kind  byte // 'i', 'u' or 'd'
	rel   string
	tid   int64
	attr  string
	val   string
	tuple []string
}

func (o op) wire(b *strings.Builder) {
	switch o.kind {
	case 'i':
		b.WriteString("insert ")
		b.WriteString(o.rel)
		b.WriteByte(' ')
		for i, cell := range o.tuple {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(cell)
		}
	case 'u':
		b.WriteString("update ")
		b.WriteString(o.rel)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(o.tid, 10))
		b.WriteByte(' ')
		b.WriteString(o.attr)
		b.WriteByte('=')
		b.WriteString(o.val)
	case 'd':
		b.WriteString("delete ")
		b.WriteString(o.rel)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(o.tid, 10))
	}
	b.WriteByte('\n')
}

// Commit kinds, for the per-kind latency split.
const (
	kindUpdate = "update"
	kindInsert = "insert"
	kindDelete = "delete"
	kindMixed  = "mixed"
)

type commit struct {
	kind string
	ops  []op
}

func (c commit) body() string {
	var b strings.Builder
	for _, o := range c.ops {
		o.wire(&b)
	}
	b.WriteString("commit\n")
	return b.String()
}

// Streams. The structural stream owns every insert and delete, so the
// TIDs the server assigns are a function of the plan alone; each update
// stripe owns a disjoint quarter of the hot set. Every stream has at
// most one request in flight, so the final database does not depend on
// how the streams interleave and the oracle can check it.
const (
	streamStructural = 0
	updateStripes    = 4 // streams 1..4
	streamViolations = 5
	streamCheck      = 6
	streamStats      = 7
	streamMetrics    = 8
	numStreams       = 9
)

// planner turns the seed into the commit sequence. It is consumed
// strictly in order: warm-up, then each phase.
type planner struct {
	r    *rand.Rand
	s    spec
	rel  string
	seed *relation.Instance // the generated relation, read-only

	lo        int // TIDs below are never touched (reservedTIDs)
	hot       [updateStripes][]int64
	victims   []int64 // delete order: a permutation of untouched seed TIDs, then own inserts
	nextTID   int64   // what the server will assign to the next insert
	fresh     int     // makes inserted keys unique
	structN   int     // structural commits so far; alternates insert/delete
	stripeN   int     // update commits so far; round-robin over stripes
	updateAcc float64 // error-diffusion accumulator that places the update commits
	attrN     int     // update ops so far; round-robin over the update attributes
	attrs     []updAttr
	issued    []commit // every commit handed out, in plan order, for the oracle
	freshAttr int      // position of the attribute made unique on insert
}

type updAttr struct {
	name string
	vals []string
}

func newPlanner(s spec, ds *dataset, seed int64) *planner {
	in := ds.db.MustInstance(ds.mutRel)
	n := in.Len()
	p := &planner{
		r: rand.New(rand.NewSource(seed ^ 0x5eed)), s: s, rel: ds.mutRel, seed: in,
		nextTID: int64(n),
	}
	switch s.dataset {
	case "customers":
		// City and street values are the rule-pattern constants plus one
		// foreign value each, so updates both raise and clear violations
		// and the violation set is stationary once every hot tuple has
		// been written.
		p.attrs = []updAttr{
			{"city", []string{"EDI", "MH", "NYC", "LDN"}},
			{"street", []string{"Mayfield Rd", "Crichton St", "Mtn Ave", "High St"}},
		}
		p.freshAttr = 2 // phn
	case "orders":
		p.attrs = []updAttr{
			{"type", []string{"book", "CD", "DVD"}},
			{"price", []string{"7.99", "17.99", "1.99", "9.94"}},
		}
		p.freshAttr = 0 // asin
	}
	lo := reservedTIDs
	if lo > n/2 {
		lo = n / 2 // miniature datasets of the smoke test
	}
	p.lo = lo
	perm := p.r.Perm(n - lo)
	hot := hotSetSize
	if hot > len(perm)/2 {
		hot = len(perm) / 2
	}
	for i, x := range perm[:hot] {
		p.hot[i%updateStripes] = append(p.hot[i%updateStripes], int64(x+lo))
	}
	for _, x := range perm[hot:] {
		p.victims = append(p.victims, int64(x+lo))
	}
	return p
}

func (p *planner) hand(c commit) commit {
	p.issued = append(p.issued, c)
	return c
}

// warmCommits writes both update attributes of every hot tuple, 256
// ops a commit, one stripe per commit.
func (p *planner) warmCommits() (streams []int, commits []commit) {
	for k := range p.hot {
		var ops []op
		flush := func() {
			if len(ops) > 0 {
				streams = append(streams, 1+k)
				commits = append(commits, p.hand(commit{kindUpdate, ops}))
				ops = nil
			}
		}
		for _, tid := range p.hot[k] {
			for _, a := range p.attrs {
				ops = append(ops, op{kind: 'u', rel: p.rel, tid: tid, attr: a.name, val: a.vals[p.r.Intn(len(a.vals))]})
			}
			if len(ops) >= 256 {
				flush()
			}
		}
		flush()
	}
	return streams, commits
}

func (p *planner) update(stripe, n int) commit {
	ops := make([]op, n)
	for i := range ops {
		a := p.attrs[p.attrN%len(p.attrs)]
		p.attrN++
		ops[i] = op{kind: 'u', rel: p.rel, tid: p.hot[stripe][p.r.Intn(len(p.hot[stripe]))],
			attr: a.name, val: a.vals[p.r.Intn(len(a.vals))]}
	}
	return commit{kindUpdate, ops}
}

// insertOp clones a random seed tuple under a fresh key, so inserted
// tuples follow the data's own value distribution (and error rate).
func (p *planner) insertOp() op {
	t, _ := p.seed.Tuple(relation.TID(p.lo + p.r.Intn(p.seed.Len()-p.lo)))
	cells := make([]string, len(t))
	for i, v := range t {
		cells[i] = v.String()
	}
	p.fresh++
	if p.s.dataset == "customers" {
		cells[p.freshAttr] = strconv.Itoa(10_000_000 + p.fresh) // above the generator's phone range
	} else {
		cells[p.freshAttr] = fmt.Sprintf("z%07d", p.fresh)
	}
	p.victims = append(p.victims, p.nextTID)
	p.nextTID++
	return op{kind: 'i', rel: p.rel, tuple: cells}
}

func (p *planner) deleteOp() op {
	tid := p.victims[0]
	p.victims = p.victims[1:]
	return op{kind: 'd', rel: p.rel, tid: tid}
}

// next returns the next commit of the traffic mix and the stream that
// must carry it. The order of commit kinds and of update attributes is
// a fixed interleaving with the spec's shares, the same for every seed:
// the seed picks tuples and values, not how much of each kind of work a
// phase holds, so that runs on different seeds measure the same mix.
func (p *planner) next() (stream int, c commit) {
	n := p.s.opsPerCommit
	p.updateAcc += p.s.updateShare
	if p.updateAcc >= 1 {
		p.updateAcc--
		stripe := p.stripeN % updateStripes
		p.stripeN++
		return 1 + stripe, p.hand(p.update(stripe, n))
	}
	p.structN++
	ops := make([]op, 0, n)
	switch {
	case p.s.mixedStructural:
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				ops = append(ops, p.insertOp())
			} else {
				ops = append(ops, p.deleteOp())
			}
		}
		return streamStructural, p.hand(commit{kindMixed, ops})
	case p.structN%2 == 1:
		for i := 0; i < n; i++ {
			ops = append(ops, p.insertOp())
		}
		return streamStructural, p.hand(commit{kindInsert, ops})
	default:
		for i := 0; i < n; i++ {
			ops = append(ops, p.deleteOp())
		}
		return streamStructural, p.hand(commit{kindDelete, ops})
	}
}

// request is one scheduled call. due is its offset from the phase
// start; latency is timed from there.
type request struct {
	stream int
	due    time.Duration
	commit commit // for commit streams
	traced bool   // record client spans for this request
}

// schedule lays one open-loop phase out: commits at a fixed rate, each
// on the stream the planner names, and the read streams at theirs.
func (p *planner) schedule(rate float64, dur time.Duration) [numStreams][]request {
	var out [numStreams][]request
	if rate > 0 {
		step := time.Duration(float64(time.Second) / rate)
		for at := time.Duration(0); at < dur; at += step {
			stream, c := p.next()
			out[stream] = append(out[stream], request{stream: stream, due: at, commit: c})
		}
	}
	reads := []struct {
		stream int
		rate   float64
	}{
		{streamViolations, p.s.violationsRate}, {streamCheck, p.s.checkRate},
		{streamStats, p.s.statsRate}, {streamMetrics, p.s.metricsRate},
	}
	for _, rd := range reads {
		if rd.rate <= 0 {
			continue
		}
		step := time.Duration(float64(time.Second) / rd.rate)
		// Reads start half a step in, so they do not all share an
		// instant with a commit.
		for at := step / 2; at < dur; at += step {
			out[rd.stream] = append(out[rd.stream], request{stream: rd.stream, due: at})
		}
	}
	return out
}

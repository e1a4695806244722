// Command dqdetect loads CSV relations and rule files — CFDs, CINDs and
// eCFDs — and reports every violation: the Section 2 use of conditional
// dependencies, "catch inconsistencies and errors that emerge as
// violations of the dependencies", over the whole dependency family.
//
// Usage:
//
//	dqdetect -data customer=customer.csv -cfds rules.cfd [-max 20] [-workers 8]
//	dqdetect -data order=order.csv -data book=book.csv -cinds rules.cind -ecfds rules.ecfd
//	dqdetect -data customer=customer.csv -cfds rules.cfd -follow updates.log
//
// Detection runs on the internal/detect engine: the whole database is
// frozen once into a columnar DBSnapshot, rules of every class share
// group indexes by (relation, position set), and per-rule work fans out
// across a worker pool (-workers, default one per CPU).
// -rules is an alias of -cfds, kept for compatibility.
//
// -follow switches from one-shot batch detection to monitoring: after
// the initial report, the update log is replayed batch by batch through
// one stateful detect.ShardedDBMonitor (one shard unless -shards says
// otherwise) over the whole database, printing the
// violations each batch gained and cleared — steady-state cost
// proportional to the touched groups, not the instances. A batch may
// mix relations (a CIND's source and target in one commit); the log is
// line-oriented:
//
//	insert customer 44,131,1234567,Mike,Mayfield,NYC,EH4 8LE
//	update customer 3 city=EDI
//	delete customer 7
//	commit
//
// Comments (#) and blank lines are skipped; "commit" applies the batch
// accumulated so far (EOF commits the tail implicitly); values parse
// like the relation's CSV cells.
//
// -shards N hash-partitions the database across N shards and runs the
// scatter-gather engine paths — DetectBatchSharded one-shot, the
// -follow monitor over N shards — producing byte-identical reports.
// The partition key per relation is derived from the rules (the
// attributes every CFD/eCFD LHS on that relation shares) or pinned
// with repeatable -shard-key rel=attr1,attr2 flags.
//
// -checkpoint DIR loads the database from a dqserve checkpoint
// directory instead of -data CSVs: the manifest supplies the schemas,
// the columnar files the tuples, so offline audits run over exactly
// the state the service checkpointed.
//
// Rule files use the class text formats:
//
//	cfd customer: [CC, zip] -> [street]
//	  44, _ || _
//
//	cind order[title, price; type] <= book[title, price; format]
//	  book ||
//
//	ecfd customer: [city] -> [AC]
//	  notin{NYC,LI} || _
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/oplog"
	"repro/internal/relation"
)

// dataFlags collects repeated -data rel=path flags.
type dataFlags map[string]string

func (d dataFlags) String() string { return fmt.Sprint(map[string]string(d)) }

func (d dataFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want rel=path, got %q", v)
	}
	d[name] = path
	return nil
}

// shardKeyFlags collects repeated -shard-key rel=attr1,attr2 flags.
type shardKeyFlags map[string][]string

func (s shardKeyFlags) String() string { return fmt.Sprint(map[string][]string(s)) }

func (s shardKeyFlags) Set(v string) error {
	name, attrs, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want rel=attr1,attr2, got %q", v)
	}
	s[name] = strings.Split(attrs, ",")
	return nil
}

// resolveShardKeys maps -shard-key attribute names to schema positions.
func resolveShardKeys(keys shardKeyFlags, schemas map[string]*relation.Schema) map[string][]int {
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string][]int, len(keys))
	for rel, attrs := range keys {
		sch, ok := schemas[rel]
		if !ok {
			log.Fatalf("-shard-key %s: no such relation", rel)
		}
		pos := make([]int, 0, len(attrs))
		for _, a := range attrs {
			p, ok := sch.Lookup(strings.TrimSpace(a))
			if !ok {
				log.Fatalf("-shard-key %s: no attribute %q", rel, a)
			}
			pos = append(pos, p)
		}
		out[rel] = pos
	}
	return out
}

func main() {
	data := dataFlags{}
	flag.Var(data, "data", "relation=path.csv (repeatable)")
	checkpoint := flag.String("checkpoint", "", "load the database from a dqserve checkpoint directory instead of -data CSVs")
	cfdsPath := flag.String("cfds", "", "CFD rule file")
	rulesPath := flag.String("rules", "", "alias of -cfds")
	cindsPath := flag.String("cinds", "", "CIND rule file")
	ecfdsPath := flag.String("ecfds", "", "eCFD rule file")
	max := flag.Int("max", 0, "max violations to print per rule (0 = all)")
	workers := flag.Int("workers", 0, "detection worker pool size (0 = one per CPU)")
	follow := flag.String("follow", "", "replay an update log through a stateful monitor after the initial report")
	shards := flag.Int("shards", 1, "hash-partition the database across N shards (scatter-gather detection)")
	shardKeys := shardKeyFlags{}
	flag.Var(shardKeys, "shard-key", "relation=attr1,attr2 partition key (repeatable; default: derived from the rules)")
	flag.Parse()
	if *cfdsPath == "" {
		*cfdsPath = *rulesPath
	}
	if (len(data) == 0 && *checkpoint == "") || (*cfdsPath == "" && *cindsPath == "" && *ecfdsPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	if len(data) > 0 && *checkpoint != "" {
		log.Fatal("-data and -checkpoint are mutually exclusive: the checkpoint carries the full database")
	}

	db := relation.NewDatabase()
	schemas := make(map[string]*relation.Schema)
	if *checkpoint != "" {
		// Schemas come out of the checkpoint manifest; rules are then
		// parsed against the recovered schemas exactly as against CSVs.
		loaded, info, err := relation.LoadCheckpoint(*checkpoint, nil)
		if err != nil {
			log.Fatal(err)
		}
		db = loaded
		for _, name := range db.Names() {
			in := db.MustInstance(name)
			schemas[name] = in.Schema()
			fmt.Printf("loaded %s: %d tuples\n", name, in.Len())
		}
		fmt.Printf("checkpoint covers commit seq %d\n", info.Seq)
	}
	// Load in sorted relation order, so the report does not depend on
	// map iteration.
	for _, name := range slices.Sorted(maps.Keys(data)) {
		path := data[name]
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		in, err := relation.ReadCSV(f, name)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		db.Add(in)
		schemas[name] = in.Schema()
		fmt.Printf("loaded %s: %d tuples\n", name, in.Len())
	}

	// Assemble the mixed batch Σ: CFDs, then CINDs, then eCFDs, each in
	// file order.
	var rules []detect.Constraint
	if *cfdsPath != "" {
		cfds := parseRules(*cfdsPath, schemas, cfd.Parse)
		fmt.Printf("loaded %d CFDs\n", len(cfds))
		if ok, _ := cfd.Consistent(cfds); !ok {
			log.Fatal("the CFD set is inconsistent: no nonempty instance can satisfy it (fix the rules first)")
		}
		rules = append(rules, detect.WrapCFDs(cfds)...)
	}
	if *cindsPath != "" {
		cinds := parseRules(*cindsPath, schemas, cind.Parse)
		fmt.Printf("loaded %d CINDs\n", len(cinds))
		rules = append(rules, detect.WrapCINDs(cinds)...)
	}
	if *ecfdsPath != "" {
		ecfds := parseRules(*ecfdsPath, schemas, ecfd.Parse)
		fmt.Printf("loaded %d eCFDs\n", len(ecfds))
		rules = append(rules, detect.WrapECFDs(ecfds)...)
	}

	// One detection pass for the whole mixed batch: every rule reads the
	// same DBSnapshot, rules sharing a (relation, position set) share one
	// group index, and the stream delivers each rule's violations as one
	// contiguous run in Σ order, so per-rule reports fall out without a
	// global re-sort. In -follow mode the monitor is seeded first and the
	// initial report reads its violation set, so the full detection is
	// paid exactly once.
	engine := detect.New(*workers)

	// -shards hash-partitions the database up front; detection and the
	// -follow monitor then run the scatter-gather paths, byte-identical
	// to the single-partition engine. The -follow monitor runs at one
	// shard too: Partition adopts the database then, copying nothing.
	if *shards < 1 {
		log.Fatal("-shards must be at least 1")
	}
	perDep := make(map[any][]detect.Violation)
	var monitor *detect.ShardedDBMonitor
	if *follow != "" || *shards > 1 {
		p := relation.NewPartitioner(*shards)
		if *shards > 1 {
			keys := resolveShardKeys(shardKeys, schemas)
			if keys == nil {
				derived, err := detect.DeriveShardKeys(rules)
				if err != nil {
					log.Fatal(err)
				}
				keys = derived
			}
			for rel, pos := range keys {
				p.SetKey(rel, pos)
			}
		}
		sdb, err := relation.Partition(db, p)
		if err != nil {
			log.Fatal(err)
		}
		if *shards > 1 {
			fmt.Printf("partitioned into %d shards\n", *shards)
		}
		var vs []detect.Violation
		if *follow == "" {
			vs, err = engine.DetectBatchSharded(sdb, rules)
		} else if monitor, err = detect.NewShardedDBMonitor(engine, sdb, rules); err == nil {
			vs = monitor.Violations()
		}
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range vs {
			perDep[depOf(v)] = append(perDep[depOf(v)], v)
		}
		// Match the one-shard batch report: each rule's run in per-rule
		// detect order, as the stream delivers it.
		for _, vs := range perDep {
			sortDetectOrder(vs)
		}
	} else {
		engine.DetectBatchStream(db, rules, func(v detect.Violation) {
			perDep[depOf(v)] = append(perDep[depOf(v)], v)
		})
	}
	total := 0
	for _, c := range rules {
		vs := perDep[c.Dep()]
		total += len(vs)
		if len(vs) > 0 {
			fmt.Printf("\n%v\n", c.Dep())
			for i, v := range vs {
				if *max > 0 && i >= *max {
					fmt.Printf("  ... and %d more\n", len(vs)-i)
					break
				}
				fmt.Printf("  %v\n", v)
			}
		}
	}
	fmt.Printf("\ntotal violations: %d\n", total)

	if *follow != "" {
		outstanding, err := followLog(*follow, monitor, schemas, *max)
		if err != nil {
			log.Fatal(err)
		}
		if outstanding > 0 {
			os.Exit(1)
		}
		return
	}
	if total > 0 {
		os.Exit(1)
	}
}

// parseRules opens and parses one rule file with the class parser.
func parseRules[T any](path string, schemas map[string]*relation.Schema,
	parse func(r io.Reader, schemas map[string]*relation.Schema) ([]T, error)) []T {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rules, err := parse(f, schemas)
	if err != nil {
		log.Fatal(err)
	}
	return rules
}

// depOf returns the dependency a violation is attributed to.
func depOf(v detect.Violation) any {
	switch v := v.(type) {
	case cfd.Violation:
		return v.CFD
	case cind.Violation:
		return v.CIND
	case ecfd.Violation:
		return v.ECFD
	}
	return nil
}

// sortDetectOrder sorts one rule's violations into its class's per-rule
// detect order — (Row, T1, T2, Attr), with a CIND's TID standing in for
// T1 — the order the engine stream delivers contiguous runs in.
func sortDetectOrder(vs []detect.Violation) {
	key := func(v detect.Violation) (int, relation.TID, relation.TID, int) {
		switch v := v.(type) {
		case cfd.Violation:
			return v.Row, v.T1, v.T2, v.Attr
		case cind.Violation:
			return v.Row, v.TID, 0, 0
		case ecfd.Violation:
			return v.Row, v.T1, v.T2, v.Attr
		}
		return 0, 0, 0, 0
	}
	sort.Slice(vs, func(i, j int) bool {
		r1, a1, b1, p1 := key(vs[i])
		r2, a2, b2, p2 := key(vs[j])
		if r1 != r2 {
			return r1 < r2
		}
		if a1 != a2 {
			return a1 < a2
		}
		if b1 != b2 {
			return b1 < b2
		}
		return p1 < p2
	})
}

// followLog replays the update log through the pre-seeded database
// monitor — each commit is one multi-relation batch, decoded by
// internal/oplog (the wire format cmd/dqserve's POST /batch shares) —
// printing each batch's gained/cleared diff, and returns the number of
// violations outstanding at EOF.
func followLog(path string, m *detect.ShardedDBMonitor, schemas map[string]*relation.Schema, max int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	rd := oplog.NewReader(f, schemas)
	batchNo := 0
	for {
		batch, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			var se *oplog.SyntaxError
			if errors.As(err, &se) {
				return 0, fmt.Errorf("%s:%d: %v", path, se.Line, se.Err)
			}
			return 0, err
		}
		batchNo++
		gained, cleared, err := m.Apply(batch)
		if err != nil {
			return 0, fmt.Errorf("batch %d: %v", batchNo, err)
		}
		rels := make(map[string]bool)
		for _, op := range batch {
			rels[op.Rel] = true
		}
		names := make([]string, 0, len(rels))
		for name := range rels {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("batch %d: %s: %d op(s), +%d violation(s), -%d cleared, %d outstanding\n",
			batchNo, strings.Join(names, ","), len(batch), len(gained), len(cleared), m.Len())
		printSome := func(label string, vs []detect.Violation) {
			for i, v := range vs {
				if max > 0 && i >= max {
					fmt.Printf("  %s ... and %d more\n", label, len(vs)-i)
					break
				}
				fmt.Printf("  %s %v\n", label, v)
			}
		}
		printSome("+", gained)
		printSome("-", cleared)
	}
	fmt.Printf("replayed %d batch(es); %d violation(s) outstanding\n", batchNo, m.Len())
	return m.Len(), nil
}

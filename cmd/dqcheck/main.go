// Command dqcheck runs the Section 4 static analyses on a CFD rule file:
// consistency ("are the rules themselves dirty?"), redundancy (minimal
// cover), and pairwise implication — the reasoning the paper argues must
// precede any validation against data.
//
// Usage:
//
//	dqcheck -data customer=customer.csv -rules rules.cfd [-validate]
//
// The -data CSVs are read for their schemas; with -validate the loaded
// instances are additionally checked against the rules on the parallel
// detection engine, streaming the violations into a per-relation count
// (full scan either way: a clean relation cannot be confirmed cheaper).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cfd"
	"repro/internal/detect"
	"repro/internal/relation"
)

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

func main() {
	data := dataFlags{}
	flag.Var(data, "data", "relation=path.csv (schema source, repeatable)")
	rulesPath := flag.String("rules", "", "CFD rule file")
	validate := flag.Bool("validate", false, "also check the -data instances against the rules")
	workers := flag.Int("workers", 0, "validation worker pool size (0 = one per CPU)")
	flag.Parse()
	if len(data) == 0 || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	schemas := make(map[string]*relation.Schema)
	db := relation.NewDatabase()
	for name, path := range data {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		in, err := relation.ReadCSV(f, name)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		schemas[name] = in.Schema()
		db.Add(in)
	}

	rf, err := os.Open(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	rules, err := cfd.Parse(rf, schemas)
	rf.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d CFDs (%d normal-form rows)\n", len(rules), len(cfd.NormalizeSet(rules)))

	fmt.Println("\n=== Consistency (Theorem 4.1) ===")
	ok, witness := cfd.Consistent(rules)
	if !ok {
		fmt.Println("INCONSISTENT: no nonempty instance satisfies the rules")
		os.Exit(1)
	}
	fmt.Printf("consistent; witness tuple: %v\n", witness)

	fmt.Println("\n=== Minimal cover (implication, Theorem 4.2) ===")
	cover := cfd.MinimalCover(rules)
	fmt.Printf("minimal cover: %d rows (removed %d redundant)\n",
		len(cover), len(cfd.NormalizeSet(rules))-len(cover))

	fmt.Println("\n=== Pairwise implication matrix ===")
	for i, a := range rules {
		rest := make([]*cfd.CFD, 0, len(rules)-1)
		rest = append(rest, rules[:i]...)
		rest = append(rest, rules[i+1:]...)
		if len(rest) == 0 {
			continue
		}
		if cfd.Implies(rest, a) {
			fmt.Printf("rule %d is implied by the others: %v\n", i+1, a)
		}
	}
	if *validate {
		fmt.Println("\n=== Validation (D ⊨ Σ) ===")
		rulesOn := make(map[string]int)
		for _, c := range rules {
			rulesOn[c.Schema().Name()]++
		}
		// One streamed pass over the whole database serves both outcomes
		// without buffering or sorting violations that are only ever
		// counted.
		count := make(map[string]int)
		detect.New(*workers).DetectBatchStream(db, detect.WrapCFDs(rules), func(v detect.Violation) {
			count[detect.RelationOf(v)]++
		})
		dirty := false
		for _, name := range db.Names() {
			if rulesOn[name] == 0 {
				continue
			}
			if count[name] == 0 {
				fmt.Printf("%s: satisfies all %d rules\n", name, rulesOn[name])
				continue
			}
			dirty = true
			fmt.Printf("%s: VIOLATED (%d violations; run dqdetect for the full report)\n", name, count[name])
		}
		if dirty {
			os.Exit(1)
		}
	}
	fmt.Println("done")
}

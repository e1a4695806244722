// Command dqmatch runs the Section 3 object-identification pipeline on
// card/billing CSV files (in the schemas of dqgen -kind cardbilling):
// it derives relative candidate keys from the Example 3.1 MDs and prints
// the matched pairs and clusters.
//
// Usage:
//
//	dqmatch -card card.csv -billing billing.csv [-block]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/match"
	"repro/internal/md"
	"repro/internal/paperdata"
	"repro/internal/relation"
)

func main() {
	cardPath := flag.String("card", "", "card CSV")
	billingPath := flag.String("billing", "", "billing CSV")
	rulesPath := flag.String("rules", "", "MD rule file (md text format); default: the Example 3.1 MDs")
	block := flag.Bool("block", false, "apply soundex blocking on LN/SN")
	showPairs := flag.Bool("pairs", false, "print every matched pair")
	flag.Parse()
	if *cardPath == "" || *billingPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	card := load(*cardPath, "card")
	billing := load(*billingPath, "billing")

	var sigma []*md.MD
	if *rulesPath != "" {
		rf, err := os.Open(*rulesPath)
		if err != nil {
			log.Fatal(err)
		}
		sigma, err = md.Parse(rf, map[string]*relation.Schema{
			"card": card.Schema(), "billing": billing.Schema(),
		})
		rf.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %d MDs from %s\n", len(sigma), *rulesPath)
	} else {
		sigma = paperdata.Sigma1On(card.Schema(), billing.Schema())
	}
	rcks, err := md.DeriveRCKs(sigma, paperdata.Yc(), paperdata.Yb(), md.DeriveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived %d relative candidate keys:\n", len(rcks))
	for _, k := range rcks {
		fmt.Println("  ", k)
	}

	matcher := &match.Matcher{
		Left: card, Right: billing,
		Rules:   rcks,
		TargetL: paperdata.Yc(), TargetR: paperdata.Yb(),
	}
	if *block {
		blocker, err := match.SoundexBlocker(card.Schema(), billing.Schema(), "LN", "SN")
		if err != nil {
			log.Fatal(err)
		}
		matcher.Blocker = blocker
	}
	pairs, err := matcher.Pairs()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmatched pairs: %d\n", len(pairs))
	if *showPairs {
		for _, p := range pairs {
			ct, _ := card.Tuple(p.L)
			bt, _ := billing.Tuple(p.R)
			fmt.Printf("  card#%d %v ⇋ billing#%d %v\n", p.L, ct, p.R, bt)
		}
	}
	clusters := match.Cluster(pairs)
	fmt.Printf("clusters: %d\n", len(clusters))
}

func load(path, name string) *relation.Instance {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	in, err := relation.ReadCSV(f, name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d tuples\n", name, in.Len())
	return in
}

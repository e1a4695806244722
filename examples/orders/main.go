// Command orders reproduces the Section 2.2 source-to-target scenario:
// the Figure 3 order/book/CD database, the Figure 4 CINDs, violation
// detection (t9's missing audio edition), the always-consistent witness
// construction of Theorem 4.1, chase-based implication, and repair by
// insertion.
package main

import (
	"fmt"
	"log"

	"repro/internal/cind"
	"repro/internal/paperdata"
	"repro/internal/relation"
	"repro/internal/repair"
)

func main() {
	db := paperdata.Figure3()
	order := paperdata.OrderSchema()
	book := paperdata.BookSchema()

	phi4, phi5, phi6 := paperdata.Phi4(), paperdata.Phi5(), paperdata.Phi6()
	sigma := []*cind.CIND{phi4, phi5, phi6}

	fmt.Println("=== Figure 4 CINDs over the Figure 3 database ===")
	for _, c := range sigma {
		fmt.Printf("%v\n  satisfied: %v\n", c, cind.Satisfies(db, c))
	}
	fmt.Println("\nviolations:")
	for _, v := range cind.DetectAll(db, sigma) {
		fmt.Println("  ", v)
	}

	fmt.Println("\n=== Theorem 4.1: CIND sets are always consistent ===")
	witness, err := cind.BuildWitness(sigma, "", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("witness database with %d tuples satisfies all CINDs: %v\n",
		witness.Size(), cind.SatisfiesAll(witness, sigma))

	fmt.Println("\n=== Implication via the chase ===")
	proj := cind.MustNew(order, book, []string{"title"}, []string{"title"},
		[]string{"type"}, nil,
		cind.PatternRow{XpVals: []relation.Value{relation.Str("book")}})
	fmt.Printf("ϕ4 ⊨ order[title; type=book] ⊆ book[title]: %v\n",
		cind.Implies([]*cind.CIND{phi4}, proj))

	fmt.Println("\n=== Repair by insertion (the demanded audio edition) ===")
	n, err := repair.RepairCINDs(db, sigma, repair.InsertDemanded, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d tuple(s); all satisfied: %v\n", n, cind.SatisfiesAll(db, sigma))
	fmt.Println("\nbook relation after repair:")
	fmt.Print(db.MustInstance("book"))
}

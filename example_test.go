package sthist_test

import (
	"fmt"
	"log"
	"strings"

	"sthist"
)

// ExampleOpen builds an estimator over a tiny table, and the exact counts a
// simulation checks its estimates against.
func ExampleOpen() {
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		log.Fatal(err)
	}
	// A 10x10 block of tuples in [0,10)^2 and one outlier fixing the domain.
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{float64(i % 10), float64(i / 10)})
	}
	tab.MustAppend([]float64{100, 100})

	est, err := sthist.Open(tab, sthist.Options{Buckets: 16, SkipInitialization: true})
	if err != nil {
		log.Fatal(err)
	}
	truth, err := sthist.ExactCounts(tab)
	if err != nil {
		log.Fatal(err)
	}
	q, err := sthist.NewRect([]float64{0, 0}, []float64{9, 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true count in the block: %.0f, estimated: %.2f\n", truth(q), est.Estimate(q))
	// Output:
	// true count in the block: 100, estimated: 0.82
}

// ExampleEstimator_Feedback shows the self-tuning loop: estimate, execute,
// feed the observed cardinality back, estimate again.
func ExampleEstimator_Feedback() {
	tab, err := sthist.NewTable("price")
	if err != nil {
		log.Fatal(err)
	}
	// 900 cheap orders, 100 expensive ones.
	for i := 0; i < 900; i++ {
		tab.MustAppend([]float64{float64(i%50 + 10)})
	}
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{float64(i%50 + 500)})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: 8, SkipInitialization: true})
	if err != nil {
		log.Fatal(err)
	}
	q, err := sthist.NewRect([]float64{500}, []float64{550})
	if err != nil {
		log.Fatal(err)
	}
	truth := 100.0 // in a DBMS: the executed query's row count
	before := est.Estimate(q)
	est.Feedback(q, truth)
	after := est.Estimate(q)
	fmt.Printf("feedback improved the estimate: %v\n", abs(after-truth) < abs(before-truth))
	// Output:
	// feedback improved the estimate: true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ExampleLoadCSV loads a table from CSV text.
func ExampleLoadCSV() {
	csv := "ra,dec\n1.5,-2.25\n3.25,4\n"
	tab, err := sthist.LoadCSV(strings.NewReader(csv))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tuples, columns %v\n", tab.Len(), tab.Names())
	// Output:
	// 2 tuples, columns [ra dec]
}

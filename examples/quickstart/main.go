// Quickstart: build a small table, open a self-tuning estimator initialized
// by subspace clustering, ask for estimates, and refine with feedback.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sthist"
)

func run(w io.Writer) error {
	// A tiny sales relation: (price, quantity). Most orders cluster around
	// low price / low quantity; a promotional burst sits at high quantity
	// for mid prices.
	tab, err := sthist.NewTable("price", "quantity")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8000; i++ {
		tab.MustAppend([]float64{10 + rng.Float64()*40, 1 + rng.Float64()*5})
	}
	for i := 0; i < 2000; i++ {
		tab.MustAppend([]float64{45 + rng.Float64()*15, 80 + rng.Float64()*40})
	}

	est, err := sthist.Open(tab, sthist.Options{Buckets: 64, Seed: 7})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "opened estimator: %d tuples, %d clusters found, %d initial buckets\n",
		tab.Len(), len(est.Clusters()), est.Histogram().BucketCount())
	// The estimator keeps no rows; this simulation plays the DBMS executing
	// each query with an index of its own over the table.
	truth, err := sthist.ExactCounts(tab)
	if err != nil {
		return err
	}

	// Estimate the selectivity of: WHERE price BETWEEN 45 AND 60 AND
	// quantity BETWEEN 80 AND 120 (the promo burst).
	promo, err := sthist.NewRect([]float64{45, 80}, []float64{60, 120})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "promo predicate: estimate=%.0f true=%.0f selectivity=%.3f\n",
		est.Estimate(promo), truth(promo), est.Selectivity(promo))

	// Self-tuning: execute queries, feed the observed cardinalities back.
	for i := 0; i < 50; i++ {
		lo := []float64{rng.Float64() * 50, rng.Float64() * 100}
		hi := []float64{lo[0] + 10, lo[1] + 20}
		q, err := sthist.NewRect(lo, hi)
		if err != nil {
			return err
		}
		actual := truth(q) // in a DBMS: the executed query's row count
		est.Feedback(q, actual)
	}
	fmt.Fprintf(w, "after 50 feedback queries: promo estimate=%.0f (true %.0f)\n",
		est.Estimate(promo), truth(promo))
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

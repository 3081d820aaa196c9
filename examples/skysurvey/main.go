// Sky survey scenario (§5): approximate query answering over a synthetic
// stand-in for the Sloan Digital Sky Survey extract used by the paper —
// 7 attributes (two sky coordinates, five filter magnitudes) with both
// full-dimensional and subspace clusters. The example prints the cluster
// inventory MineClus discovers (the analogue of the paper's Table 4) and
// compares initialized vs uninitialized accuracy after training.
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/workload"
)

func run(w io.Writer) error {
	// 1/50th of the paper's 1.7M tuples keeps this example snappy; raise
	// the scale for a full-size run.
	ds := datagen.SkySim(0.02, 5)
	fmt.Fprintf(w, "generated %s: %d tuples, %d dims (%d ground-truth clusters)\n",
		ds.Name, ds.Table.Len(), ds.Table.Dims(), len(ds.Clusters))

	ccfg := sthist.DefaultClusterConfig()
	ccfg.Width = 80
	est, err := sthist.Open(ds.Table, sthist.Options{Buckets: 100, Clustering: ccfg, Seed: 9, Domain: ds.Domain})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nclusters found (descending importance), cf. the paper's Table 4:")
	fmt.Fprintf(w, "%-8s %-10s %-20s\n", "cluster", "tuples", "unused dimensions")
	for i, c := range est.Clusters() {
		unused := c.UnusedDims(ds.Table.Dims())
		label := "none (full-dimensional)"
		if len(unused) > 0 {
			oneBased := make([]int, len(unused))
			for j, d := range unused {
				oneBased[j] = d + 1
			}
			label = fmt.Sprint(oneBased)
		}
		fmt.Fprintf(w, "C%-7d %-10d %-20s\n", i, c.Size, label)
		if i == 14 && len(est.Clusters()) > 16 {
			fmt.Fprintf(w, "... and %d more\n", len(est.Clusters())-15)
			break
		}
	}

	// Train both variants with the same 1%-volume workload and compare.
	uninit, err := sthist.Open(ds.Table, sthist.Options{Buckets: 100, SkipInitialization: true, Domain: ds.Domain})
	if err != nil {
		return err
	}
	train := workload.MustGenerate(ds.Domain, workload.Config{VolumeFraction: 0.01, N: 300, Seed: 10}, nil)
	eval := workload.MustGenerate(ds.Domain, workload.Config{VolumeFraction: 0.01, N: 300, Seed: 11}, nil)
	truth, err := sthist.ExactCounts(ds.Table)
	if err != nil {
		return err
	}
	est.Train(train, truth)
	uninit.Train(train, truth)

	ni, err := est.NormalizedError(eval, truth)
	if err != nil {
		return err
	}
	nu, err := uninit.NormalizedError(eval, truth)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nnormalized error after %d training queries:\n", len(train))
	fmt.Fprintf(w, "  initialized:   %.3f  (%d subspace buckets alive)\n", ni, len(est.Histogram().SubspaceBuckets()))
	fmt.Fprintf(w, "  uninitialized: %.3f  (%d subspace buckets alive)\n", nu, len(uninit.Histogram().SubspaceBuckets()))

	// Approximate query answering: answer a few aggregates straight from
	// the histogram, no data access.
	rng := rand.New(rand.NewSource(12))
	fmt.Fprintln(w, "\napproximate COUNT(*) answers from the initialized histogram:")
	for i := 0; i < 3; i++ {
		lo := make([]float64, 7)
		hi := make([]float64, 7)
		for d := range lo {
			lo[d] = rng.Float64() * 700
			hi[d] = lo[d] + 250
		}
		q, err := sthist.NewRect(lo, hi)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  q%d: approx=%8.0f true=%8.0f\n", i, est.Estimate(q), truth(q))
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

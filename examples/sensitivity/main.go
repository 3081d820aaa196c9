// Sensitivity to learning (§3.1): the same training queries in different
// orders leave an uninitialized self-tuning histogram with visibly different
// error, while the initialized histogram barely moves — Definition 1's
// delta-sensitivity, demonstrated end to end.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/workload"
)

func run(w io.Writer) error {
	ds := datagen.Gauss(0.05, 31) // 5,500 tuples, subspace Gaussian bells
	fmt.Fprintf(w, "dataset: %s, %d tuples, %d dims\n", ds.Name, ds.Table.Len(), ds.Table.Dims())

	train := workload.MustGenerate(ds.Domain, workload.Config{VolumeFraction: 0.01, N: 120, Seed: 1}, nil)
	eval := workload.MustGenerate(ds.Domain, workload.Config{VolumeFraction: 0.01, N: 300, Seed: 2}, nil)
	truth, err := sthist.ExactCounts(ds.Table)
	if err != nil {
		return err
	}

	trainAndEval := func(initialized bool, queries []sthist.Rect) (float64, error) {
		opts := sthist.Options{Buckets: 60, Seed: 5, Domain: ds.Domain}
		opts.SkipInitialization = !initialized
		if initialized {
			ccfg := sthist.DefaultClusterConfig()
			ccfg.Width = 60
			opts.Clustering = ccfg
		}
		est, err := sthist.Open(ds.Table, opts)
		if err != nil {
			return 0, err
		}
		est.Train(queries, truth)
		return est.NormalizedError(eval, truth)
	}

	const permutations = 8
	fmt.Fprintf(w, "\ntraining with %d queries in %d different orders:\n", len(train), permutations)
	fmt.Fprintf(w, "%-6s %14s %14s\n", "order", "uninitialized", "initialized")
	var uMin, uMax = math.Inf(1), math.Inf(-1)
	var iMin, iMax = math.Inf(1), math.Inf(-1)
	for p := 0; p < permutations; p++ {
		wl := train
		if p > 0 {
			wl = workload.Permute(train, int64(100+p))
		}
		u, err := trainAndEval(false, wl)
		if err != nil {
			return err
		}
		i, err := trainAndEval(true, wl)
		if err != nil {
			return err
		}
		uMin, uMax = math.Min(uMin, u), math.Max(uMax, u)
		iMin, iMax = math.Min(iMin, i), math.Max(iMax, i)
		fmt.Fprintf(w, "%-6d %14.4f %14.4f\n", p, u, i)
	}
	fmt.Fprintf(w, "\nerror spread across permutations (max - min):\n")
	fmt.Fprintf(w, "  uninitialized: %.4f (%.0f%% of its best error)\n", uMax-uMin, 100*(uMax-uMin)/uMin)
	fmt.Fprintf(w, "  initialized:   %.4f (%.0f%% of its best error)\n", iMax-iMin, 100*(iMax-iMin)/iMin)
	fmt.Fprintln(w, "\ninitialization makes the histogram robust to the order of learning queries (§4.2.1)")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

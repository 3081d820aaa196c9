// Command aqp is an interactive approximate query processor: it loads a CSV
// table (or generates one of the paper's datasets), builds a
// subspace-cluster-initialized self-tuning histogram over it, and answers
// COUNT(*) range predicates from the histogram alone — optionally verifying
// against the data and feeding the truth back so the histogram keeps
// learning.
//
// Usage:
//
//	aqp -csv data.csv
//	aqp -dataset sky -scale 0.02
//
// Then type predicates, one per line:
//
//	x BETWEEN 100 AND 300 AND y >= 500
//	ra >= 200 AND dec <= 400
//
// Commands: \q quit, \buckets dump the histogram, \stats show counters,
// \save <path> / \load <path> persist and restore the trained histogram.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/predicate"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aqp:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("aqp", flag.ContinueOnError)
	var (
		csvPath = fs.String("csv", "", "input file: CSV with a header row, or the binary format (.bin) written by datagen")
		dsName  = fs.String("dataset", "", "generate a paper dataset instead: cross, gauss, sky, ...")
		scale   = fs.Float64("scale", 0.02, "dataset scale when using -dataset")
		buckets = fs.Int("buckets", 100, "histogram bucket budget")
		seed    = fs.Int64("seed", 1, "clustering seed")
		verify  = fs.Bool("verify", true, "also report the true count and feed it back")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tab *sthist.Table
	switch {
	case *csvPath != "":
		f, err := os.Open(*csvPath)
		if err != nil {
			return err
		}
		if strings.HasSuffix(*csvPath, ".bin") {
			tab, err = dataset.ReadBinary(f)
		} else {
			tab, err = sthist.LoadCSV(f)
		}
		_ = f.Close()
		if err != nil {
			return err
		}
	case *dsName != "":
		ds, err := datagen.ByName(*dsName, *scale, *seed)
		if err != nil {
			return err
		}
		tab = ds.Table
	default:
		return fmt.Errorf("one of -csv or -dataset is required")
	}

	start := time.Now()
	est, err := sthist.Open(tab, sthist.Options{Buckets: *buckets, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d tuples, %d columns (%s); %d clusters found, %d initial buckets (%v)\n",
		tab.Len(), tab.Dims(), strings.Join(tab.Names(), ", "),
		len(est.Clusters()), est.Histogram().BucketCount(), time.Since(start).Round(time.Millisecond))
	var truth func(sthist.Rect) float64
	if *verify {
		if truth, err = sthist.ExactCounts(tab); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, `type a predicate (e.g. "x1 BETWEEN 100 AND 300"), \buckets, \stats, \save <path>, \load <path> or \q`)

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "aqp> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || line == "quit" || line == "exit":
			return nil
		case line == `\buckets`:
			est.Histogram().Dump(out)
			continue
		case line == `\stats`:
			s := est.Histogram().Stats
			fmt.Fprintf(out, "queries=%d drills=%d skipped=%d merges(parent-child)=%d merges(sibling)=%d buckets=%d/%d\n",
				s.Queries, s.Drills, s.SkippedExactDrills, s.ParentChildMerges, s.SiblingMerges,
				est.Histogram().BucketCount(), est.Histogram().MaxBuckets())
			continue
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\save `))
			if err := saveHistogram(est, path); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "histogram saved to", path)
			}
			continue
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(strings.TrimPrefix(line, `\load `))
			if err := loadHistogram(est, path); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "histogram loaded from", path)
			}
			continue
		}
		q, err := predicate.Parse(line, tab.Names(), est.Domain())
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		t0 := time.Now()
		approx := est.Estimate(q)
		dt := time.Since(t0)
		if truth != nil {
			fmt.Fprintf(out, "approx COUNT(*) = %.0f   (true %.0f, sel %.4f, %v)\n",
				approx, truth(q), est.Selectivity(q), dt.Round(time.Microsecond))
			est.FeedbackWith(q, truth)
		} else {
			fmt.Fprintf(out, "approx COUNT(*) = %.0f   (sel %.4f, %v)\n", approx, est.Selectivity(q), dt.Round(time.Microsecond))
		}
	}
}

func saveHistogram(est *sthist.Estimator, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return est.SaveHistogram(f)
}

func loadHistogram(est *sthist.Estimator, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	return est.LoadHistogram(f)
}

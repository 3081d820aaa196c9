// Command benchcmp compares two sets of sthbench reports (sthbench -out),
// such as the parent commit against a change, or two sets of runs of the
// same code. For every workload and end-to-end metric it prints each set's
// median and quartiles and a verdict, the first of these that applies:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound in BENCHMARK.json, however noisy the runs;
//   - gain: the change wins at least nine tenths of the pairs (the i-th run
//     of each set; ties count for neither) and the medians differ by more
//     than the parent's quartile distance;
//   - unresolved: the parent's run-to-run spread (quartile distance over
//     median) is wider than the bound, so the sets cannot show that the
//     metric stayed within it, unless every change run beats every parent
//     run;
//   - unchanged: none of these.
//
// With -layers it also lists the per-layer metrics, which have no bound.
// The exit code is 1 if any metric regressed.
//
// Usage, from bench/:
//
//	go run ./cmd/benchcmp -base 'results/seed1-a-*.json' -change 'results/seed1-b-*.json'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sthist/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json with the metrics and their bounds")
	base := fs.String("base", "", "glob of the parent's reports (required)")
	change := fs.String("change", "", "glob of the change's reports (required)")
	layers := fs.Bool("layers", false, "also list the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	a, err := load(*base)
	if err != nil {
		return fail(fmt.Errorf("-base: %w", err))
	}
	b, err := load(*change)
	if err != nil {
		return fail(fmt.Errorf("-change: %w", err))
	}
	fmt.Fprintf(stdout, "base:   %d runs, commit %s, %s, %d CPUs, %s\n", len(a), a[0].Commit, a[0].Go, a[0].NProc, a[0].CPU)
	fmt.Fprintf(stdout, "change: %d runs, commit %s, %s, %d CPUs, %s\n", len(b), b[0].Commit, b[0].Go, b[0].NProc, b[0].CPU)
	fmt.Fprintf(stdout, "%-12s %-30s %-6s %28s %28s %8s %7s %7s  %s\n",
		"workload", "metric", "unit", "base median [q1 q3]", "change median [q1 q3]", "delta", "bound", "spread", "verdict")
	regressions := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			r, ok := compare(values(a, w.Name, m.Name), values(b, w.Name, m.Name), m)
			if !ok {
				return fail(fmt.Errorf("%s %s: missing from some reports", w.Name, m.Name))
			}
			if r.verdict == "regression" {
				regressions++
			}
			r.print(stdout, w.Name, m)
		}
		if *layers {
			for _, m := range spec.PerLayer {
				if r, ok := compare(values(a, w.Name, m.Name), values(b, w.Name, m.Name), m); ok {
					r.print(stdout, w.Name, m)
				}
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", regressions)
		return 1
	}
	return 0
}

func load(glob string) ([]*bench.Report, error) {
	if glob == "" {
		return nil, fmt.Errorf("no reports given")
	}
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) < 2 {
		return nil, fmt.Errorf("%q matches %d reports; a spread needs at least 2", glob, len(paths))
	}
	sort.Strings(paths)
	var out []*bench.Report
	for _, p := range paths {
		r, err := bench.ReadReport(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// values collects a metric of one workload across reports, in report
// order; nil if any report lacks it.
func values(reps []*bench.Report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		found := false
		for _, res := range r.Results {
			if m, ok := res.Metrics[metric]; ok && res.Workload == workload {
				out = append(out, m.Value)
				found = true
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// result is one metric's comparison.
type result struct {
	base, change [3]float64 // q1, median, q3
	delta        float64    // relative change of the median; positive is worse
	spread       float64    // the parent's quartile distance over its median
	verdict      string
}

// compare applies the rule in the package comment. ok is false when either
// side has no values.
func compare(a, b []float64, m bench.SpecMetric) (result, bool) {
	if len(a) == 0 || len(b) == 0 {
		return result{}, false
	}
	var r result
	r.base[0], r.base[1], r.base[2] = bench.Quartiles(a)
	r.change[0], r.change[1], r.change[2] = bench.Quartiles(b)
	// worse is how much worse x reads than y, as a share of |ref|.
	worse := func(x, y, ref float64) float64 {
		d := x - y
		if m.Better == "higher" {
			d = -d
		}
		if ref == 0 {
			return d
		}
		if ref < 0 {
			ref = -ref
		}
		return d / ref
	}
	r.delta = worse(r.change[1], r.base[1], r.base[1])
	r.spread = r.base[2] - r.base[0]
	if r.base[1] != 0 {
		r.spread /= r.base[1]
	}
	if m.Bound == 0 {
		r.verdict = "-"
		return r, true
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if worse(x, y, 1) >= 0 {
				allBetter = false
			}
		}
	}
	wins := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if worse(b[i], a[i], 1) < 0 {
			wins++
		}
	}
	pairs := min(len(a), len(b))
	gap := worse(r.base[1], r.change[1], 1) // positive when the change is better
	switch {
	case r.delta > m.Bound:
		r.verdict = "regression"
	case 10*wins >= 9*pairs && gap > r.base[2]-r.base[0]:
		r.verdict = "gain"
	case r.spread > m.Bound && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "unchanged"
	}
	return r, true
}

func (r result) print(w io.Writer, workload string, m bench.SpecMetric) {
	q := func(v [3]float64) string { return fmt.Sprintf("%.4g [%.4g %.4g]", v[1], v[0], v[2]) }
	bound := "-"
	if m.Bound > 0 {
		bound = fmt.Sprintf("%.1f%%", m.Bound*100)
	}
	fmt.Fprintf(w, "%-12s %-30s %-6s %28s %28s %+7.1f%% %7s %6.1f%%  %s\n",
		workload, m.Name, m.Unit, q(r.base), q(r.change), r.delta*100, bound, r.spread*100, r.verdict)
}

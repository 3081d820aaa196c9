package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"testing"

	"sthist/bench"
)

func TestCompareVerdicts(t *testing.T) {
	lower := bench.SpecMetric{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := bench.SpecMetric{Name: "tput", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    bench.SpecMetric
		want string
	}{
		{"same code", steady, steady, lower, "unchanged"},
		{"small slowdown within bound", steady, scaled(steady, 1.05), lower, "unchanged"},
		{"slowdown beyond bound", steady, scaled(steady, 1.2), lower, "regression"},
		{"throughput drop beyond bound", steady, scaled(steady, 0.8), higher, "regression"},
		{"consistent speed-up", steady, scaled(steady, 0.9), lower, "gain"},
		{"spread wider than bound", noisy, noisy, lower, "unresolved"},
		{"noisy but every change run better", noisy, scaled(noisy, 0.1), lower, "gain"},
		{"noisy slowdown beyond bound", noisy, scaled(noisy, 2), lower, "regression"},
		{"noisy change against a steady parent", steady, noisy, lower, "unchanged"},
	} {
		r, ok := compare(tc.a, tc.b, tc.m)
		if !ok || r.verdict != tc.want {
			t.Errorf("%s: verdict %q (ok %v), want %q", tc.name, r.verdict, ok, tc.want)
		}
	}
	if _, ok := compare(nil, steady, lower); ok {
		t.Error("compare with no base values reported ok")
	}
}

// TestRunExitCode checks the whole command on report files: a regression
// exits 1 and is named, also when the runs are too noisy to resolve a
// change within the bound; two identical sets exit 0.
func TestRunExitCode(t *testing.T) {
	spec, err := bench.LoadSpec(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	steady := []float64{10, 10.01, 10.02}
	noisy := []float64{6, 10, 14}
	write := func(set string, runs []float64, scale float64) {
		for i, x := range runs {
			rep := &bench.Report{Commit: set}
			for _, w := range spec.Workloads {
				res := &bench.Result{Workload: w.Name, Correct: true, Metrics: map[string]bench.Metric{}}
				for _, m := range spec.EndToEnd {
					v := steady[i]
					if m.Name == "setup_s" {
						v = x * scale
					}
					res.Metrics[m.Name] = bench.Metric{Value: v, Unit: m.Unit}
				}
				rep.Results = append(rep.Results, res)
			}
			if err := rep.Write(filepath.Join(dir, fmt.Sprintf("%s-%d.json", set, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a", steady, 1)
	write("b", steady, 1)
	write("slow", steady, 2)
	write("noisy", noisy, 1)
	write("noisyslow", noisy, 2)
	specArg := "-spec=" + filepath.Join("..", "..", "..", "BENCHMARK.json")
	for _, tc := range []struct {
		base, change string
		want         int
	}{
		{"a", "b", 0},
		{"a", "slow", 1},
		{"noisy", "noisy", 0},
		{"noisy", "noisyslow", 1},
	} {
		var out bytes.Buffer
		code := run([]string{specArg, "-base", filepath.Join(dir, tc.base+"-*"), "-change", filepath.Join(dir, tc.change+"-*")}, &out, &out)
		if code != tc.want {
			t.Errorf("%s against %s: exit %d, want %d\n%s", tc.change, tc.base, code, tc.want, out.String())
		}
		if tc.want == 1 && !regexp.MustCompile(`setup_s .* regression`).MatchString(out.String()) {
			t.Errorf("%s against %s: regression of setup_s not reported:\n%s", tc.change, tc.base, out.String())
		}
	}
}

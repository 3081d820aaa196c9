// Command sthbench is the repository's benchmark. For each workload it
// generates the inputs from -seed, serves them with the real sthistd (and
// sthproxy) on loopback, drives a fixed-rate open loop and a closed-loop
// peak, checks the answers, and prints every metric it measured with its
// unit and sample count. With -trace 1 it adds a run of the same layers
// assembled in this process, timed at every public boundary, which gives the
// per-layer metrics.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, where metrics holds the
// end_to_end (or, traced, the per_layer) metrics of BENCHMARK.json. The exit
// code is non-zero if a check fails.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload refine -seed 1
//	bash bench/run.sh -seed 1 -out bench/results/seed1.json   # every workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"sthist/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and reports per-layer metrics")
	out := flag.String("out", "", "also write the full report (host, checks, every metric) to this JSON file")
	root := flag.String("root", ".", "repository root")
	work := flag.String("work", ".bench_build", "scratch directory for binaries, tables, WAL directories and spans")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "sthbench:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	spec, err := bench.LoadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	ws := bench.Workloads
	if *workload != "all" {
		w, err := bench.WorkloadByName(*workload)
		if err != nil {
			return fail(err)
		}
		ws = []bench.Workload{w}
	}
	cfg := bench.Config{Root: *root, Work: *work, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Log: os.Stderr}
	if cfg.Seconds <= 0 {
		cfg.Seconds = float64(spec.RunSeconds)
	}
	list := spec.EndToEnd
	if cfg.Trace {
		list = spec.PerLayer
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	if err := bench.BuildServers(ctx, *root, filepath.Join(*work, "bin")); err != nil {
		return fail(err)
	}
	rep := bench.NewReport(ctx, *root, cfg)
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]bench.Metric{}}
	for _, w := range ws {
		c := cfg
		if c.Trace {
			c.Spans = filepath.Join(*work, fmt.Sprintf("%s-seed%d.spans.jsonl", w.Name, *seed))
			if *out != "" {
				c.Spans = strings.TrimSuffix(*out, ".json") + "-" + w.Name + ".spans.jsonl"
			}
		}
		res, err := bench.Run(ctx, c, w)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.Results = append(rep.Results, res)
		printResult(res)
		sel, err := bench.Select(res.Metrics, list)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		for name, m := range sel {
			if len(ws) > 1 {
				name = w.Name + "/" + name
			}
			m.Samples = 0
			line.Metrics[name] = m
		}
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
	}
	if *out != "" {
		if err := rep.Write(*out); err != nil {
			return fail(err)
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// printResult lists a workload's checks and every metric the run measured,
// each with its unit and sample count.
func printResult(res *bench.Result) {
	for _, c := range res.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED"
		}
		fmt.Printf("%-12s check  %-30s %s %s\n", res.Workload, c.Name, state, c.Detail)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-12s metric %-30s %14.6g %-6s n=%d\n", res.Workload, name, m.Value, m.Unit, m.Samples)
	}
}

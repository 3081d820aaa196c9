// Command sthist runs the paper's experiments by id and prints the rows or
// series behind each table/figure.
//
// Usage:
//
//	sthist -list
//	sthist -exp fig11                       # reduced default scale
//	sthist -exp fig13 -scale 1 -train 1000 -eval 1000   # paper scale
//	sthist -exp table2 -buckets 50,100,250
//	sthist -all                             # every experiment at the default scale
//	sthist -exp fig11 -cpuprofile cpu.out -memprofile mem.out   # profile a run
//	sthist -trace 20                        # instrumented Cross session, dump the last 20 rounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/experiment"
	"sthist/internal/telemetry"
	"sthist/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sthist:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sthist", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id to run (see -list)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiment ids")
		scale   = fs.Float64("scale", 0, "dataset scale factor (1 = paper scale; default: reduced)")
		train   = fs.Int("train", 0, "training queries (default: reduced; paper uses 1000)")
		eval    = fs.Int("eval", 0, "evaluation queries (default: reduced; paper uses 1000)")
		vol     = fs.Float64("vol", 0, "query volume fraction (default 0.01)")
		seed    = fs.Int64("seed", 0, "random seed (default 1)")
		buckets = fs.String("buckets", "", "comma-separated bucket budgets (default 50,100,150,200,250)")
		outPath = fs.String("out", "", "also write results to this file")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile after the run to this file")
		trace   = fs.Int("trace", 0, "run a telemetry-instrumented Cross session and dump the last N feedback rounds as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		stop, err := experiment.StartCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "sthist: stopping cpu profile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := experiment.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "sthist: writing mem profile:", err)
			}
		}()
	}
	if *list {
		for _, n := range experiment.Names() {
			fmt.Println(n)
		}
		return nil
	}
	cfg := experiment.Defaults()
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *train > 0 {
		cfg.TrainQueries = *train
	}
	if *eval > 0 {
		cfg.EvalQueries = *eval
	}
	if *vol > 0 {
		cfg.VolumeFraction = *vol
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *buckets != "" {
		parsed, err := parseInts(*buckets)
		if err != nil {
			return fmt.Errorf("parsing -buckets: %w", err)
		}
		cfg.Buckets = parsed
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		w = io.MultiWriter(os.Stdout, f)
	}
	switch {
	case *trace > 0:
		return runTrace(*trace, cfg, w)
	case *all:
		for _, name := range experiment.Names() {
			fmt.Fprintf(w, "=== %s ===\n", name)
			start := time.Now()
			if err := experiment.Run(name, cfg, w); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintf(w, "(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	case *exp != "":
		return experiment.Run(*exp, cfg, w)
	default:
		fs.Usage()
		return fmt.Errorf("one of -exp, -all, -list or -trace is required")
	}
}

// runTrace drives a Cross feedback session with a recorder attached and
// FeedbackBatch reporting every round's detail, then dumps the last n rounds
// as JSON lines, oldest first, followed by the rolling accuracy and latency
// quantiles the recorder accumulated.
func runTrace(n int, cfg experiment.Config, w io.Writer) error {
	ds := datagen.Cross(cfg.Scale, cfg.Seed)
	est, err := sthist.Open(ds.Table, sthist.Options{Buckets: cfg.Buckets[len(cfg.Buckets)-1], Seed: cfg.Seed})
	if err != nil {
		return err
	}
	truth, err := sthist.ExactCounts(ds.Table)
	if err != nil {
		return err
	}
	tel := telemetry.New(telemetry.Options{})
	rec := tel.Table(ds.Name)
	est.SetRecorder(rec)

	queries, err := workload.Generate(ds.Domain, workload.Config{
		VolumeFraction: cfg.VolumeFraction, N: cfg.TrainQueries, Seed: cfg.Seed,
	}, ds.Table)
	if err != nil {
		return err
	}
	n = min(n, len(queries))
	last := make([]sthist.Round, n) // the newest n rounds, round i in slot i%n
	for i, q := range queries {
		obs := []sthist.Observation{{Query: q, Actual: truth(q), Round: &last[i%n]}}
		if err := est.FeedbackBatch(obs)[0]; err != nil {
			return err
		}
	}

	enc := json.NewEncoder(w)
	for i := len(queries) - n; i < len(queries); i++ {
		line := struct {
			Seq int `json:"seq"`
			sthist.Round
		}{i, last[i%n]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	rounds, mae, nae := rec.Rolling()
	p50, p95, p99 := rec.Quantiles()
	fmt.Fprintf(w, "# %s: %d rounds traced, rolling(%d) MAE=%.2f NAE=%.4f, feedback p50=%.3gs p95=%.3gs p99=%.3gs\n",
		ds.Name, len(queries), rounds, mae, nae, p50, p95, p99)
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("bucket budget %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

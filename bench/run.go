package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"sthist/internal/geom"
	"sthist/internal/metrics"
)

// Config is one invocation of the benchmark.
type Config struct {
	Root    string  // repository root: the server sources
	Work    string  // scratch directory for binaries, tables and WAL directories
	Seed    int64   // traffic seed: arrival times, the op mix and the estimate queries
	Seconds float64 // measured time per run: fixed-rate plus peak phase
	Trace   bool    // add the traced in-process run and report per-layer metrics
	// Scale multiplies every table's size, SetupRepeats is how many times
	// set-up is timed and Crashes how many times recovery is; only the
	// smoke test lowers them from 1, 3 and 3.
	Scale        float64
	SetupRepeats int
	Crashes      int
	Spans        string    // where the traced run writes its spans; empty skips them
	Log          io.Writer // progress lines
}

// Check is one correctness check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is one workload's outcome.
type Result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"` // every check passed
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []Check           `json:"checks"`
	Metrics   map[string]Metric `json:"metrics"`

	clientMean float64 // fixed-phase mean exchange time, for trace.gap
}

func (r *Result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: detail})
}

func (r *Result) set(name string, v float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// BuildServers compiles sthistd and sthproxy from root into dir.
func BuildServers(ctx context.Context, root, dir string) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(os.PathSeparator), "./cmd/sthistd", "./cmd/sthproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return nil
}

// Run runs one workload. The server binaries must already be in
// Work/bin (see BuildServers). Untraced, it reports the end-to-end metrics
// of the real processes. Traced, it splits Seconds between an untraced run,
// which gives process CPU and the reference client time, and the traced
// in-process run, and reports per-layer metrics next to both.
func Run(ctx context.Context, cfg Config, w Workload) (*Result, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.SetupRepeats < 1 {
		cfg.SetupRepeats = 3
	}
	if cfg.Crashes < 1 {
		cfg.Crashes = 3
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	dir, err := os.MkdirTemp(cfg.Work, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover is harmless
	secs := cfg.Seconds
	if cfg.Trace {
		secs /= 2
	}
	in, err := buildInputs(w, cfg.Seed, secs, cfg.Scale, dir)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(cfg.Log, "%s: %d rows x %d dims, %d fixed-rate ops (%d feedback) over %.1fs\n",
		w.Name, in.tab.Len(), in.tab.Dims(), len(in.fixed), in.fixedFb, in.fixedDur)
	res, err := runProcesses(ctx, cfg, in, dir)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		tr, err := runInProcess(ctx, cfg, in, filepath.Join(dir, "inproc"))
		if err != nil {
			return nil, err
		}
		for name, m := range tr.Metrics {
			res.Metrics[name] = m
		}
		res.set("trace.gap", tr.clientMean/res.clientMean, "ratio", 0)
		res.Checks = append(res.Checks, tr.Checks...)
		res.Attempted += tr.Attempted
		res.Failed += tr.Failed
	}
	res.Correct = len(res.Checks) > 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// system is a deployment under test: the real processes, or the traced
// in-process assembly of the same layers.
type system interface {
	url() string     // where workload traffic goes: the proxy, or the node
	nodeURL() string // the node itself
	// mark records layer counters at a phase boundary.
	mark(phase string)
	// crash loses the node's memory and rebuilds it from the WAL directory.
	// It returns the seconds recovery took and how many probe estimates of
	// the rebuilt histogram differ from want in any bit.
	crash(ctx context.Context, c *client, in *inputs, want []float64) (float64, int, error)
}

// phases is what drive measured.
type phases struct {
	fixed      []sample // fixed-rate open loop
	peak       []sample // closed-loop peak
	other      []sample // probes, checkpoint fill and WAL tail: checked, not timed
	peakSecs   float64  // the peak phase's length
	nae        float64
	recoveries []float64 // seconds each recovery took
}

// drive runs a workload's phases against sys: training and the probe that
// measures nae, the fixed-rate open loop, the crash and recovery, and the
// closed-loop peak.
func drive(ctx context.Context, sys system, c *client, in *inputs, res *Result, cfg Config) (*phases, error) {
	ph := &phases{}
	t0 := time.Now()
	step := func(name string) {
		fmt.Fprintf(cfg.Log, "%s: %-8s done at %5.1fs\n", in.w.Name, name, time.Since(t0).Seconds())
	}
	trained, err := c.sequential(ctx, sys.url(), opFeedback, in.train)
	ph.other = append(ph.other, trained...)
	if err != nil {
		return nil, err
	}
	served, err := c.probe(ctx, sys.url(), in.pbody)
	ph.other = append(ph.other, served...)
	if err != nil {
		return nil, err
	}
	ph.nae, err = nae(in, served)
	res.check("nae_defined", err == nil, errText(err))
	step("train")

	sys.mark("fixed-start")
	ph.fixed = c.openLoop(ctx, sys.url(), in.fixed, in.w.Serial)
	sys.mark("fixed-end")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	step("fixed")

	// Reach a checkpoint with cheap repeated feedback, then leave exactly
	// walTail records past it, in order, so every crash leaves the same tail.
	// The fill observations are all the same, so both senders send them.
	st, err := c.stats(ctx, sys.nodeURL(), in.table)
	if err != nil {
		return nil, err
	}
	if need := checkpointRecords - st.WAL.RecordsSinceCkpt; need > 0 {
		fill := make([]op, need)
		for i := range fill {
			fill[i] = op{kind: opFeedback, body: in.fill}
		}
		filled := c.openLoop(ctx, sys.nodeURL(), fill, false)
		ph.other = append(ph.other, filled...)
		for _, s := range filled {
			if !s.ok() {
				return nil, fmt.Errorf("checkpoint fill: status %d", s.code)
			}
		}
	}
	if err := waitCheckpoint(ctx, c, sys.nodeURL(), in.table); err != nil {
		return nil, err
	}
	tail, err := c.sequential(ctx, sys.nodeURL(), opFeedback, in.tail())
	ph.other = append(ph.other, tail...)
	if err != nil {
		return nil, err
	}
	ref, err := c.probe(ctx, sys.nodeURL(), in.pbody)
	ph.other = append(ph.other, ref...)
	if err != nil {
		return nil, err
	}
	acked := acks(ph.fixed, ph.other)
	st, err = c.stats(ctx, sys.nodeURL(), in.table)
	if err != nil {
		return nil, err
	}
	res.check("last_seq_before_crash", st.WAL.LastSeq == acked, fmt.Sprintf("last_seq %d, acked %d", st.WAL.LastSeq, acked))
	res.check("wal_tail_at_crash", st.WAL.RecordsSinceCkpt == walTail,
		fmt.Sprintf("%d records past the checkpoint, want %d", st.WAL.RecordsSinceCkpt, walTail))
	want := values(ref)
	step("tail")

	// Recovery is timed several times from the same directory state: a
	// restart replays the tail without checkpointing.
	var recoveries []float64
	diff := 0
	for i := 0; i < cfg.Crashes; i++ {
		d, n, err := sys.crash(ctx, c, in, want)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, d)
		diff += n
	}
	ph.recoveries = recoveries
	res.check("recovery_bitwise", diff == 0, fmt.Sprintf("%d of %d probe estimates differ after %d recoveries", diff, cfg.Crashes*len(want), cfg.Crashes))
	if err := checkLastSeq(ctx, c, sys.nodeURL(), in.table, acked, "last_seq_after_recovery", res); err != nil {
		return nil, err
	}
	step("recovery")

	sys.mark("peak-start")
	var nfb atomic.Int64
	nextFb := func() int { return int(nfb.Add(1) - 1) }
	ph.peakSecs = in.peakDur
	ph.peak = c.closedLoop(ctx, sys.url(), time.Duration(in.peakDur*1e9), in.w.Serial, func(j int) op { return in.peakOp(j, nextFb) })
	sys.mark("peak-end")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	step("peak")
	if err := checkLastSeq(ctx, c, sys.nodeURL(), in.table, acks(ph.fixed, ph.other, ph.peak), "last_seq_at_end", res); err != nil {
		return nil, err
	}

	all := append(append(append([]sample(nil), ph.fixed...), ph.other...), ph.peak...)
	badEst, badSeq := 0, 0
	for _, s := range all {
		res.Attempted++
		if !s.ok() {
			res.Failed++
			continue
		}
		if s.kind == opEstimate && !finiteNonNegative(s.value) {
			badEst++
		}
		if s.kind == opFeedback && s.seq == 0 {
			badSeq++
		}
	}
	res.check("estimates_finite_nonnegative", badEst == 0, fmt.Sprintf("%d bad estimates", badEst))
	res.check("acked_feedback_has_seq", badSeq == 0, fmt.Sprintf("%d acks without seq", badSeq))
	return ph, nil
}

// endToEnd sets the metrics a user of the system sees, from the phases.
// Interference from the host only ever slows a run down, so of several
// identical measurements the best one says most about the code: peak_ops_s
// is the best half-second window of the peak, recover_s the fastest of the
// recoveries.
func (ph *phases) endToEnd(res *Result) {
	var est, fb []float64
	for _, s := range ph.fixed {
		if s.kind == opEstimate {
			est = append(est, s.latency()*1e3)
		} else {
			fb = append(fb, s.latency()*1e3)
		}
	}
	res.set("est_p50_ms", percentile(est, 0.50), "ms", len(est))
	res.set("est_p99_ms", percentile(est, 0.99), "ms", len(est))
	res.set("fb_p50_ms", percentile(fb, 0.50), "ms", len(fb))
	res.set("fb_p99_ms", percentile(fb, 0.99), "ms", len(fb))
	ok, n := 0, 0
	for _, p := range [][]sample{ph.fixed, ph.peak} {
		for _, s := range p {
			n++
			if s.ok() {
				ok++
			}
		}
	}
	res.set("peak_ops_s", maxOf(ph.peakRates()), "1/s", len(ph.peak))
	res.set("ok_frac", float64(ok)/float64(n), "ratio", n)
	res.set("nae", ph.nae, "ratio", probeQueries)
	res.set("recover_s", minOf(ph.recoveries), "s", len(ph.recoveries))
	res.clientMean = exchangeMean(ph.fixed)
}

// peakRates are the operations answered 200 per second in each half-second
// window of the peak phase.
func (ph *phases) peakRates() []float64 {
	n := max(int(ph.peakSecs/0.5), 1)
	window := ph.peakSecs / float64(n)
	counts := make([]float64, n)
	for _, s := range ph.peak {
		if i := int(s.end / window); s.ok() && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= window
	}
	return counts
}

// nae is Eq. 10 of the served probe estimates against exact counts.
func nae(in *inputs, served []sample) (float64, error) {
	got := make(servedEstimates, len(served))
	for i, q := range in.probes {
		got[rectKey(q)] = served[i].value
	}
	truth := make(map[string]float64, len(in.probes))
	for i, q := range in.probes {
		truth[rectKey(q)] = in.truth[i]
	}
	return metrics.NormalizedAbsoluteError(got, in.probes, func(q geom.Rect) float64 { return truth[rectKey(q)] },
		in.domain, float64(in.tab.Len()))
}

// servedEstimates answers Estimate with what the server said for a query.
type servedEstimates map[string]float64

func (s servedEstimates) Estimate(q geom.Rect) float64 { return s[rectKey(q)] }

func rectKey(q geom.Rect) string { return fmt.Sprint(q.Lo, q.Hi) }

// acks counts the acknowledged feedback in the sample sets.
func acks(sets ...[]sample) uint64 {
	n := uint64(0)
	for _, set := range sets {
		for _, s := range set {
			if s.kind == opFeedback && s.ok() {
				n++
			}
		}
	}
	return n
}

// checkLastSeq checks that the node's WAL holds exactly the acknowledged
// feedback: every run starts from an empty data directory.
func checkLastSeq(ctx context.Context, c *client, node, table string, acked uint64, name string, res *Result) error {
	st, err := c.stats(ctx, node, table)
	if err != nil {
		return err
	}
	res.check(name, st.WAL.LastSeq == acked, fmt.Sprintf("last_seq %d, acked %d", st.WAL.LastSeq, acked))
	return nil
}

// waitCheckpoint waits until the node's WAL holds no record past its last
// checkpoint.
func waitCheckpoint(ctx context.Context, c *client, node, table string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.stats(ctx, node, table)
		if err != nil {
			return err
		}
		if st.WAL.RecordsSinceCkpt == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no checkpoint: %d records past the last one", st.WAL.RecordsSinceCkpt)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// values are the estimates of samples.
func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.value
	}
	return out
}

// diffBits counts the probes whose estimate differs from want in any bit.
func diffBits(got, want []float64) int {
	diff := 0
	for i := range want {
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			diff++
		}
	}
	return diff
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

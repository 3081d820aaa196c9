package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sthist"
	"sthist/internal/cluster"
	"sthist/internal/dataset"
	"sthist/internal/httpapi"
	"sthist/internal/index"
	"sthist/internal/telemetry"
	"sthist/internal/wal"
)

// inprocSystem is the traced deployment: the layers sthistd and sthproxy
// assemble, built in this process from their public constructors with the
// same settings. The harness times the calls at every public boundary:
// middleware around Server.Handler() and Proxy.Handler(), a timing
// RoundTripper under the proxy, a wal.Observer and a counting faultfs.FS
// under the log, and the telemetry registry it hands to EnableTelemetry.
// Nothing inside the program is changed.
type inprocSystem struct {
	in     *inputs
	res    *Result
	walDir string
	tab    *dataset.Table
	spans  *spanLog
	fs     *countingFS
	tel    *telemetry.Telemetry
	est    *sthist.Estimator
	srv    *httpapi.Server
	log    *wal.Log
	proxy  *cluster.Proxy

	servers   []*http.Server
	serveErrs chan error
	nodeAddr  string
	frontAddr string
	stopCkpt  chan struct{}
	ckptDone  chan struct{}
	ckptErr   error // first checkpoint failure; written by checkpointLoop, read after ckptDone
	marks     map[string]counters
	// The table's telemetry histograms, as httpapi and the estimator
	// registered them.
	hists struct{ estimate, apply, publish, merge, batch *telemetry.Histogram }

	replayWAL, replayFb []float64 // per crash: wal.Open seconds, µs per replayed Feedback
	replayed            int       // records in the WAL tail
}

// counters are the layer counters read at a phase boundary.
type counters struct {
	at                                     int64 // span clock
	estimate, apply, publish, merge, batch hist
	bytes, syncs                           int64
	stats                                  sthist.TableStats
}

// hist is a telemetry histogram's running sum and count.
type hist struct {
	sum float64
	n   uint64
}

// meanSince is the mean of the observations made since a.
func (h hist) meanSince(a hist) float64 {
	if h.n == a.n {
		return 0
	}
	return (h.sum - a.sum) / float64(h.n-a.n)
}

func (s *inprocSystem) nodeURL() string { return "http://" + s.nodeAddr }

func (s *inprocSystem) url() string {
	if s.proxy != nil {
		return "http://" + s.frontAddr
	}
	return s.nodeURL()
}

func estimatorOptions(skipInit bool) sthist.Options {
	return sthist.Options{Buckets: buckets, Seed: clusterSeed, ValidateEvery: sthist.DefaultValidateEvery, SkipInitialization: skipInit}
}

// startInProcess assembles and serves the traced deployment, timing the
// set-up steps sthistd performs.
func startInProcess(in *inputs, dir string, res *Result) (*inprocSystem, error) {
	s := &inprocSystem{in: in, res: res, walDir: filepath.Join(dir, in.table), spans: newSpanLog(),
		fs: &countingFS{}, marks: map[string]counters{}, serveErrs: make(chan error, 2)}
	timed := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		res.set(name, time.Since(t).Seconds(), "s", 1)
		return err
	}
	err := timed("setup.read_s", func() error {
		f, err := os.Open(in.binPath)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only
		s.tab, err = dataset.ReadBinary(f)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := timed("setup.kdtree_s", func() error { _, err := index.BuildKDTree(s.tab); return err }); err != nil {
		return nil, err
	}
	if err := timed("setup.open_noinit_s", func() error { _, err := sthist.Open(s.tab, estimatorOptions(true)); return err }); err != nil {
		return nil, err
	}
	if err := timed("setup.open_s", func() error { s.est, err = sthist.Open(s.tab, estimatorOptions(false)); return err }); err != nil {
		return nil, err
	}

	// The same wiring sthistd performs with its default flags.
	s.tel = telemetry.New(telemetry.Options{TraceEvents: telemetry.DefaultTraceEvents, SlowThreshold: telemetry.DefaultSlowThreshold})
	s.srv = httpapi.NewServer()
	s.srv.SetMaxBodyBytes(httpapi.DefaultMaxBodyBytes)
	s.srv.SetFeedbackQueue(httpapi.DefaultFeedbackQueueDepth, httpapi.DefaultFeedbackBatchMax)
	s.srv.SetBatchWindow(0)
	s.srv.EnableTelemetry(s.tel)
	s.log, _, err = wal.Open(s.walDir, wal.Options{FS: s.fs, Sync: wal.SyncAlways,
		Observer: walTap{next: s.tel.WAL(in.table), spans: s.spans}})
	if err != nil {
		return nil, err
	}
	if err := s.srv.RegisterDurable(in.table, s.est, s.log); err != nil {
		_ = s.log.Close()
		return nil, err
	}
	// Registry lookups return the series already registered under these
	// names; the help text and bounds only matter to a first registration.
	reg, lbl, lat := s.tel.Registry(), telemetry.L("table", in.table), telemetry.LatencyBuckets()
	s.hists.estimate = reg.Histogram("sthist_estimate_duration_seconds", "Serving-path estimate latency.", lat, lbl)
	s.hists.apply = reg.Histogram("sthist_feedback_duration_seconds", "Feedback round latency (drill + budget enforcement).", lat, lbl)
	s.hists.publish = reg.Histogram("sthist_snapshot_publish_duration_seconds", "Latency of publishing a new immutable histogram snapshot.", lat, lbl)
	s.hists.merge = reg.Histogram("sthist_merge_duration_seconds", "Latency of individual bucket merges.", lat, lbl)
	s.hists.batch = reg.Histogram("sthist_feedback_batch_size", "Observations per feedback group commit.", telemetry.ExponentialBuckets(1, 2, 12), lbl)
	s.stopCkpt, s.ckptDone = make(chan struct{}), make(chan struct{})
	go s.checkpointLoop()

	if s.nodeAddr, err = s.serve(s.spans.middleware("httpapi", s.srv.Handler()), 10*time.Second); err != nil {
		return nil, s.closeWith(err)
	}
	if in.w.Proxy {
		base, ok := http.DefaultTransport.(*http.Transport)
		if !ok {
			return nil, s.closeWith(errors.New("http.DefaultTransport is not an *http.Transport"))
		}
		// The proxy's own upstream pool: 64 idle connections per target.
		tr := base.Clone()
		tr.MaxIdleConnsPerHost, tr.MaxIdleConns = 64, 0
		s.proxy, err = cluster.NewProxy(cluster.ProxyOptions{
			Targets:   []string{s.nodeURL()},
			Replicas:  1,
			Transport: timedTransport{base: tr, spans: s.spans},
		})
		if err != nil {
			return nil, s.closeWith(err)
		}
		s.proxy.Start()
		if s.frontAddr, err = s.serve(s.spans.middleware("cluster", s.proxy.Handler()), 60*time.Second); err != nil {
			return nil, s.closeWith(err)
		}
	}
	return s, nil
}

// checkpointLoop is sthistd's periodic checkpointing.
func (s *inprocSystem) checkpointLoop() {
	defer close(s.ckptDone)
	d, _ := time.ParseDuration(checkpointEvery) // a valid constant
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-t.C:
			if err := s.srv.CheckpointDue(checkpointRecords); err != nil && s.ckptErr == nil {
				s.ckptErr = err
			}
		}
	}
}

func (s *inprocSystem) serve(h http.Handler, writeTimeout time.Duration) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: writeTimeout}
	s.servers = append(s.servers, hs)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.serveErrs <- err
		}
	}()
	return ln.Addr().String(), nil
}

// close shuts down in sthistd's order: stop serving, commit the queued
// feedback, stop checkpointing, take the final checkpoint, close the log.
func (s *inprocSystem) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(s.servers) - 1; i >= 0; i-- {
		errs = append(errs, s.servers[i].Shutdown(ctx))
	}
	if s.proxy != nil {
		s.proxy.Stop()
	}
	s.srv.SetDraining(true)
	s.srv.DrainFeedback()
	close(s.stopCkpt)
	<-s.ckptDone
	errs = append(errs, s.ckptErr, s.srv.CheckpointAll(), s.log.Close())
	select {
	case err := <-s.serveErrs:
		errs = append(errs, err)
	default:
	}
	return errors.Join(errs...)
}

func (s *inprocSystem) closeWith(err error) error {
	return errors.Join(err, s.close())
}

func (s *inprocSystem) mark(phase string) {
	read := func(h *telemetry.Histogram) hist { return hist{sum: h.Sum(), n: h.Count()} }
	s.marks[phase] = counters{
		at:       s.spans.now(),
		estimate: read(s.hists.estimate),
		apply:    read(s.hists.apply),
		publish:  read(s.hists.publish),
		merge:    read(s.hists.merge),
		batch:    read(s.hists.batch),
		bytes:    s.fs.bytes.Load(),
		syncs:    s.fs.syncs.Load(),
		stats:    s.est.StatsSnapshot(),
	}
}

// crash rebuilds the table from a copy of its WAL directory taken while
// the writer is idle: every acknowledged record is fsynced, so the copy is
// what a SIGKILL would leave. It times wal.Open on the copy and the
// estimator's replay of the tail, as sthistd's recovery performs them.
func (s *inprocSystem) crash(ctx context.Context, c *client, in *inputs, want []float64) (float64, int, error) {
	cp := fmt.Sprintf("%s-crash%d", s.walDir, len(s.replayWAL))
	if err := copyDir(s.walDir, cp); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	l, rc, err := wal.Open(cp, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = l.Close() }() // a throwaway copy
	walS := time.Since(t0).Seconds()
	est, err := sthist.Open(s.tab, estimatorOptions(rc.Snapshot != nil))
	if err != nil {
		return 0, 0, err
	}
	if rc.Snapshot != nil {
		if err := est.LoadHistogram(bytes.NewReader(rc.Snapshot)); err != nil {
			return 0, 0, err
		}
	}
	var apply time.Duration
	for _, r := range rc.Records {
		q, err := sthist.NewRect(r.Lo, r.Hi)
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		err = est.Feedback(q, r.Actual)
		apply += time.Since(t)
		if err != nil {
			return 0, 0, err
		}
	}
	recoverS := time.Since(t0).Seconds()
	got := make([]float64, len(in.probes))
	for i, q := range in.probes {
		got[i] = est.Estimate(q)
	}
	s.replayWAL = append(s.replayWAL, walS)
	s.replayFb = append(s.replayFb, apply.Seconds()/float64(max(len(rc.Records), 1))*1e6)
	s.replayed = len(rc.Records)
	return recoverS, diffBits(got, want), nil
}

// runInProcess runs a workload against the traced deployment and reports
// the per-layer metrics.
func runInProcess(ctx context.Context, cfg Config, in *inputs, dir string) (*Result, error) {
	res := &Result{Workload: in.w.Name}
	s, err := startInProcess(in, dir, res)
	if err != nil {
		return nil, err
	}
	c := newClient(s.spans)
	defer c.close()
	ph, err := drive(ctx, s, c, in, res, cfg)
	if err != nil {
		return nil, s.closeWith(err)
	}
	s.layers(ph)
	if err := s.close(); err != nil {
		return nil, err
	}
	if cfg.Spans != "" {
		if err := s.spans.write(cfg.Spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers sets the per-layer metrics from the spans and counters.
func (s *inprocSystem) layers(ph *phases) {
	res := s.res
	a, b, end := s.marks["fixed-start"], s.marks["fixed-end"], s.marks["peak-end"]
	us := func(ns float64) float64 { return ns / 1e3 }
	ops := breakdown(s.spans.snapshot(), a.at, b.at)
	est, fb := ops[opEstimate], ops[opFeedback]
	res.clientMean = exchangeMean(ph.fixed)

	// Per-request layer times at the handler boundaries.
	pick := func(ts []opTrace, f func(opTrace) int64) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = us(float64(f(t)))
		}
		return out
	}
	node := func(t opTrace) int64 { return t.node }
	res.set("httpapi.estimate_us_p50", percentile(pick(est, node), 0.50), "us", len(est))
	res.set("httpapi.estimate_us_p99", percentile(pick(est, node), 0.99), "us", len(est))
	res.set("httpapi.feedback_us_p50", percentile(pick(fb, node), 0.50), "us", len(fb))
	res.set("httpapi.feedback_us_p99", percentile(pick(fb, node), 0.99), "us", len(fb))
	if s.proxy != nil {
		self := pick(est, func(t opTrace) int64 { return t.cluster - t.upstream })
		res.set("cluster.self_us_p50", percentile(self, 0.50), "us", len(est))
		res.set("cluster.upstream_us_p50", percentile(pick(est, func(t opTrace) int64 { return t.upstream }), 0.50), "us", len(est))
		attempts := 0
		for _, t := range append(append([]opTrace(nil), est...), fb...) {
			attempts += t.attempts
		}
		res.set("cluster.attempts_per_op", float64(attempts)/float64(len(est)+len(fb)), "count", len(est)+len(fb))
	}

	// The sthist layer's own time per request, from the telemetry the
	// estimator records: one Estimate per estimate, and per feedback the
	// apply and publish of its group-commit batch.
	estUs := b.estimate.meanSince(a.estimate) * 1e6
	batches := float64(b.batch.n - a.batch.n)
	applyUs := 0.0
	if batches > 0 {
		applyUs = (b.apply.sum - a.apply.sum + b.publish.sum - a.publish.sum) / batches * 1e6
	}
	neg := s.selfTimes("estimate", est, estUs)
	neg = append(neg, s.selfTimes("feedback", fb, applyUs)...)
	res.check("self_times_nonnegative", len(neg) == 0, fmt.Sprint(neg))

	res.set("httpapi.batch_obs_mean", b.batch.meanSince(a.batch), "count", int(b.batch.n-a.batch.n))
	var fbTries, pressured int
	for _, p := range [][]sample{ph.fixed, ph.peak} {
		for _, x := range p {
			if x.kind == opFeedback {
				fbTries++
				if x.code == http.StatusTooManyRequests {
					pressured++
				}
			}
		}
	}
	res.set("httpapi.backpressure_frac", float64(pressured)/float64(max(fbTries, 1)), "ratio", fbTries)

	var appendUs, fsyncUs, ckptMs []float64
	for _, sp := range s.spans.snapshot() {
		inFixed := sp.End >= a.at && sp.End < b.at
		switch {
		case sp.Name == "wal.append" && inFixed:
			appendUs = append(appendUs, us(float64(sp.dur())))
		case sp.Name == "wal.fsync" && inFixed:
			fsyncUs = append(fsyncUs, us(float64(sp.dur())))
		case sp.Name == "wal.checkpoint":
			ckptMs = append(ckptMs, float64(sp.dur())/1e6)
		}
	}
	fixedFb := float64(max(acks(ph.fixed), 1))
	res.set("wal.append_us_mean", mean(appendUs), "us", len(appendUs))
	res.set("wal.fsync_us_mean", mean(fsyncUs), "us", len(fsyncUs))
	res.set("wal.fsyncs_per_fb", float64(b.syncs-a.syncs)/fixedFb, "count", int(fixedFb))
	res.set("wal.bytes_per_fb", float64(b.bytes-a.bytes)/fixedFb, "B", int(fixedFb))
	res.set("wal.checkpoint_ms_mean", mean(ckptMs), "ms", len(ckptMs))
	res.set("wal.replay_s", minOf(s.replayWAL), "s", s.replayed)
	res.set("sthist.replay_fb_us_mean", minOf(s.replayFb), "us", s.replayed)

	res.set("sthist.apply_us_mean", b.apply.meanSince(a.apply)*1e6, "us", int(b.apply.n-a.apply.n))
	res.set("sthist.publish_us_mean", b.publish.meanSince(a.publish)*1e6, "us", int(b.publish.n-a.publish.n))
	res.set("sthole.merge_us_mean", b.merge.meanSince(a.merge)*1e6, "us", int(b.merge.n-a.merge.n))

	// Maintenance counters per feedback round of the fixed phase; the
	// structure at the end of the run.
	rounds := float64(max(b.stats.Queries-a.stats.Queries, 1))
	merges := b.stats.ParentChildMerges + b.stats.SiblingMerges - a.stats.ParentChildMerges - a.stats.SiblingMerges
	res.set("sthole.drills_per_fb", float64(b.stats.Drills-a.stats.Drills)/rounds, "count", int(rounds))
	res.set("sthole.skipped_per_fb", float64(b.stats.SkippedExactDrills-a.stats.SkippedExactDrills)/rounds, "count", int(rounds))
	res.set("sthole.merges_per_fb", float64(merges)/rounds, "count", int(rounds))
	res.set("sthole.buckets", float64(end.stats.Buckets), "count", 1)
	res.set("sthole.depth", float64(end.stats.TreeDepth), "count", 1)

	// Estimate on the final snapshot, in a loop long enough to time.
	const reps = 20
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range s.in.probes {
			s.est.Estimate(q)
		}
	}
	res.set("sthist.estimate_us_mean", time.Since(t).Seconds()/float64(reps*len(s.in.probes))*1e6, "us", reps*len(s.in.probes))
}

// selfTimes sets the mean time each layer spends on one operation type
// itself, excluding the layers it calls, and returns the names of any that
// came out negative. The layers add up to the outermost server span, so
// unaccounted is the client time no server layer sees: both net/http
// stacks, loopback and the client's own encoding.
func (s *inprocSystem) selfTimes(kind string, ts []opTrace, sthistUs float64) []string {
	m := func(f func(opTrace) int64) float64 {
		sum := 0.0
		for _, t := range ts {
			sum += float64(f(t))
		}
		return sum / float64(max(len(ts), 1)) / 1e3
	}
	n := len(ts)
	client := m(func(t opTrace) int64 { return t.client })
	walUs := m(func(t opTrace) int64 { return t.wal })
	self := map[string]float64{
		kind + ".httpapi_self_us_mean": m(func(t opTrace) int64 { return t.node }) - walUs - sthistUs,
		kind + ".sthist_us_mean":       sthistUs,
		kind + ".unaccounted_us_mean":  client - m(opTrace.top),
	}
	if kind == opFeedback.String() {
		self["feedback.wal_us_mean"] = walUs
	}
	if s.proxy != nil {
		self[kind+".cluster_self_us_mean"] = m(func(t opTrace) int64 { return t.cluster - t.upstream })
		self[kind+".upstream_self_us_mean"] = m(func(t opTrace) int64 { return t.upstream - t.node })
	}
	s.res.set(kind+".client_us_mean", client, "us", n)
	var neg []string
	for name, v := range self {
		s.res.set(name, v, "us", n)
		if v < 0 {
			neg = append(neg, fmt.Sprintf("%s=%.1f", name, v))
		}
	}
	return neg
}

// exchangeMean is the mean HTTP exchange time of the successful samples,
// in seconds, excluding time spent waiting for a sender.
func exchangeMean(ss []sample) float64 {
	var xs []float64
	for _, s := range ss {
		if s.ok() {
			xs = append(xs, s.end-s.start)
		}
	}
	return mean(xs)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }() // read-only
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

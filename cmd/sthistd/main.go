// Command sthistd serves self-tuning selectivity estimators over HTTP.
// Tables come from CSV/binary files or the paper's generators; each gets a
// subspace-cluster-initialized histogram. Clients estimate via POST
// /estimate and keep the histograms fresh via POST /feedback (see
// internal/httpapi for the routes).
//
// Usage:
//
//	sthistd -addr :8080 -table orders=orders.csv -table sky=@sky:0.02
//
// A table spec is NAME=PATH for a file, or NAME=@DATASET:SCALE for a
// generated dataset.
//
// With -data-dir set, every table becomes crash-safe: accepted feedback is
// appended to a per-table write-ahead log under <data-dir>/<table>/ before
// it is applied, and the histogram is checkpointed periodically (see
// internal/wal). On startup the daemon restores the latest checkpoint and
// replays the log tail, so a crash or kill loses at most the records after
// the last fsync.
//
// Feedback is group-committed: each table has a single writer goroutine
// draining a bounded queue (-feedback-queue), so concurrent requests
// coalesce into one WAL append + fsync per batch (-feedback-batch caps the
// batch). A full queue answers 429 with Retry-After instead of buffering
// unboundedly.
//
// With -warm-from set (and -data-dir), a freshly provisioned node promotes
// itself from a live peer before serving: each table with no local durable
// state fetches GET /snapshot from the given base URL and restores the
// archive into its WAL directory, so recovery proceeds from the source's
// checkpoint + WAL tail exactly as if the source's directory had been copied.
// Tables that already have local state skip the fetch.
//
// With -drift set, each table additionally runs the drift-adaptation loop
// (see internal/drift): a detector watches the rolling NAE from telemetry
// and, when the error stays above -drift-nae for -drift-window consecutive
// rounds, re-clusters a reservoir of recent feedback into a candidate
// histogram, shadow-scores it against the live one for -reseed-probation
// rounds, and atomically promotes it if it wins. Promotions are journaled to
// the WAL as reseed records, so recovery replays them exactly.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /healthz flips to 503,
// in-flight requests drain, the feedback queues commit their tails, and
// every table is checkpointed before the process exits — feedback that was
// answered 200 is on disk. Drift interacts cleanly with the drain: a
// promotion that happened is already journaled (and captured by the final
// checkpoint), while an unresolved probation or in-flight candidate build is
// simply discarded — if the drift is real, the detector fires again after
// restart once the feedback floor is met.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/drift"
	"sthist/internal/httpapi"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
	"sthist/internal/wal"
)

// tableSpecs collects repeated -table flags.
type tableSpecs []string

func (t *tableSpecs) String() string { return strings.Join(*t, ",") }

func (t *tableSpecs) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// config is the parsed command line.
type config struct {
	addr          string
	debugAddr     string
	dataDir       string
	warmFrom      string
	fsync         string
	ckptInterval  time.Duration
	ckptRecords   int
	readTimeout   time.Duration
	writeTimeout  time.Duration
	maxBody       int64
	shutdownGrace time.Duration
	queueDepth    int
	batchMax      int
	drift         bool
	driftCfg      drift.Config
}

// daemon is the assembled server: the HTTP surface plus the write-ahead
// logs it must checkpoint and close on the way down.
type daemon struct {
	srv  *httpapi.Server
	cfg  config
	logs map[string]*wal.Log
	tel  *telemetry.Telemetry
}

func main() {
	d, err := setup(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sthistd:", err)
		os.Exit(1)
	}
	// The pacer's next heap goal is twice what the last collection left
	// live. Set-up's last collection can run while its temporaries, such as
	// MineClus's buffers, are still live, and serving would then fill twice
	// that. Collecting once here bases the goal on what serving keeps.
	runtime.GC()
	if err := d.run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "sthistd:", err)
		os.Exit(1)
	}
}

// setup parses flags, loads every table (recovering durable state when
// -data-dir is set) and returns the ready daemon.
func setup(args []string) (*daemon, error) {
	fs := flag.NewFlagSet("sthistd", flag.ContinueOnError)
	var specs tableSpecs
	fs.Var(&specs, "table", "table spec NAME=PATH or NAME=@DATASET:SCALE (repeatable)")
	addr := fs.String("addr", ":8080", "listen address")
	buckets := fs.Int("buckets", 100, "histogram bucket budget per table")
	seed := fs.Int64("seed", 1, "clustering seed")
	validateEvery := fs.Int("validate-every", sthist.DefaultValidateEvery,
		"verify histogram invariants every N feedbacks (negative disables)")
	dataDir := fs.String("data-dir", "", "directory for per-table WAL + checkpoints (empty = no durability)")
	warmFrom := fs.String("warm-from", "",
		"base URL of a live sthistd or sthproxy to warm-start from: each durable table with no local state fetches GET /snapshot and restores it before recovery (replica promotion)")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always or none")
	ckptInterval := fs.Duration("checkpoint-interval", 30*time.Second, "how often to consider checkpointing")
	ckptRecords := fs.Int("checkpoint-records", 1024, "checkpoint a table once this many records accumulate in its WAL")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second, "HTTP write timeout")
	maxBody := fs.Int64("max-body", httpapi.DefaultMaxBodyBytes, "maximum request body size in bytes")
	shutdownGrace := fs.Duration("shutdown-grace", 15*time.Second, "how long to drain in-flight requests on shutdown")
	queueDepth := fs.Int("feedback-queue", httpapi.DefaultFeedbackQueueDepth,
		"per-table feedback queue depth; a full queue answers 429")
	batchMax := fs.Int("feedback-batch", httpapi.DefaultFeedbackBatchMax,
		"maximum observations per feedback group commit")
	telemetryOn := fs.Bool("telemetry", true, "enable metrics and rolling accuracy tracking")
	traceSample := fs.Float64("trace-sample", 0,
		"probability of head-sampling a distributed trace per request (0 disables tracing, 1 traces everything; slow and failed traces are tail-retained regardless)")
	slowQuery := fs.Duration("slow-query", telemetry.DefaultSlowThreshold,
		"feedback rounds at or above this latency count in sthist_slow_feedback_total, and with -trace-sample their traces are kept (0 disables)")
	debugAddr := fs.String("debug-addr", "", "separate listen address for /debug/pprof and /metrics (empty = off)")
	driftOn := fs.Bool("drift", false, "enable drift-adaptive re-seeding (requires -telemetry)")
	driftDefaults := drift.DefaultConfig()
	driftNAE := fs.Float64("drift-nae", driftDefaults.NAEThreshold,
		"rolling NAE above which the workload counts as drifted")
	driftWindow := fs.Int("drift-window", driftDefaults.Sustain,
		"consecutive over-threshold rounds before the detector fires")
	driftMinRounds := fs.Int("drift-min-rounds", driftDefaults.MinRounds,
		"feedback rounds the rolling window must cover before the detector arms")
	driftCooldown := fs.Int("drift-cooldown", driftDefaults.Cooldown,
		"rounds ignored after a probation resolves before the detector can fire again")
	driftReservoir := fs.Int("drift-reservoir", driftDefaults.ReservoirSize,
		"feedback reservoir capacity the re-seeder clusters")
	reseedProbation := fs.Int("reseed-probation", driftDefaults.Probation,
		"rounds a re-seeded candidate is shadow-scored before promote/reject")
	reseedRatio := fs.Float64("reseed-ratio", driftDefaults.PromoteRatio,
		"promote the candidate when its probation error is <= ratio * live error")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("at least one -table is required")
	}
	var sync wal.SyncPolicy
	switch *fsync {
	case "always":
		sync = wal.SyncAlways
	case "none":
		sync = wal.SyncNever
	default:
		return nil, fmt.Errorf("bad -fsync %q (want always or none)", *fsync)
	}
	if *queueDepth < 1 {
		return nil, fmt.Errorf("bad -feedback-queue %d (want >= 1)", *queueDepth)
	}
	if *batchMax < 1 {
		return nil, fmt.Errorf("bad -feedback-batch %d (want >= 1)", *batchMax)
	}
	if *ckptInterval <= 0 {
		return nil, fmt.Errorf("bad -checkpoint-interval %v (want > 0)", *ckptInterval)
	}
	if *ckptRecords < 1 {
		return nil, fmt.Errorf("bad -checkpoint-records %d (want >= 1)", *ckptRecords)
	}
	if *traceSample < 0 || *traceSample > 1 {
		return nil, fmt.Errorf("bad -trace-sample %v (want 0..1)", *traceSample)
	}
	dcfg := drift.Config{
		NAEThreshold:  *driftNAE,
		Sustain:       *driftWindow,
		MinRounds:     *driftMinRounds,
		Cooldown:      *driftCooldown,
		ReservoirSize: *driftReservoir,
		Probation:     *reseedProbation,
		PromoteRatio:  *reseedRatio,
	}
	if *driftOn {
		if !*telemetryOn {
			return nil, fmt.Errorf("-drift needs -telemetry (the detector reads the rolling NAE)")
		}
		if err := dcfg.Sanitize(); err != nil {
			return nil, err
		}
	}

	d := &daemon{
		srv: httpapi.NewServer(),
		cfg: config{
			addr:          *addr,
			debugAddr:     *debugAddr,
			dataDir:       *dataDir,
			warmFrom:      *warmFrom,
			fsync:         *fsync,
			ckptInterval:  *ckptInterval,
			ckptRecords:   *ckptRecords,
			readTimeout:   *readTimeout,
			writeTimeout:  *writeTimeout,
			maxBody:       *maxBody,
			shutdownGrace: *shutdownGrace,
			queueDepth:    *queueDepth,
			batchMax:      *batchMax,
			drift:         *driftOn,
			driftCfg:      dcfg,
		},
		logs: make(map[string]*wal.Log),
	}
	d.srv.SetMaxBodyBytes(*maxBody)
	// Queue settings apply to tables registered afterwards, so they must be
	// in place before the -table loop below.
	d.srv.SetFeedbackQueue(*queueDepth, *batchMax)
	if *telemetryOn {
		slow := *slowQuery
		if slow == 0 {
			slow = -1 // Options: negative disables, zero means default
		}
		d.tel = telemetry.New(telemetry.Options{SlowThreshold: slow})
		d.srv.EnableTelemetry(d.tel)
	}
	if *traceSample > 0 {
		// Slow-trace tail retention follows the same threshold that counts a
		// feedback round as slow, so a kept trace and the slow counter agree
		// on what "slow" means.
		slow := *slowQuery
		if slow == 0 {
			slow = -1
		}
		d.srv.SetTracer(trace.New(trace.Options{
			Service:       "sthistd:" + *addr,
			SampleRate:    *traceSample,
			SlowThreshold: slow,
		}))
	}

	opts := sthist.Options{Buckets: *buckets, Seed: *seed, ValidateEvery: *validateEvery}
	for _, spec := range specs {
		name, src, ok := strings.Cut(spec, "=")
		if !ok || name == "" || src == "" {
			d.closeLogs()
			return nil, fmt.Errorf("bad table spec %q (want NAME=PATH or NAME=@DATASET:SCALE)", spec)
		}
		tab, err := loadTable(src, *seed)
		if err != nil {
			d.closeLogs()
			return nil, fmt.Errorf("loading table %q: %w", name, err)
		}
		if *dataDir == "" {
			est, err := sthist.Open(tab, opts)
			if err != nil {
				d.closeLogs()
				return nil, fmt.Errorf("opening estimator for %q: %w", name, err)
			}
			if err := d.srv.Register(name, est); err != nil {
				d.closeLogs()
				return nil, err
			}
		} else {
			if d.cfg.warmFrom != "" {
				d.warmTable(name)
			}
			if err := d.openDurable(name, tab, opts, sync); err != nil {
				d.closeLogs()
				return nil, err
			}
		}
		if d.cfg.drift {
			if err := d.srv.EnableDrift(name, d.cfg.driftCfg); err != nil {
				d.closeLogs()
				return nil, fmt.Errorf("enabling drift for %q: %w", name, err)
			}
		}
	}
	return d, nil
}

// warmTable is the replica-promotion path: when the table has no local
// durable state yet, fetch a snapshot archive from -warm-from and restore it
// into the table's WAL directory. Recovery then proceeds normally from the
// restored checkpoint + WAL tail, bit-identical to recovering the source's
// own directory. Failures are logged and non-fatal — the table just starts
// cold, which is the same behavior as no -warm-from at all.
func (d *daemon) warmTable(name string) {
	dir := filepath.Join(d.cfg.dataDir, name)
	if wal.HasState(dir) {
		log.Printf("sthistd: table %q: local state exists; skipping warm-from", name)
		return
	}
	url := strings.TrimSuffix(d.cfg.warmFrom, "/") + "/snapshot?table=" + name
	client := &http.Client{Timeout: 30 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		log.Printf("sthistd: table %q: warm-from request invalid (%v); starting cold", name, err)
		return
	}
	trace.InjectContext(ctx, req)
	resp, err := client.Do(req)
	if err != nil {
		log.Printf("sthistd: table %q: warm-from fetch failed (%v); starting cold", name, err)
		return
	}
	defer func() { _ = resp.Body.Close() }() // best-effort fetch; errors already surfaced below
	if resp.StatusCode != http.StatusOK {
		log.Printf("sthistd: table %q: warm-from source answered %d; starting cold", name, resp.StatusCode)
		return
	}
	if err := wal.RestoreArchive(dir, wal.Options{}, resp.Body); err != nil {
		log.Printf("sthistd: table %q: warm-from restore rejected (%v); starting cold", name, err)
		return
	}
	log.Printf("sthistd: table %q: warm-started from %s (last seq %s)", name, d.cfg.warmFrom, resp.Header.Get("X-Sthist-Last-Seq"))
}

// openDurable opens the table's WAL directory, rebuilds the estimator from
// it with httpapi.RecoverTable and registers the result.
func (d *daemon) openDurable(name string, tab *sthist.Table, opts sthist.Options, sync wal.SyncPolicy) error {
	dir := filepath.Join(d.cfg.dataDir, name)
	wopts := wal.Options{Sync: sync}
	if d.tel != nil {
		wopts.Observer = d.tel.WAL(name)
	}
	l, rc, err := wal.Open(dir, wopts)
	if err != nil {
		return fmt.Errorf("opening wal for %q: %w", name, err)
	}
	if rc.SnapshotErr != nil {
		log.Printf("sthistd: table %q: checkpoint unreadable (%v); re-seeding from data and replaying the log", name, rc.SnapshotErr)
	}
	if rc.Torn {
		log.Printf("sthistd: table %q: torn record at log tail truncated (crash mid-write)", name)
	}
	est, rv, err := httpapi.RecoverTable(tab, opts, rc)
	if err != nil {
		_ = l.Close()
		return fmt.Errorf("opening estimator for %q: %w", name, err)
	}
	if rv.CheckpointErr != nil {
		log.Printf("sthistd: table %q: rejecting checkpoint snapshot (%v); re-seeding from data", name, rv.CheckpointErr)
	}
	if rv.Reseeds > 0 {
		log.Printf("sthistd: table %q: replayed %d re-seed promotion(s)", name, rv.Reseeds)
	}
	if rv.Rejected > 0 {
		log.Printf("sthistd: table %q: %d of %d replayed records rejected", name, rv.Rejected, len(rc.Records))
	}
	if len(rc.Records) > 0 || rc.Snapshot != nil {
		log.Printf("sthistd: table %q: recovered checkpoint=%v, replayed %d records (last seq %d)",
			name, rv.Checkpoint, len(rc.Records), l.LastSeq())
	}
	if err := d.srv.RegisterDurable(name, est, l); err != nil {
		_ = l.Close()
		return err
	}
	d.logs[name] = l
	return nil
}

func (d *daemon) closeLogs() {
	for name, l := range d.logs {
		if err := l.Close(); err != nil {
			log.Printf("sthistd: closing wal for %q: %v", name, err)
		}
	}
}

// run serves until the context is cancelled or a signal arrives, then
// drains, checkpoints every durable table and closes the logs.
func (d *daemon) run(ctx context.Context) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{
		Addr:         d.cfg.addr,
		Handler:      d.srv.Handler(),
		ReadTimeout:  d.cfg.readTimeout,
		WriteTimeout: d.cfg.writeTimeout,
	}

	// Shutdown-path gauges: how long the last ticker checkpoint pass took,
	// and how long the SIGTERM drain took (set once, on the way down, so a
	// final scrape — or a test — can read it).
	var ckptPassDur, drainDur *telemetry.Gauge
	if d.tel != nil {
		reg := d.tel.Registry()
		ckptPassDur = reg.Gauge("sthist_checkpoint_pass_duration_seconds",
			"Duration of the last periodic checkpoint pass over all due tables.", nil)
		drainDur = reg.Gauge("sthist_drain_duration_seconds",
			"Duration of the in-flight request drain during graceful shutdown.", nil)
	}

	// Periodic checkpointing: rotate any WAL that accumulated enough
	// records, and retry failed ones (a successful checkpoint heals a WAL
	// whose append errored).
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		t := time.NewTicker(d.cfg.ckptInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				start := time.Now()
				if err := d.srv.CheckpointDue(d.cfg.ckptRecords); err != nil {
					log.Printf("sthistd: checkpoint: %v", err)
				}
				if ckptPassDur != nil {
					ckptPassDur.Set(time.Since(start).Seconds())
				}
			}
		}
	}()

	// Optional debug listener: pprof plus /metrics, on an address that can
	// stay firewalled off from estimator traffic.
	var ds *http.Server
	if d.cfg.debugAddr != "" {
		ds = &http.Server{Addr: d.cfg.debugAddr, Handler: d.debugHandler()}
		go func() {
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("sthistd: debug listener: %v", err)
			}
		}()
		log.Printf("sthistd debug listener on %s", d.cfg.debugAddr)
	}

	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	log.Printf("sthistd listening on %s (durable tables: %d)", d.cfg.addr, len(d.logs))

	select {
	case err := <-errc:
		d.srv.DrainFeedback()
		d.closeLogs()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop advertising readiness, drain in-flight
	// requests, then checkpoint so the WAL tail is empty on a clean exit.
	log.Printf("sthistd: shutting down")
	d.srv.SetDraining(true)
	shCtx, cancel := context.WithTimeout(context.Background(), d.cfg.shutdownGrace)
	defer cancel()
	drainStart := time.Now()
	if err := hs.Shutdown(shCtx); err != nil {
		log.Printf("sthistd: drain: %v", err)
	}
	if drainDur != nil {
		drainDur.Set(time.Since(drainStart).Seconds())
		log.Printf("sthistd: drained in %v", time.Since(drainStart).Round(time.Millisecond))
	}
	// HTTP drain done: no new feedback can arrive. Commit every queued tail
	// (each acknowledged observation reaches the WAL) before the final
	// checkpoint empties the logs.
	d.srv.DrainFeedback()
	<-ckptDone
	if err := d.srv.CheckpointAll(); err != nil {
		log.Printf("sthistd: final checkpoint: %v", err)
	}
	if ds != nil {
		_ = ds.Close()
	}
	d.closeLogs()
	log.Printf("sthistd: bye")
	return nil
}

// debugHandler mounts net/http/pprof alongside /metrics on the -debug-addr
// listener.
func (d *daemon) debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if d.tel != nil {
		mux.Handle("/metrics", d.tel.MetricsHandler())
	}
	return mux
}

// loadTable reads a CSV/binary file, or generates @DATASET:SCALE.
func loadTable(src string, seed int64) (*sthist.Table, error) {
	if strings.HasPrefix(src, "@") {
		dsName, scaleStr, _ := strings.Cut(strings.TrimPrefix(src, "@"), ":")
		scale := 0.02
		if scaleStr != "" {
			v, err := strconv.ParseFloat(scaleStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad scale %q: %w", scaleStr, err)
			}
			scale = v
		}
		ds, err := datagen.ByName(dsName, scale, seed)
		if err != nil {
			return nil, err
		}
		return ds.Table, nil
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only handle
	if strings.HasSuffix(src, ".bin") {
		return dataset.ReadBinary(f)
	}
	return sthist.LoadCSV(f)
}

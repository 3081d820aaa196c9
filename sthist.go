// Package sthist is a self-tuning multidimensional histogram library for
// selectivity estimation, reproducing "Improving Accuracy and Robustness of
// Self-Tuning Histograms by Subspace Clustering" (Khachatryan, Müller,
// Stier, Böhm — ICDE 2016 / TKDE).
//
// The library provides:
//
//   - an STHoles self-tuning histogram (Bruno et al., SIGMOD 2001) that
//     refines itself from query feedback,
//   - the MineClus subspace clustering algorithm (Yiu & Mamoulis, ICDM
//     2003), and
//   - the paper's contribution: seeding the histogram with buckets derived
//     from subspace clusters, which roughly halves estimation error and
//     makes the histogram robust to query order.
//
// # Quick start
//
//	tab, _ := sthist.LoadCSV(file)
//	est, _ := sthist.Open(tab, sthist.Options{Buckets: 100})
//	selectivity := est.Estimate(q) // q is a sthist.Rect range predicate
//	// ... execute the query, observe the true cardinality ...
//	est.Feedback(q, actual) // the histogram refines itself
//
// See the examples/ directory for runnable end-to-end scenarios and the
// internal packages for the full machinery (each is documented).
package sthist

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"sthist/internal/core"
	"sthist/internal/dataset"
	"sthist/internal/geom"
	"sthist/internal/index"
	"sthist/internal/metrics"
	"sthist/internal/mineclus"
	"sthist/internal/sthole"
	"sthist/internal/telemetry"
	"sthist/internal/workload"
)

// Re-exported building blocks. Aliases keep the public API a single import
// while the implementation stays in focused internal packages.
type (
	// Rect is an axis-parallel n-dimensional rectangle (a conjunctive range
	// predicate over numeric attributes).
	Rect = geom.Rect
	// Point is a tuple location in attribute-value space.
	Point = geom.Point
	// Table is an in-memory column-oriented relation.
	Table = dataset.Table
	// Histogram is the STHoles self-tuning histogram.
	Histogram = sthole.Histogram
	// Cluster is one subspace cluster found by MineClus.
	Cluster = mineclus.Cluster
	// ClusterConfig holds MineClus parameters (alpha, beta, width, ...).
	ClusterConfig = mineclus.Config
	// Round is the detail of one feedback round: the query, the estimate
	// before the round, the observed truth, drills, skipped drills, merges
	// (kind and Eq. 2 penalty) and duration. See Observation.Round.
	Round = telemetry.Round
)

// NewRect validates and builds a rectangle from its corners.
func NewRect(lo, hi []float64) (Rect, error) { return geom.NewRect(lo, hi) }

// NewTable creates an empty table with the given column names.
func NewTable(columns ...string) (*Table, error) { return dataset.New(columns...) }

// LoadCSV reads a table (header row, float64 cells) from r.
func LoadCSV(r io.Reader) (*Table, error) { return dataset.ReadCSV(r) }

// DefaultClusterConfig returns sensible MineClus defaults.
func DefaultClusterConfig() ClusterConfig { return mineclus.DefaultConfig() }

// GenerateWorkload draws n range queries of the given volume fraction with
// uniformly distributed centers over the domain — the paper's workload model
// (§5.1). Useful as input to Estimator.Train.
func GenerateWorkload(domain Rect, volumeFraction float64, n int, seed int64) ([]Rect, error) {
	return workload.Generate(domain, workload.Config{
		VolumeFraction: volumeFraction, N: n, Seed: seed,
	}, nil)
}

// Options configures Open.
type Options struct {
	// Buckets is the histogram budget (non-root buckets). Default 100.
	Buckets int
	// Domain optionally overrides the estimation domain; when zero-valued,
	// the table's bounding box is used. It must have the table's
	// dimensionality.
	Domain Rect
	// SkipInitialization disables the subspace-clustering seeding and
	// yields a plain (uninitialized) STHoles histogram.
	SkipInitialization bool
	// Clustering overrides the MineClus parameters; zero value = defaults.
	Clustering ClusterConfig
	// Seed drives clustering; deterministic per seed.
	Seed int64
	// ValidateEvery is the amortized self-check period: after every
	// ValidateEvery drills the histogram's structural invariants are
	// verified, and on violation the estimator quarantines the histogram
	// (see Estimator.Health). Default 64; negative disables the check.
	ValidateEvery int
}

// snapshot is the immutable serving state of an estimator: a read-only deep
// copy of the histogram plus the structural stats and health computed at
// publication time. A snapshot is fully constructed before it is stored in
// Estimator.snap and never written afterwards, so readers can use it without
// synchronization; old snapshots are reclaimed by the garbage collector once
// the last reader drops its reference (the RCU memory-reclamation argument).
type snapshot struct {
	hist   *sthole.Histogram
	stats  TableStats
	health Health
}

// Estimator is the user-facing selectivity estimator: an STHoles histogram,
// optionally initialized by subspace clustering. Open reads the table once,
// to cluster it and count the seed boxes; the estimator keeps no rows of it,
// only its tuple count. Simulations that need ground truth build it from
// their own table with ExactCounts.
//
// Estimator is safe for concurrent use and follows a read-copy-update
// design: Estimate, Selectivity, Health, StatsSnapshot, SaveHistogram, and
// Histogram are wait-free reads of an immutable published snapshot, while
// all mutation (Feedback, FeedbackWith, FeedbackBatch, Train, LoadHistogram,
// Quarantine) serializes on a writer mutex, drills a private working tree,
// and publishes a fresh snapshot whenever the tree or health state changed.
// A feedback round that drills nothing (the steady state) publishes nothing
// and stays allocation-free.
type Estimator struct {
	// snap is the published serving state; see type snapshot. Written only
	// by publishLocked under wmu, loaded without synchronization everywhere.
	snap atomic.Pointer[snapshot]

	total    float64   // tuples in the table at Open; immutable after Open
	domain   Rect      // immutable after Open
	clusters []Cluster // immutable after Open

	// Writer state: the private working tree and everything the mutation
	// path touches. wmu serializes writers; readers never take it.
	wmu  sync.Mutex
	work *sthole.Histogram // the live tree being drilled; guarded by wmu

	// Degradation state. The histogram is accumulated feedback; rather than
	// panicking or serving garbage when its invariants break (a bug, or a
	// caller mutating the working tree), the estimator quarantines it: the
	// working tree is replaced by the last validated snapshot (or, failing
	// that, a uniform single-bucket histogram) and serving continues.
	validateEvery int               // drills between invariant checks; <0 disables; immutable after Open
	sinceValidate int               // drills since the last check; guarded by wmu
	lastGood      *sthole.Histogram // last snapshot that passed Validate; guarded by wmu
	degraded      bool              // true from quarantine until a clean validate; guarded by wmu
	quarantines   int               // total quarantine events; guarded by wmu
	lastErr       error             // cause of the most recent quarantine; guarded by wmu

	// Maintenance counters mirrored from work.Stats after every round, so
	// StatsSnapshot stays wait-free and exact even between publications
	// (rounds that drill nothing bump Queries without publishing).
	ctrQueries atomic.Int64
	ctrDrills  atomic.Int64
	ctrSkipped atomic.Int64
	ctrPC      atomic.Int64
	ctrSib     atomic.Int64

	// Telemetry (optional, see SetRecorder). rec is nil when disabled; the
	// nil path adds a single branch to the feedback round and keeps it
	// allocation-free. mergeScratch collects the merges of the current round
	// (reused across rounds) via the tap installed on the histogram while a
	// recorder is attached or a caller asked for the round's detail.
	rec          *telemetry.Recorder
	mergeScratch []telemetry.MergeOp
}

// mergeTap adapts the estimator to sthole.MergeObserver without exposing the
// callback on the public API. It runs inside Drill, under the writer lock.
type mergeTap struct{ e *Estimator }

func (t mergeTap) ObserveMerge(kind sthole.MergeKind, penalty float64, start time.Time, d time.Duration) {
	t.e.mergeScratch = append(t.e.mergeScratch, telemetry.MergeOp{
		Kind: kind.String(), Penalty: penalty, Start: start, Nanos: d.Nanoseconds(),
	})
}

// SetRecorder wires a telemetry recorder into the estimator: every feedback
// round is folded into the rolling accuracy window and the round
// instruments, every merge is observed with its kind and penalty, and every
// snapshot publication records its latency. Pass nil to detach. Call before
// serving traffic — the recorder reference is read without synchronization
// on the validation fast path.
func (e *Estimator) SetRecorder(rec *telemetry.Recorder) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.rec = rec
	e.installTapLocked()
}

// installTapLocked (re)installs the merge tap on the working histogram;
// called whenever e.work is replaced (quarantine, LoadHistogram).
func (e *Estimator) installTapLocked() {
	if e.rec == nil {
		e.work.SetMergeObserver(nil)
		return
	}
	e.work.SetMergeObserver(mergeTap{e})
}

// DefaultValidateEvery is the default amortized invariant-check period, in
// drills.
const DefaultValidateEvery = 64

// Health describes the estimator's degradation state, exported by the
// /stats and /healthz endpoints of the HTTP server.
type Health struct {
	// State is "ok", or "degraded" after a quarantine until the rebuilt
	// histogram passes its next invariant check.
	State string `json:"state"`
	// Quarantines counts invariant violations (or recovered panics) that
	// forced a reset to the last good snapshot.
	Quarantines int `json:"quarantines"`
	// LastError describes the most recent quarantine cause.
	LastError string `json:"last_error,omitempty"`
	// ValidateEvery is the amortized check period in drills (0 = disabled).
	ValidateEvery int `json:"validate_every"`
}

// Open builds an estimator over the table: it runs MineClus (unless
// disabled) and seeds a histogram with the clusters, counting each seed box
// exactly with a k-d tree built beside the clustering. The estimator keeps
// no reference to the table or the tree.
func Open(tab *Table, opts Options) (*Estimator, error) {
	if tab.Len() == 0 {
		return nil, fmt.Errorf("sthist: empty table")
	}
	if d := opts.Domain.Dims(); d != 0 && d != tab.Dims() {
		return nil, fmt.Errorf("sthist: domain has %d dimensions, table has %d", d, tab.Dims())
	}
	if opts.Buckets == 0 {
		opts.Buckets = 100
	}
	domain := opts.Domain
	if domain.Dims() == 0 {
		var err error
		if domain, err = tab.Bounds(); err != nil {
			return nil, err
		}
		// Inflate degenerate sides so the domain has volume.
		for d := range domain.Lo {
			if domain.Hi[d] <= domain.Lo[d] {
				domain.Hi[d] = domain.Lo[d] + 1
			}
		}
	}
	total := float64(tab.Len())
	hist, err := sthole.New(domain, opts.Buckets, total)
	if err != nil {
		return nil, err
	}
	e := &Estimator{work: hist, total: total, domain: domain}
	switch {
	case opts.ValidateEvery > 0:
		e.validateEvery = opts.ValidateEvery
	case opts.ValidateEvery == 0:
		e.validateEvery = DefaultValidateEvery
	} // negative: disabled (stays 0)
	if !opts.SkipInitialization {
		if e.clusters, err = seed(hist, tab, domain, opts); err != nil {
			return nil, err
		}
	}
	e.lastGood = e.work.Clone()
	e.publishLocked()
	return e, nil
}

// seed runs MineClus on tab and initializes hist with the clusters. Only the
// seed counts read the exact-count index, so it is built beside the
// clustering and dropped on return. Every return joins the build.
func seed(hist *sthole.Histogram, tab *Table, domain Rect, opts Options) ([]Cluster, error) {
	var (
		count    func(Rect) float64
		countErr error
		built    sync.WaitGroup
	)
	built.Add(1)
	go func() {
		defer built.Done()
		count, countErr = ExactCounts(tab)
	}()
	defer built.Wait()
	ccfg := opts.Clustering
	if ccfg.Alpha == 0 && ccfg.Beta == 0 && ccfg.Width == 0 && len(ccfg.Widths) == 0 {
		ccfg = mineclus.DefaultConfig()
		// Real relations have heterogeneous attribute scales, so the default
		// medoid-box width is per dimension: 6% of each attribute's extent.
		ccfg.Width = 0
		ccfg.Widths = make([]float64, domain.Dims())
		for d := range ccfg.Widths {
			ccfg.Widths[d] = 0.06 * domain.Side(d)
		}
	}
	ccfg.Seed = opts.Seed
	clusters, err := mineclus.Run(tab, ccfg)
	if err != nil {
		return nil, err
	}
	built.Wait()
	if countErr != nil {
		return nil, countErr
	}
	// Exact counts instead of the uniformity-model fallback.
	if err := core.Initialize(hist, clusters, domain, core.Options{Count: count}); err != nil {
		return nil, err
	}
	// Nothing after seeding reads the member lists; Size keeps their counts.
	for i := range clusters {
		clusters[i].Rows = nil
	}
	return clusters, nil
}

// ExactCounts indexes tab and returns a function that counts its tuples
// inside a rectangle (boundaries inclusive): the ground truth a simulation
// feeds to Train, FeedbackWith and the error helpers. The index reads tab in
// place, so tab must not be modified while the function is in use; rows
// appended later are not counted.
func ExactCounts(tab *Table) (func(Rect) float64, error) {
	idx, err := index.BuildKDTree(tab)
	if err != nil {
		return nil, err
	}
	return func(r Rect) float64 { return float64(idx.Count(r)) }, nil
}

// Estimate returns the estimated number of tuples matching the range
// predicate q. The read is wait-free: it walks the current published
// snapshot and performs no locking and no allocation.
func (e *Estimator) Estimate(q Rect) float64 {
	return e.snap.Load().hist.Estimate(q)
}

// Selectivity returns Estimate(q) divided by the total tuple count, or 0
// when the estimator holds no tuples (instead of NaN). Wait-free.
func (e *Estimator) Selectivity(q Rect) float64 {
	_, sel := e.EstimateSelectivity(q)
	return sel
}

// EstimateSelectivity returns Estimate(q) and Selectivity(q) from one walk
// of one snapshot, so the pair agrees even while feedback publishes new
// snapshots. Wait-free.
func (e *Estimator) EstimateSelectivity(q Rect) (est, sel float64) {
	est = e.Estimate(q)
	if e.total > 0 {
		sel = est / e.total
	}
	return est, sel
}

// ValidateFeedback checks a feedback observation without applying it: the
// query must match the estimator's dimensionality and overlap its domain,
// and the actual count must be finite and non-negative. Feedback and
// FeedbackWith run the same checks; servers call this first so they can
// reject bad input before writing it to a write-ahead log.
func (e *Estimator) ValidateFeedback(q Rect, actual float64) error {
	if q.Dims() != e.domain.Dims() {
		return fmt.Errorf("sthist: feedback query has %d dimensions, estimator domain has %d", q.Dims(), e.domain.Dims())
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return fmt.Errorf("sthist: feedback actual count %g is not finite", actual)
	}
	if actual < 0 {
		return fmt.Errorf("sthist: feedback actual count %g is negative", actual)
	}
	if !q.Intersects(e.domain) {
		return fmt.Errorf("sthist: feedback query %v lies outside the estimation domain %v", q, e.domain)
	}
	return nil
}

// Feedback refines the histogram with the observed true cardinality of an
// executed query. Sub-region counts needed while drilling are interpolated
// from the observation under the uniformity assumption.
//
// Invalid observations (dimension mismatch, non-finite or negative actual,
// query outside the domain) are rejected with an error instead of being
// silently dropped, so client bugs surface instead of slowly starving the
// histogram of feedback.
func (e *Estimator) Feedback(q Rect, actual float64) error {
	if err := e.ValidateFeedback(q, actual); err != nil {
		e.rec.RecordRejected()
		return err
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	changed, err := e.drillLocked(q, nil, actual, nil)
	if changed {
		e.publishLocked()
	}
	return err
}

// FeedbackWith refines the histogram with exact sub-rectangle counts from an
// executed query. In a DBMS, STHoles counts the tuples of the streamed
// result that fall into each candidate hole, so per-sub-rectangle counts are
// exact; count must return the number of result tuples inside r (callers
// typically close over the scanned result set). Prefer this over Feedback
// when such counting is possible — scalar feedback has to interpolate and
// converges more slowly on skewed data.
func (e *Estimator) FeedbackWith(q Rect, count func(r Rect) float64) error {
	if q.Dims() != e.domain.Dims() {
		return fmt.Errorf("sthist: feedback query has %d dimensions, estimator domain has %d", q.Dims(), e.domain.Dims())
	}
	if count == nil {
		return fmt.Errorf("sthist: FeedbackWith needs a count function")
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	changed, err := e.drillLocked(q, count, 0, nil)
	if changed {
		e.publishLocked()
	}
	return err
}

// Observation is one feedback round for FeedbackBatch: the executed range
// predicate and its observed true cardinality.
type Observation struct {
	Query  Rect
	Actual float64
	// Round, when non-nil, receives the detail of the round that applied
	// this observation, as a recorder sees it. The merge list is copied into
	// Round.Merges, reusing its backing array. An observation that fails
	// (non-nil entry in FeedbackBatch's result) leaves Round untouched.
	// Asking costs a clock read and a pre-round estimate per observation.
	Round *Round
}

// FeedbackBatch applies a batch of observations under a single writer-lock
// acquisition and publishes at most one new snapshot for the whole batch —
// the group-apply half of the server's group-commit path. Each observation
// is validated and drilled exactly as Feedback would; the returned slice is
// aligned with obs, holding nil for every applied observation and the
// rejection or quarantine error otherwise. Applying continues past
// failures: one bad observation does not poison the batch.
func (e *Estimator) FeedbackBatch(obs []Observation) []error {
	if len(obs) == 0 {
		return nil
	}
	errs := make([]error, len(obs))
	e.wmu.Lock()
	defer e.wmu.Unlock()
	changed := false
	for i := range obs {
		q, actual := obs[i].Query, obs[i].Actual
		if err := e.ValidateFeedback(q, actual); err != nil {
			e.rec.RecordRejected()
			errs[i] = err
			continue
		}
		ch, err := e.drillLocked(q, nil, actual, obs[i].Round)
		changed = changed || ch
		errs[i] = err
	}
	if changed {
		e.publishLocked()
	}
	return errs
}

// Train replays a workload with the exact counts truth returns (see
// ExactCounts) — the simulation loop of the paper. Useful for warming up the
// histogram before serving estimates. The whole replay publishes one
// snapshot at the end.
func (e *Estimator) Train(queries []Rect, truth func(Rect) float64) {
	if truth == nil {
		// A nil count would make every round scalar feedback of 0.
		panic("sthist: Train needs a truth function")
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	changed := false
	for _, q := range queries {
		// A round with a count function has no observation to validate;
		// its only error is a recovered drill panic, which quarantines.
		ch, _ := e.drillLocked(q, truth, 0, nil)
		changed = changed || ch
	}
	if changed {
		e.publishLocked()
	}
}

// drillLocked applies one drill under the writer lock, recovering from a
// panicking maintenance path and running the amortized invariant check. It
// reports whether the round changed observable state (tree structure,
// degradation, or quarantine count) — the caller publishes a new snapshot
// exactly when it did, so steady-state rounds that drill nothing publish
// nothing and stay allocation-free.
//
// A nil count makes the round scalar feedback: actual is the observed
// whole-query cardinality, and Histogram.DrillScalar splits it. Otherwise
// the instrumented path obtains actual with one extra count(q) call
// (exact-count feedback sources return the true value for the full query).
// The round's detail goes to the recorder and, when out is non-nil, to out.
// With neither the round takes the lean path: no timestamps, no
// pre-estimate, no allocations.
func (e *Estimator) drillLocked(q Rect, count sthole.CountFunc, actual float64, out *Round) (changed bool, err error) {
	rec := e.rec
	detail := rec != nil || out != nil
	drills0 := e.work.Stats.Drills
	quar0 := e.quarantines
	deg0 := e.degraded
	var start time.Time
	var preEst float64
	var statsBefore sthole.Stats
	if detail {
		start = time.Now()
		preEst = e.work.Estimate(q)
		if count != nil {
			actual = count(q)
		}
		e.mergeScratch = e.mergeScratch[:0]
		statsBefore = e.work.Stats
		if rec == nil {
			// Only this round's caller wants the merges: tap them for
			// this round alone.
			e.work.SetMergeObserver(mergeTap{e})
			defer e.installTapLocked()
		}
	}
	defer func() {
		if p := recover(); p != nil {
			// A panic mid-drill means the bucket tree can no longer be
			// trusted; degrade instead of taking the process down.
			e.quarantineLocked(fmt.Errorf("sthist: panic during drill: %v", p))
			err = fmt.Errorf("sthist: feedback dropped, histogram quarantined: %v", p)
			changed = true
		}
		e.syncCountersLocked()
	}()
	if count == nil {
		e.work.DrillScalar(q, actual)
	} else {
		e.work.Drill(q, count)
	}
	if e.validateEvery > 0 {
		e.sinceValidate++
		if e.sinceValidate >= e.validateEvery {
			e.sinceValidate = 0
			if verr := e.work.Validate(); verr != nil {
				e.quarantineLocked(verr)
			} else {
				e.lastGood = e.work.Clone()
				e.degraded = false
			}
		}
	}
	changed = e.work.Stats.Drills != drills0 || e.quarantines != quar0 || e.degraded != deg0
	if detail {
		st := e.work.Stats
		// A quarantine mid-round replaces the histogram (fresh stats); clamp
		// the deltas so the counters never go backwards.
		drills := st.Drills - statsBefore.Drills
		skipped := st.SkippedExactDrills - statsBefore.SkippedExactDrills
		if drills < 0 {
			drills = 0
		}
		if skipped < 0 {
			skipped = 0
		}
		round := Round{
			Query:    q,
			Estimate: preEst,
			Actual:   actual,
			Trivial:  metrics.TrivialEstimator{Domain: e.domain, Total: e.total}.Estimate(q),
			Drills:   drills,
			Skipped:  skipped,
			Merges:   e.mergeScratch,
			Duration: time.Since(start),
		}
		rec.RecordRound(round)
		if out != nil {
			// mergeScratch is reused by the next round: copy it out.
			round.Merges = append(out.Merges[:0], round.Merges...)
			*out = round
		}
	}
	return changed, nil
}

// syncCountersLocked mirrors the working tree's maintenance counters into
// the atomics read by StatsSnapshot. Plain stores — no allocation.
func (e *Estimator) syncCountersLocked() {
	st := &e.work.Stats
	e.ctrQueries.Store(int64(st.Queries))
	e.ctrDrills.Store(int64(st.Drills))
	e.ctrSkipped.Store(int64(st.SkippedExactDrills))
	e.ctrPC.Store(int64(st.ParentChildMerges))
	e.ctrSib.Store(int64(st.SiblingMerges))
}

// healthLocked assembles the Health view of the current writer state.
func (e *Estimator) healthLocked() Health {
	h := Health{State: "ok", Quarantines: e.quarantines, ValidateEvery: e.validateEvery}
	if e.degraded {
		h.State = "degraded"
	}
	if e.lastErr != nil {
		h.LastError = e.lastErr.Error()
	}
	return h
}

// publishLocked snapshots the working tree and swaps it in as the serving
// state. The snapshot is fully built before the Store — after publication
// it is never written again (sthlint's publish check enforces this).
func (e *Estimator) publishLocked() {
	rec := e.rec
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	h := e.work.Snapshot()
	s := &snapshot{
		hist: h,
		stats: TableStats{
			Buckets:            h.BucketCount(),
			MaxBuckets:         h.MaxBuckets(),
			TreeDepth:          h.Depth(),
			Queries:            h.Stats.Queries,
			Drills:             h.Stats.Drills,
			SkippedExactDrills: h.Stats.SkippedExactDrills,
			ParentChildMerges:  h.Stats.ParentChildMerges,
			SiblingMerges:      h.Stats.SiblingMerges,
			SubspaceBuckets:    len(h.SubspaceBuckets()),
			TotalTuples:        h.TotalTuples(),
		},
		health: e.healthLocked(),
	}
	e.snap.Store(s)
	if rec != nil {
		rec.RecordPublish(time.Since(start))
	}
}

// quarantineLocked replaces the working histogram after an invariant
// violation: first with a clone of the last validated snapshot, or — should
// that also fail validation — with the uniform single-bucket histogram over
// the domain. Serving continues either way; Health reports the degradation.
func (e *Estimator) quarantineLocked(cause error) {
	e.quarantines++
	e.lastErr = cause
	e.degraded = true
	e.rec.RecordQuarantine()
	defer e.installTapLocked() // the replacement histogram needs the merge tap
	if e.lastGood != nil {
		restored := e.lastGood.Clone()
		if restored.Validate() == nil {
			e.work = restored
			return
		}
	}
	budget := 1
	if e.work != nil && e.work.MaxBuckets() > 0 {
		budget = e.work.MaxBuckets()
	}
	if h, err := sthole.New(e.domain, budget, e.total); err == nil {
		e.work = h
		e.lastGood = h.Clone()
	}
}

// Quarantine forces a degradation cycle, as if an invariant check had
// failed: the working histogram is discarded in favor of the last good
// snapshot (or uniform fallback), and the replacement is published. Servers
// call this when a request handler recovers a panic that implicates a
// table's estimator.
func (e *Estimator) Quarantine(cause error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.quarantineLocked(cause)
	e.syncCountersLocked()
	e.publishLocked()
}

// Health reports the estimator's degradation state as of the last published
// snapshot. Wait-free.
func (e *Estimator) Health() Health {
	return e.snap.Load().health
}

// TableStats is a consistent snapshot of the histogram's structure and
// maintenance counters — the raw material of the /stats endpoint and the
// telemetry structural gauges. Structural numbers (buckets, depth, tuples)
// describe the last published snapshot; the maintenance counters are exact
// as of the last completed feedback round.
type TableStats struct {
	Buckets            int     `json:"buckets"`
	MaxBuckets         int     `json:"max_buckets"`
	TreeDepth          int     `json:"tree_depth"`
	Queries            int     `json:"queries"`
	Drills             int     `json:"drills"`
	SkippedExactDrills int     `json:"skipped_exact_drills"`
	ParentChildMerges  int     `json:"parent_child_merges"`
	SiblingMerges      int     `json:"sibling_merges"`
	SubspaceBuckets    int     `json:"subspace_buckets"`
	TotalTuples        float64 `json:"total_tuples"`
}

// StatsSnapshot returns the histogram structure and maintenance counters.
// Wait-free: structure comes from the published snapshot, counters from the
// atomic mirrors updated after every round.
func (e *Estimator) StatsSnapshot() TableStats {
	st := e.snap.Load().stats
	st.Queries = int(e.ctrQueries.Load())
	st.Drills = int(e.ctrDrills.Load())
	st.SkippedExactDrills = int(e.ctrSkipped.Load())
	st.ParentChildMerges = int(e.ctrPC.Load())
	st.SiblingMerges = int(e.ctrSib.Load())
	return st
}

// Histogram returns the last published histogram snapshot for inspection
// (bucket dumps, serialization, subspace-bucket queries). The snapshot is
// immutable from the estimator's point of view: it is safe to read from any
// goroutine while feedback continues, and later feedback does not alter it —
// call Histogram again for a fresh view. Mutating the returned tree (e.g.
// drilling it directly, or writing through an exposed Box) affects only the
// caller's copy, never the serving state.
func (e *Estimator) Histogram() *Histogram { return e.snap.Load().hist }

// SaveHistogram persists the current histogram as JSON. The saved form can
// be reloaded into a fresh estimator over the same (or refreshed) data with
// LoadHistogram, so a warm histogram survives process restarts. Wait-free:
// it marshals the published snapshot, which by construction reflects every
// structural change applied so far.
func (e *Estimator) SaveHistogram(w io.Writer) error {
	data, err := json.Marshal(e.snap.Load().hist)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadHistogram replaces the estimator's histogram with one saved by
// SaveHistogram. The histogram's dimensionality must match the estimator's
// domain, and its structural invariants are verified before it is installed,
// so a corrupt or hand-crafted snapshot cannot poison the serving tree. A
// successful load clears any degradation state — the snapshot becomes the
// new "last good" recovery point — and publishes immediately.
func (e *Estimator) LoadHistogram(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var h sthole.Histogram
	if err := json.Unmarshal(data, &h); err != nil {
		return err
	}
	if h.Dims() != e.domain.Dims() {
		return fmt.Errorf("sthist: saved histogram has %d dimensions, estimator domain has %d", h.Dims(), e.domain.Dims())
	}
	// UnmarshalJSON validates; re-check here so the guarantee does not
	// depend on the deserializer's internals.
	if err := h.Validate(); err != nil {
		return fmt.Errorf("sthist: rejecting invalid histogram: %w", err)
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.work = &h
	e.lastGood = h.Clone()
	e.degraded = false
	e.sinceValidate = 0
	e.installTapLocked()
	e.syncCountersLocked()
	e.publishLocked()
	return nil
}

// AdoptHistogram atomically replaces the estimator's histogram with an
// in-memory one — the promotion path of the drift-adaptation loop, where a
// background re-seeder has built and shadow-scored a candidate. The
// candidate's dimensionality must match the estimator's domain and its
// structural invariants are verified before installation, exactly like
// LoadHistogram; h is cloned, so the caller's reference stays private. A
// successful adoption clears any degradation state (the candidate becomes
// the new "last good" recovery point) and publishes immediately, making the
// swap visible to concurrent wait-free readers in one atomic pointer store.
func (e *Estimator) AdoptHistogram(h *sthole.Histogram) error {
	if h == nil {
		return fmt.Errorf("sthist: nil histogram")
	}
	if h.Dims() != e.domain.Dims() {
		return fmt.Errorf("sthist: candidate histogram has %d dimensions, estimator domain has %d", h.Dims(), e.domain.Dims())
	}
	if err := h.Validate(); err != nil {
		return fmt.Errorf("sthist: rejecting invalid candidate histogram: %w", err)
	}
	adopted := h.Clone()
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.work = adopted
	e.lastGood = adopted.Clone()
	e.degraded = false
	e.sinceValidate = 0
	e.installTapLocked()
	e.syncCountersLocked()
	e.publishLocked()
	return nil
}

// Clusters returns the subspace clusters used for initialization (nil when
// initialization was skipped), in descending importance order. Each
// cluster's Rows is nil: Open drops the member lists after seeding, and Size
// holds each list's length. The slice is fixed at Open and never mutated
// afterwards, so it is safe to read from any goroutine while feedback
// continues.
func (e *Estimator) Clusters() []Cluster { return e.clusters }

// Domain returns the estimation domain. Fixed at Open; safe for concurrent
// use. The caller must not modify the result: it is the estimator's own
// rectangle, not a copy, so that hot paths such as a request's
// Domain().Dims() check do not allocate.
func (e *Estimator) Domain() Rect { return e.domain }

// MeanAbsoluteError evaluates the estimator over a workload against the
// exact counts truth returns (see ExactCounts). The evaluation runs on the
// published snapshot, so it does not block concurrent feedback.
func (e *Estimator) MeanAbsoluteError(queries []Rect, truth func(Rect) float64) (float64, error) {
	return metrics.MeanAbsoluteError(e.snap.Load().hist, queries, truth)
}

// NormalizedError evaluates the estimator over a workload against the exact
// counts truth returns, normalized by the error of the trivial single-bucket
// histogram over the table's tuple count (the paper's NAE, Eq. 10). An
// estimator over zero tuples has no meaningful normalization and returns an
// explicit error instead of NaN.
func (e *Estimator) NormalizedError(queries []Rect, truth func(Rect) float64) (float64, error) {
	if e.total <= 0 {
		return 0, fmt.Errorf("sthist: normalized error undefined over an empty table")
	}
	return metrics.NormalizedAbsoluteError(e.snap.Load().hist, queries, truth, e.domain, e.total)
}

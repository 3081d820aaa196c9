package telemetry

import (
	"math"
	"sync"
	"time"

	"sthist/internal/geom"
)

// MergeKindParentChild / MergeKindSibling name the two STHoles merge kinds
// in spans and metric labels.
const (
	MergeKindParentChild = "parent-child"
	MergeKindSibling     = "sibling"
)

// MergeOp is one merge executed during a feedback round: its kind, its
// Eq. 2 penalty, and when it started and how long it took.
type MergeOp struct {
	Kind    string    `json:"kind"`
	Penalty float64   `json:"penalty"`
	Start   time.Time `json:"start"`
	Nanos   int64     `json:"ns"`
}

// Round is one feedback round observed by the estimator: the query, what
// the histogram believed before the round, the observed truth, and the
// maintenance work the round triggered. It is the input to
// Recorder.RecordRound, which borrows Query and Merges for the duration of
// the call, and the per-observation detail FeedbackBatch reports to callers
// that ask for it.
type Round struct {
	Query    geom.Rect     `json:"query"`
	Estimate float64       `json:"estimate"` // estimate before the round
	Actual   float64       `json:"actual"`   // observed true cardinality
	Trivial  float64       `json:"trivial"`  // 1-bucket (uniform) estimate, the NAE denominator term
	Drills   int           `json:"drills"`
	Skipped  int           `json:"skipped_drills"`
	Merges   []MergeOp     `json:"merges,omitempty"`
	Duration time.Duration `json:"ns"`
}

// Recorder holds one table's feedback-round telemetry: the rolling accuracy
// windows and the per-table instruments. A nil *Recorder is valid and
// records nothing.
type Recorder struct {
	slowThr time.Duration // immutable after construction

	// Rolling accuracy windows: |est-actual| and |trivial-actual| over the
	// last len(absErr) rounds, with incrementally maintained sums. Rolling
	// MAE = sumAbs/n (Eq. 9 over the window); rolling NAE = sumAbs/sumTriv
	// (Eq. 10 — both means share the 1/n factor, so it cancels).
	mu      sync.Mutex
	absErr  []float64 // guarded by mu
	trivErr []float64 // guarded by mu
	winN    int       // guarded by mu
	winIdx  int       // guarded by mu
	sumAbs  float64   // guarded by mu
	sumTriv float64   // guarded by mu

	// Instruments (shared registry, per-table labels). Always non-nil.
	rounds       *Counter
	drills       *Counter
	skipped      *Counter
	mergesPC     *Counter
	mergesSib    *Counter
	quarantines  *Counter
	rejected     *Counter
	slowRounds   *Counter
	estimates    *Counter
	feedbackDur  *Histogram
	estimateDur  *Histogram
	mergeDur     *Histogram
	mergePenalty *Histogram
	publishDur   *Histogram
	rollingMAE   *Gauge
	rollingNAE   *Gauge
	rollingN     *Gauge
}

// RecordRound folds one feedback round into the rolling error windows and
// updates the instruments. It does not allocate.
func (r *Recorder) RecordRound(round Round) {
	if r == nil {
		return
	}
	absErr := math.Abs(round.Estimate - round.Actual)
	trivErr := math.Abs(round.Trivial - round.Actual)

	r.mu.Lock()
	if r.winN == len(r.absErr) {
		r.sumAbs -= r.absErr[r.winIdx]
		r.sumTriv -= r.trivErr[r.winIdx]
	} else {
		r.winN++
	}
	r.absErr[r.winIdx] = absErr
	r.trivErr[r.winIdx] = trivErr
	r.winIdx = (r.winIdx + 1) % len(r.absErr)
	r.sumAbs += absErr
	r.sumTriv += trivErr
	mae := r.sumAbs / float64(r.winN)
	nae := 0.0
	if r.sumTriv > 0 {
		nae = r.sumAbs / r.sumTriv
	}
	winN := r.winN
	r.mu.Unlock()

	// Instruments are atomic; update them outside the window lock.
	r.rounds.Inc()
	r.drills.Add(uint64(round.Drills))
	r.skipped.Add(uint64(round.Skipped))
	r.feedbackDur.Observe(round.Duration.Seconds())
	for _, m := range round.Merges {
		if m.Kind == MergeKindParentChild {
			r.mergesPC.Inc()
		} else {
			r.mergesSib.Inc()
		}
		r.mergePenalty.Observe(m.Penalty)
		r.mergeDur.Observe(float64(m.Nanos) / 1e9)
	}
	if r.slowThr > 0 && round.Duration >= r.slowThr {
		r.slowRounds.Inc()
	}
	r.rollingMAE.Set(mae)
	r.rollingNAE.Set(nae)
	r.rollingN.Set(float64(winN))
}

// RecordEstimate observes one serving-path estimate latency.
func (r *Recorder) RecordEstimate(d time.Duration) {
	if r == nil {
		return
	}
	r.estimates.Inc()
	r.estimateDur.Observe(d.Seconds())
}

// RecordPublish observes one snapshot publication latency: the cost of
// deep-copying the working tree and swapping it into the serving pointer.
func (r *Recorder) RecordPublish(d time.Duration) {
	if r == nil {
		return
	}
	r.publishDur.Observe(d.Seconds())
}

// RecordQuarantine counts one quarantine event (invariant violation or
// recovered panic that degraded the table to its last good snapshot).
func (r *Recorder) RecordQuarantine() {
	if r == nil {
		return
	}
	r.quarantines.Inc()
}

// RecordRejected counts one rejected feedback observation (validation
// failure before the observation reached the histogram or its WAL).
func (r *Recorder) RecordRejected() {
	if r == nil {
		return
	}
	r.rejected.Inc()
}

// Rolling returns the current rolling-window accuracy: the number of rounds
// in the window, the mean absolute error (Eq. 9) and the normalized absolute
// error (Eq. 10) over those rounds.
func (r *Recorder) Rolling() (n int, mae, nae float64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.winN == 0 {
		return 0, 0, 0
	}
	mae = r.sumAbs / float64(r.winN)
	if r.sumTriv > 0 {
		nae = r.sumAbs / r.sumTriv
	}
	return r.winN, mae, nae
}

// Quantiles returns the p50/p95/p99 of the feedback-round latency
// distribution, in seconds.
func (r *Recorder) Quantiles() (p50, p95, p99 float64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.feedbackDur.Quantile(0.50), r.feedbackDur.Quantile(0.95), r.feedbackDur.Quantile(0.99)
}

package telemetry

import (
	"net/http"
	"sync"
	"time"
)

// Defaults for Options fields left zero.
const (
	DefaultSlowThreshold = 50 * time.Millisecond
	DefaultWindow        = 512
)

// DefaultTraceEvents is the former flight-recorder ring capacity.
//
// Deprecated: per-round detail rides the feedback.apply span of traced
// requests (see internal/trace); Options.TraceEvents is ignored.
const DefaultTraceEvents = 256

// Options configures New.
type Options struct {
	// TraceEvents was the flight-recorder ring capacity per table.
	//
	// Deprecated: ignored; round detail rides the request's trace.
	TraceEvents int
	// SlowThreshold counts feedback rounds at or above this latency in
	// sthist_slow_feedback_total. Zero uses the default; negative disables
	// the count.
	SlowThreshold time.Duration
	// Window is the rolling accuracy window, in feedback rounds.
	Window int
}

// Telemetry is the shared metrics plane: one registry plus a per-table
// recorder. A nil *Telemetry is valid and disables everything it would
// otherwise wire.
type Telemetry struct {
	reg  *Registry
	opts Options

	mu     sync.Mutex
	tables map[string]*Recorder // guarded by mu
}

// New returns a telemetry plane with its own registry.
func New(opts Options) *Telemetry {
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = DefaultSlowThreshold
	}
	if opts.SlowThreshold < 0 {
		opts.SlowThreshold = 0 // disables the slow count (RecordRound checks > 0)
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	return &Telemetry{reg: NewRegistry(), opts: opts, tables: make(map[string]*Recorder)}
}

// Registry returns the underlying metrics registry (nil-safe).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Table returns (creating if needed) the recorder for the named table. All
// of the recorder's instruments are created eagerly so the hot path never
// touches the registry. Returns nil on a nil Telemetry.
func (t *Telemetry) Table(name string) *Recorder {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.tables[name]; ok {
		return r
	}
	lbl := L("table", name)
	r := &Recorder{
		slowThr: t.opts.SlowThreshold,
		absErr:  make([]float64, t.opts.Window),
		trivErr: make([]float64, t.opts.Window),

		rounds:       t.reg.Counter("sthist_feedback_rounds_total", "Feedback rounds processed.", lbl),
		drills:       t.reg.Counter("sthist_drills_total", "Holes drilled by feedback rounds.", lbl),
		skipped:      t.reg.Counter("sthist_skipped_drills_total", "Drill candidates skipped because the estimate was already exact.", lbl),
		mergesPC:     t.reg.Counter("sthist_merges_total", "Bucket merges executed by budget enforcement.", Labels{{"table", name}, {"kind", MergeKindParentChild}}),
		mergesSib:    t.reg.Counter("sthist_merges_total", "Bucket merges executed by budget enforcement.", Labels{{"table", name}, {"kind", MergeKindSibling}}),
		quarantines:  t.reg.Counter("sthist_quarantines_total", "Histogram quarantine events (invariant violations or recovered panics).", lbl),
		rejected:     t.reg.Counter("sthist_feedback_rejected_total", "Feedback observations rejected by validation.", lbl),
		slowRounds:   t.reg.Counter("sthist_slow_feedback_total", "Feedback rounds at or above the slow threshold.", lbl),
		estimates:    t.reg.Counter("sthist_estimates_total", "Serving-path estimates.", lbl),
		feedbackDur:  t.reg.Histogram("sthist_feedback_duration_seconds", "Feedback round latency (drill + budget enforcement).", LatencyBuckets(), lbl),
		estimateDur:  t.reg.Histogram("sthist_estimate_duration_seconds", "Serving-path estimate latency.", LatencyBuckets(), lbl),
		mergeDur:     t.reg.Histogram("sthist_merge_duration_seconds", "Latency of individual bucket merges.", LatencyBuckets(), lbl),
		mergePenalty: t.reg.Histogram("sthist_merge_penalty", "Penalty (Eq. 2, in tuples) of executed merges.", PenaltyBuckets(), lbl),
		publishDur:   t.reg.Histogram("sthist_snapshot_publish_duration_seconds", "Latency of publishing a new immutable histogram snapshot.", LatencyBuckets(), lbl),
		rollingMAE:   t.reg.Gauge("sthist_rolling_mae", "Rolling-window mean absolute error (Eq. 9) over the live feedback stream.", lbl),
		rollingNAE:   t.reg.Gauge("sthist_rolling_nae", "Rolling-window normalized absolute error (Eq. 10) over the live feedback stream.", lbl),
		rollingN:     t.reg.Gauge("sthist_rolling_window_rounds", "Feedback rounds currently in the rolling accuracy window.", lbl),
	}
	t.tables[name] = r
	return r
}

// MetricsHandler serves GET /metrics in Prometheus text format.
func (t *Telemetry) MetricsHandler() http.Handler {
	return t.reg.MetricsHandler()
}

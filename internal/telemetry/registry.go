// Package telemetry is the metrics plane of the serving stack: a lock-cheap
// registry with Prometheus text-format exposition, per-table feedback-round
// instruments, and online accuracy tracking (rolling-window mean absolute
// and normalized error, Eq. 9/10 of the paper, computed incrementally from
// the live feedback stream instead of an offline evaluation workload).
// Per-round detail (the query, the pre-round estimate, each merge) is not
// kept here: it rides the feedback.apply span of traced requests (see
// internal/trace).
//
// The package is stdlib-only and race-safe. Instrument hot paths are
// implemented with atomics; the registry mutex is only taken when an
// instrument is first created and during exposition. Callers cache the
// returned instrument pointers, so steady-state recording never touches a
// lock or allocates.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a log-bucketed distribution: observations are counted into
// fixed upper-bound buckets (cumulative on exposition, Prometheus style) and
// summed, so both promql quantiles and the in-process Quantile estimator
// work off the same counters. All methods are safe for concurrent use and
// allocation-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	inf    atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// ex holds the latest trace-ID exemplar per bucket (len(bounds)+1, the
	// last slot is +Inf). Exemplars ride alongside the counters and are
	// exposed over the trace endpoints, never in the text exposition — the
	// Prometheus text 0.0.4 output is pinned by golden file and stays
	// byte-identical whether or not tracing runs.
	ex []atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it, so a bad
// latency bucket resolves to a concrete request (GET /debug/trace/spans).
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// BucketExemplar is one bucket's exemplar with its upper bound (+Inf is
// math.Inf(1)).
type BucketExemplar struct {
	UpperBound float64 `json:"le"`
	TraceID    string  `json:"trace_id"`
	Value      float64 `json:"value"`
}

// ExponentialBuckets returns n ascending upper bounds starting at start and
// growing by factor — the log-bucketed layout used for latencies and merge
// penalties.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LatencyBuckets spans 1µs to ~67s in doubling steps, in seconds.
func LatencyBuckets() []float64 { return ExponentialBuckets(1e-6, 2, 27) }

// PenaltyBuckets spans merge penalties from 1 tuple to ~16M in 4x steps.
func PenaltyBuckets() []float64 { return ExponentialBuckets(1, 4, 13) }

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{
		bounds: cp,
		counts: make([]atomic.Uint64, len(bounds)),
		ex:     make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search over a handful of bounds; cheaper than it looks and
	// branch-predictable for clustered observations.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveEx records one value and, when traceID is non-empty, stamps it as
// the bucket's exemplar (last writer wins; readers use Exemplars).
func (h *Histogram) ObserveEx(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v})
}

// Exemplars returns the buckets that currently carry an exemplar, ascending
// by upper bound. Empty (not nil) when tracing never stamped one.
func (h *Histogram) Exemplars() []BucketExemplar {
	out := make([]BucketExemplar, 0, len(h.ex))
	for i := range h.ex {
		e := h.ex[i].Load()
		if e == nil {
			continue
		}
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out = append(out, BucketExemplar{UpperBound: ub, TraceID: e.TraceID, Value: e.Value})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation inside the selected bucket. It returns 0 when nothing
// was observed. Estimates are monotone in q (property-tested).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	lower := 0.0
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum)+float64(c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(b-lower)
		}
		cum += c
		lower = b
	}
	// Rank falls into the +Inf overflow bucket: the best bound we can give is
	// the largest finite boundary.
	return lower
}

// snapshot reads the bucket counters for exposition. The exposed _count is
// derived from these counts by the renderer rather than read from h.count,
// so concurrent Observe calls cannot make +Inf and _count disagree.
func (h *Histogram) snapshot() (counts []uint64, inf uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.inf.Load(), h.Sum()
}

// metric type names used in the TYPE comment of the exposition.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instrument inside a family.
type series struct {
	labels string // pre-rendered `k1="v1",k2="v2"` (escaped, sorted by key)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	typ    string
	series map[string]*series
}

// Registry holds named metric families and renders them in Prometheus text
// format. Instrument creation is idempotent: asking for the same name+labels
// returns the existing instrument; asking for an existing name with a
// different type panics (a wiring bug, not a runtime condition).
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family // guarded by mu
	collectors []func()           // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Labels is an ordered set of label key/value pairs. Keys must be valid
// Prometheus label names; values are escaped on exposition.
type Labels []Label

// Label is one key/value pair.
type Label struct{ Key, Value string }

// L is shorthand for a single-label set.
func L(key, value string) Labels { return Labels{{key, value}} }

// renderLabels returns the canonical, escaped `k="v"` form, sorted by key.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	cp := make(Labels, len(ls))
	copy(cp, ls)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	var b strings.Builder
	for i, l := range cp {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline as the
// Prometheus text format requires.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// lookupLocked finds or creates the series for name+labels. r.mu must be
// held by the caller.
func (r *Registry) lookupLocked(name, help, typ string, labels Labels) *series {
	key := renderLabels(labels)
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, typeCounter, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, typeGauge, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns (creating if needed) the histogram for name+labels with
// the given upper bounds. Bounds are fixed by the first creation.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookupLocked(name, help, typeHistogram, labels)
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// RegisterCollector adds a callback run at the start of every exposition,
// before the metric families are rendered. Used for gauges whose value is a
// snapshot of external state (bucket count, tree depth) rather than an event
// stream.
func (r *Registry) RegisterCollector(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

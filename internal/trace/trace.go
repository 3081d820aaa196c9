// Package trace is the stdlib-only distributed tracing layer: spans with
// trace/span IDs and parent links, W3C traceparent propagation between
// sthload, sthproxy and sthistd, head sampling plus tail retention (slow and
// error traces are always kept), and a per-process fixed-ring span buffer
// scraped by GET /debug/trace/spans.
//
// The design follows the repo's telemetry idiom: a nil *Tracer and a nil
// *Span are fully functional no-ops, so call sites never branch on whether
// tracing is enabled; instruments are wired once and the disabled path costs
// a nil check.
//
// Retention model: every span belongs to the process-local subtree rooted at
// the span StartRoot or StartRemote created. Children buffer their finished
// SpanData in that root's local trace; when the root ends, the whole subtree
// is flushed at once — to the tail ring when any span errored or ran at or
// above the slow threshold (kept regardless of sampling, so error and slow
// traces survive head-sample churn), else to the sampled ring when the trace
// was head-sampled, else dropped. A child that ends after its root has
// flushed is dropped silently (hedge losers racing a finished request).
package trace

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Defaults for Options fields left zero.
const (
	// DefaultCapacity is the per-ring span retention.
	DefaultCapacity = 4096
	// DefaultSlowThreshold matches telemetry.DefaultSlowThreshold: spans at or
	// above it force tail retention of their trace.
	DefaultSlowThreshold = 50 * time.Millisecond
)

// Options configures New.
type Options struct {
	// Service names this process in every span it records ("sthistd:addr",
	// "sthproxy", "sthload").
	Service string
	// SampleRate is the head-sampling probability in [0, 1] for traces this
	// process originates. Propagated contexts carry their caller's decision.
	SampleRate float64
	// SlowThreshold forces tail retention of any trace containing a span at
	// or above this duration. Zero uses DefaultSlowThreshold; negative
	// disables slow retention.
	SlowThreshold time.Duration
	// Capacity is the span count each ring (sampled, tail) retains. Zero uses
	// DefaultCapacity.
	Capacity int
	// Seed makes ID generation and sampling reproducible in tests. Zero seeds
	// from the clock.
	Seed int64
}

// Attr is one span attribute. Short JSON keys keep scrapes compact.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A is shorthand for one attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanData is the immutable, JSON-ready form of a finished span.
type SpanData struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Service    string    `json:"service"`
	Start      time.Time `json:"start"`
	DurationNs int64     `json:"ns"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Tracer records spans for one process. Build with New; nil disables
// everything.
type Tracer struct {
	service string
	sample  float64
	slow    time.Duration

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	sampled *ring // head-sampled traces
	tail    *ring // error/slow traces, kept regardless of sampling
}

// New returns a tracer. The zero SampleRate records no head-sampled traces
// but still propagates IDs and retains error/slow traces.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = DefaultSlowThreshold
	}
	if opts.SlowThreshold < 0 {
		opts.SlowThreshold = 0 // disables slow retention (checks > 0)
	}
	if opts.SampleRate < 0 {
		opts.SampleRate = 0
	}
	if opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Tracer{
		service: opts.Service,
		sample:  opts.SampleRate,
		slow:    opts.SlowThreshold,
		rng:     rand.New(rand.NewSource(seed)),
		sampled: newRing(opts.Capacity),
		tail:    newRing(opts.Capacity),
	}
}

// SlowThreshold returns the tail-retention latency bar (0 when disabled or
// on a nil tracer).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// Service returns the configured service name ("" on nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// NewContext mints a fresh trace context with a head-sampling decision —
// what a client (loadgen) injects when it originates a request without
// recording local spans.
func (t *Tracer) NewContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sc SpanContext
	for sc.TraceID.IsZero() {
		fillID(t.rng, sc.TraceID[:])
	}
	for sc.SpanID.IsZero() {
		fillID(t.rng, sc.SpanID[:])
	}
	sc.Sampled = t.sample > 0 && t.rng.Float64() < t.sample
	return sc
}

// newSpanID mints a span ID.
func (t *Tracer) newSpanID() SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var id SpanID
	for id.IsZero() {
		fillID(t.rng, id[:])
	}
	return id
}

// fillID fills b with pseudo-random bytes. Caller holds t.mu.
func fillID(rng *rand.Rand, b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// StartRoot begins a new local trace with a fresh trace ID and this
// process's head-sampling decision.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.startLocal(t.NewContext(), SpanID{}, name)
}

// StartRemote continues the trace described by a propagated context (the
// parsed traceparent): the new span keeps the caller's trace ID and sampling
// decision and is parented under the caller's span. An invalid context
// (absent or malformed header) degrades to StartRoot.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	if !sc.Valid() {
		return t.StartRoot(name)
	}
	local := SpanContext{TraceID: sc.TraceID, SpanID: t.newSpanID(), Sampled: sc.Sampled}
	return t.startLocal(local, sc.SpanID, name)
}

// startLocal builds the root span of a process-local subtree.
func (t *Tracer) startLocal(sc SpanContext, parent SpanID, name string) *Span {
	s := &Span{
		tracer: t,
		sc:     sc,
		id:     sc.SpanID.String(),
		name:   name,
		start:  time.Now(),
	}
	if !parent.IsZero() {
		s.parentID = parent.String()
	}
	s.lt = &localTrace{root: s, traceID: sc.TraceID.String()}
	return s
}

// localTrace buffers the finished spans of one process-local subtree until
// its root ends and the retention decision is made.
type localTrace struct {
	root    *Span  // immutable
	traceID string // root's trace ID in hex, shared by every span; immutable

	mu      sync.Mutex
	spans   []SpanData // guarded by mu
	keep    bool       // any error or slow span seen; guarded by mu
	flushed bool       // root ended, late spans are dropped; guarded by mu
}

// record adds one finished span; for the root span it also flushes the
// subtree to the retention rings.
func (lt *localTrace) record(t *Tracer, sd SpanData, isRoot bool) {
	slow := t.slow > 0 && time.Duration(sd.DurationNs) >= t.slow
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.flushed {
		return // late child (hedge loser after the request finished): dropped
	}
	lt.spans = append(lt.spans, sd)
	if sd.Error != "" || slow {
		lt.keep = true
	}
	if !isRoot {
		return
	}
	lt.flushed = true
	switch {
	case lt.keep:
		t.tail.add(lt.spans)
	case lt.root.sc.Sampled:
		t.sampled.add(lt.spans)
	}
	lt.spans = nil
}

// Span is one in-flight operation. Nil spans are no-ops, so unsampled and
// untraced paths need no branches at call sites.
type Span struct {
	tracer   *Tracer
	lt       *localTrace
	sc       SpanContext // immutable
	id       string      // sc.SpanID in hex; immutable
	parentID string      // parent span ID in hex, "" for a trace root; immutable
	name     string      // immutable
	start    time.Time   // immutable

	mu     sync.Mutex
	attrs  []Attr // guarded by mu
	errMsg string // guarded by mu
	ended  bool   // guarded by mu
}

// Context returns the span's propagation context (inject it as traceparent
// for downstream calls). Zero on nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the 32-hex trace ID ("" on nil) — what X-Sthist-Trace-Id
// carries.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.lt.traceID
}

// SetAttr attaches one key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed, which forces tail retention of its trace.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errMsg = msg
}

// StartChild begins a sub-span sharing this span's trace and local subtree.
func (s *Span) StartChild(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.StartChildAt(name, time.Now(), attrs...)
}

// StartChildAt is StartChild for a stage timed after the fact: the child
// starts at start and is finished with EndAt. The writer goroutine uses it
// for stages whose detail and sub-stages it learns only once a batched call
// has returned.
func (s *Span) StartChildAt(name string, start time.Time, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer:   s.tracer,
		lt:       s.lt,
		sc:       SpanContext{TraceID: s.sc.TraceID, SpanID: s.tracer.newSpanID(), Sampled: s.sc.Sampled},
		parentID: s.id,
		name:     name,
		start:    start,
	}
	c.id = c.sc.SpanID.String()
	if len(attrs) > 0 {
		c.mu.Lock()
		c.attrs = append(c.attrs, attrs...)
		c.mu.Unlock()
	}
	return c
}

// Event records an already-completed child span from measured timings — the
// post-hoc form used by the writer goroutine, which learns stage durations
// (WAL append, fsync) only after the batched call returns. errMsg "" means
// success.
func (s *Span) Event(name string, start time.Time, d time.Duration, errMsg string, attrs ...Attr) {
	if s == nil {
		return
	}
	sd := SpanData{
		TraceID:    s.lt.traceID,
		SpanID:     s.tracer.newSpanID().String(),
		ParentID:   s.id,
		Name:       name,
		Service:    s.tracer.service,
		Start:      start,
		DurationNs: int64(d),
		Error:      errMsg,
	}
	if len(attrs) > 0 {
		sd.Attrs = append([]Attr(nil), attrs...)
	}
	s.lt.record(s.tracer, sd, false)
}

// End finishes the span. The root span's End flushes the local subtree to
// the retention rings; a second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(time.Now())
}

// EndAt finishes the span as End would have at time end.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	d := end.Sub(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:    s.lt.traceID,
		SpanID:     s.id,
		ParentID:   s.parentID,
		Name:       s.name,
		Service:    s.tracer.service,
		Start:      s.start,
		DurationNs: int64(d),
		Attrs:      s.attrs,
		Error:      s.errMsg,
	}
	s.attrs = nil
	s.mu.Unlock()
	s.lt.record(s.tracer, sd, s == s.lt.root)
}

// ring is a fixed-capacity span buffer: writers overwrite the oldest slot,
// readers snapshot under the same lock.
type ring struct {
	mu   sync.Mutex
	buf  []SpanData // guarded by mu
	next uint64     // total spans ever written; guarded by mu
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]SpanData, capacity)}
}

func (r *ring) add(spans []SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sd := range spans {
		r.buf[r.next%uint64(len(r.buf))] = sd
		r.next++
	}
}

// scan appends every retained span matching keep (nil keeps all) to out.
func (r *ring) scan(out []SpanData, keep func(*SpanData) bool) []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	for i := uint64(0); i < n; i++ {
		sd := &r.buf[i]
		if keep == nil || keep(sd) {
			out = append(out, *sd)
		}
	}
	return out
}

// Spans returns every retained span of the given trace ID (32-hex), oldest
// first. Duplicate span IDs (a trace retained in both rings across
// re-records) are deduplicated.
func (t *Tracer) Spans(traceID string) []SpanData {
	if t == nil {
		return nil
	}
	match := func(sd *SpanData) bool { return sd.TraceID == traceID }
	out := t.tail.scan(nil, match)
	out = t.sampled.scan(out, match)
	return dedupeSorted(out)
}

// Recent returns the most recent n retained spans across both rings, oldest
// first. n <= 0 returns everything retained.
func (t *Tracer) Recent(n int) []SpanData {
	if t == nil {
		return nil
	}
	out := t.tail.scan(nil, nil)
	out = t.sampled.scan(out, nil)
	out = dedupeSorted(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// dedupeSorted sorts spans by start time (stable, then span ID for
// determinism) and drops duplicate span IDs.
func dedupeSorted(spans []SpanData) []SpanData {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	seen := make(map[string]bool, len(spans))
	out := spans[:0]
	for _, sd := range spans {
		if sd.SpanID != "" && seen[sd.SpanID] {
			continue
		}
		seen[sd.SpanID] = true
		out = append(out, sd)
	}
	return out
}

// Merge combines span groups scraped from multiple processes into one
// deduplicated timeline, oldest first — the cross-process assembly sthproxy
// performs when it fans /debug/trace/spans?trace= out to its targets.
func Merge(groups ...[]SpanData) []SpanData {
	var out []SpanData
	for _, g := range groups {
		out = append(out, g...)
	}
	return dedupeSorted(out)
}

// ctxKey is the context key for the active span.
type ctxKey struct{}

// ContextWithSpan attaches the span to the request context so inner layers
// (handlers, the exemplar hook) can reach it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

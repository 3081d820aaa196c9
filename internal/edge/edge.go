// Package edge is the HTTP request edge of sthistd (internal/httpapi) and
// sthproxy (internal/cluster). Both mount their routes through one wrapper
// that checks the method, opens the process's root span continuing the
// caller's traceparent, stamps X-Sthist-Trace-Id on the response, captures
// the status, marks 5xx and 429 failed (forcing tail retention of the
// trace), answers a panic with a JSON 500, records per-route latency (with a
// trace-ID exemplar when the trace is kept) and counts requests by route and
// code. The package also serves the debug endpoints both processes expose,
// /debug/trace/spans and /debug/trace/exemplars, and the JSON writers every
// handler of both processes answers with.
package edge

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sthist/internal/telemetry"
	"sthist/internal/trace"
)

// Other is the route label a process gives every path it does not mount, so
// scrapes cannot explode the label cardinality.
const Other = "other"

// mintedCodes are the status codes whose request counters are minted when a
// route is wrapped, so the serving path never takes the registry mutex or
// renders a label string. Rarer codes fall back to Metrics.Requests.
var mintedCodes = []int{
	http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
	http.StatusMethodNotAllowed, http.StatusTooManyRequests,
	http.StatusInternalServerError, http.StatusServiceUnavailable,
}

// Metrics mints one process's request instruments. The functions hold the
// process's own Registry call sites, so every metric name stays a constant
// where it is registered.
type Metrics struct {
	// Duration returns the route's latency histogram.
	Duration func(route string) *telemetry.Histogram
	// Requests returns the route's request counter for one status code.
	Requests func(route string, code int) *telemetry.Counter
}

// Labels is the label set of a request counter: route, then status code.
func Labels(route string, code int) telemetry.Labels {
	return telemetry.Labels{{Key: "route", Value: route}, {Key: "code", Value: strconv.Itoa(code)}}
}

// Edge wraps one process's routes. A process builds it when its Handler
// builds the mux; it is read-only once serving starts.
type Edge struct {
	name    string                          // root-span prefix and log prefix: "node" or "proxy"
	tracer  *trace.Tracer                   // nil: no spans
	metrics *Metrics                        // nil: no instruments
	durs    map[string]*telemetry.Histogram // latency of every wrapped route, filled by Wrap
}

// New returns an edge whose root spans are named "<name> <route>". A nil
// tracer records no spans and nil metrics no instruments; with both nil the
// wrapper only checks the method and recovers panics.
func New(name string, tr *trace.Tracer, m *Metrics) *Edge {
	return &Edge{name: name, tracer: tr, metrics: m, durs: make(map[string]*telemetry.Histogram)}
}

// Handle mounts h on mux at pattern, wrapped under the route label pattern.
func (e *Edge) Handle(mux *http.ServeMux, pattern, method string, h http.HandlerFunc) {
	mux.Handle(pattern, e.Wrap(pattern, method, h))
}

// Wrap returns h behind the edge under the given route label. An empty
// method accepts every method; otherwise any other method is answered 405.
func (e *Edge) Wrap(route, method string, h http.HandlerFunc) http.Handler {
	w := &wrapped{edge: e, route: route, span: e.name + " " + route, method: method, h: h}
	if m := e.metrics; m != nil {
		w.dur = m.Duration(route)
		w.requests = make(map[int]*telemetry.Counter, len(mintedCodes))
		for _, code := range mintedCodes {
			w.requests[code] = m.Requests(route, code)
		}
		e.durs[route] = w.dur
	}
	return w
}

// wrapped is one route behind the edge.
type wrapped struct {
	edge     *Edge
	route    string
	span     string // root-span name
	method   string
	h        http.HandlerFunc
	dur      *telemetry.Histogram       // nil without metrics
	requests map[int]*telemetry.Counter // minted codes; read-only after Wrap
}

func (rt *wrapped) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := rt.edge.tracer
	if tr == nil && rt.dur == nil {
		rt.call(w, r)
		return
	}
	var sp *trace.Span
	if tr != nil {
		// A missing or malformed traceparent starts a fresh trace.
		sc, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
		sp = tr.StartRemote(sc, rt.span)
		defer sp.End()
		w.Header().Set(trace.TraceIDHeader, sp.TraceID())
		r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	rt.call(sw, r)
	d := time.Since(start)
	failed := sw.code >= 500 || sw.code == http.StatusTooManyRequests
	if sp != nil {
		sp.SetAttr("code", strconv.Itoa(sw.code))
		if failed {
			sp.SetError(http.StatusText(sw.code))
		}
	}
	if rt.dur == nil {
		return
	}
	if kept(tr, sp, failed, d) {
		rt.dur.ObserveEx(d.Seconds(), sp.TraceID())
	} else {
		rt.dur.Observe(d.Seconds())
	}
	c := rt.requests[sw.code]
	if c == nil {
		c = rt.edge.metrics.Requests(rt.route, sw.code)
	}
	c.Inc()
}

// call runs the handler behind the method check and answers a panic that
// escapes it with a JSON 500 instead of unwinding the server.
func (rt *wrapped) call(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("%s: panic serving %s %s: %v", rt.edge.name, r.Method, r.URL.Path, p)
			// The handler may have written already; then this is best-effort.
			WriteError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	if rt.method != "" && r.Method != rt.method {
		WriteError(w, http.StatusMethodNotAllowed, rt.method+" only")
		return
	}
	rt.h(w, r)
}

// kept reports whether the request's trace will plausibly be retained:
// head-sampled, failed, or at or over the slow threshold. Only then is its
// ID worth stamping as a latency exemplar; a dropped trace would leave a
// dangling ID in /debug/trace/exemplars.
func kept(tr *trace.Tracer, sp *trace.Span, failed bool, d time.Duration) bool {
	if sp == nil {
		return false
	}
	thr := tr.SlowThreshold()
	return sp.Context().Sampled || failed || (thr > 0 && d >= thr)
}

// statusWriter captures the response code for the span and the counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Spans serves GET /debug/trace/spans[?trace=ID|n=K]: retained spans as
// JSON, oldest first, with the sorted set of services that recorded them.
// ?trace= answers what gather returns for that trace: the process's own
// spans, or on the proxy the cross-process assembly. Without it, ?n= bounds
// the listing of tr's own retention. Malformed parameters are 400; without
// a tracer the endpoint is 404.
func Spans(tr *trace.Tracer, gather func(ctx context.Context, traceID string) []trace.SpanData) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			WriteError(w, http.StatusNotFound, "tracing disabled (start with -trace-sample)")
			return
		}
		var spans []trace.SpanData
		if id := r.URL.Query().Get("trace"); id != "" {
			if !trace.ValidTraceIDString(id) {
				WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad trace %q (want 32 lowercase hex digits)", id))
				return
			}
			spans = gather(r.Context(), id)
		} else {
			n := 0
			if sn := r.URL.Query().Get("n"); sn != "" {
				v, err := strconv.Atoi(sn)
				if err != nil || v < 0 {
					WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad n %q", sn))
					return
				}
				n = v
			}
			spans = tr.Recent(n)
		}
		if spans == nil {
			spans = []trace.SpanData{}
		}
		seen := make(map[string]bool)
		services := make([]string, 0, 2)
		for i := range spans {
			if s := spans[i].Service; !seen[s] {
				seen[s] = true
				services = append(services, s)
			}
		}
		sort.Strings(services)
		WriteJSON(w, http.StatusOK, map[string]any{
			"service":  tr.Service(),
			"services": services,
			"spans":    spans,
		})
	}
}

// Exemplars serves GET /debug/trace/exemplars: the wrapped routes' latency
// buckets that currently carry a trace-ID exemplar, so a bad bucket resolves
// to a concrete trace without leaving the debug plane. The text /metrics
// exposition never carries these.
func (e *Edge) Exemplars(w http.ResponseWriter, _ *http.Request) {
	routes := make(map[string][]telemetry.BucketExemplar, len(e.durs))
	for route, h := range e.durs {
		if ex := h.Exemplars(); len(ex) > 0 {
			routes[route] = ex
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"routes": routes})
}

// WriteJSON answers status with v encoded as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // client gone: nothing useful to do
}

// WriteError answers status with the {"error": msg} JSON body every sthistd
// and sthproxy error carries.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

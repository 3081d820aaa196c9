package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sthist/internal/telemetry"
	"sthist/internal/trace"
)

// SetTracer attaches the distributed-tracing plane: every request gets a
// node-side root span continuing the caller's traceparent (or starting a
// fresh trace), the feedback pipeline records stage spans (queue wait, WAL
// append, fsync, apply with the round's detail, drift shadow), and the
// /debug/trace/spans and /debug/trace/exemplars routes start answering. Call
// before serving traffic. A nil tracer is a no-op.
func (s *Server) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// Tracer returns the attached tracer, or nil.
func (s *Server) Tracer() *trace.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

// traceMiddleware starts the node-side root span for every request: the
// traceparent header (injected by sthproxy or sthload) is continued when
// present and well-formed, a fresh head-sampled trace is started otherwise,
// and the trace ID is stamped on the response so clients can always quote
// it. Status >= 500 and backpressure 429s mark the span failed, which forces
// tail retention of the whole trace.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.Tracer()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		sc, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
		route := r.URL.Path
		if !instrumentedRoutes[route] {
			route = "other"
		}
		sp := tr.StartRemote(sc, "node "+route)
		defer sp.End()
		w.Header().Set(trace.TraceIDHeader, sp.TraceID())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(trace.ContextWithSpan(r.Context(), sp)))
		sp.SetAttr("code", strconv.Itoa(sw.code))
		if sw.code >= 500 || sw.code == http.StatusTooManyRequests {
			sp.SetError(http.StatusText(sw.code))
		}
	})
}

// exemplarKeep decides whether this request's trace will plausibly be
// retained (head-sampled, error, or slow) — only then is its ID worth
// stamping as a latency exemplar; a dropped trace would leave dangling IDs
// in /debug/trace/exemplars.
func exemplarKeep(tr *trace.Tracer, sp *trace.Span, code int, d time.Duration) bool {
	if sp == nil {
		return false
	}
	if sp.Context().Sampled || code >= 500 || code == http.StatusTooManyRequests {
		return true
	}
	thr := tr.SlowThreshold()
	return thr > 0 && d >= thr
}

// handleTraceSpans serves GET /debug/trace/spans[?trace=ID|n=K]: the
// process's retained spans as JSON, oldest first. ?trace= filters to one
// trace (the cross-process assembly key sthproxy merges on); ?n= bounds the
// unfiltered listing. Malformed parameters are 400.
func (s *Server) handleTraceSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	tr := s.Tracer()
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("tracing disabled (start with -trace-sample)"))
		return
	}
	var spans []trace.SpanData
	if id := r.URL.Query().Get("trace"); id != "" {
		if !trace.ValidTraceIDString(id) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace %q (want 32 lowercase hex digits)", id))
			return
		}
		spans = tr.Spans(id)
	} else {
		n := 0
		if sn := r.URL.Query().Get("n"); sn != "" {
			v, err := strconv.Atoi(sn)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", sn))
				return
			}
			n = v
		}
		spans = tr.Recent(n)
	}
	if spans == nil {
		spans = []trace.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service": tr.Service(),
		"spans":   spans,
	})
}

// handleTraceExemplars serves GET /debug/trace/exemplars: per-route latency
// buckets that currently carry a trace-ID exemplar, so a bad p99 bucket in
// sthist_http_request_duration_seconds resolves to a concrete trace without
// leaving the debug plane. The text /metrics exposition never carries these.
func (s *Server) handleTraceExemplars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	s.mu.RLock()
	durs := s.routeDurs
	s.mu.RUnlock()
	routes := make(map[string][]telemetry.BucketExemplar, len(durs))
	for route, h := range durs {
		if ex := h.Exemplars(); len(ex) > 0 {
			routes[route] = ex
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"routes": routes})
}

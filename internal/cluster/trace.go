package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sthist/internal/telemetry"
	"sthist/internal/trace"
)

// statusRecorder captures the status code a proxied handler wrote so the
// trace middleware can attach it to the root span.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps one proxied route with the proxy-side root span: the caller's
// traceparent (injected by sthload) is continued when present, every response
// — including proxy-originated 503s and passed-through 429s — is stamped with
// X-Sthist-Trace-Id, and 5xx/429 outcomes mark the span failed, forcing tail
// retention. Route latency lands on the per-route histogram with a trace-ID
// exemplar whenever the trace is plausibly retained.
func (p *Proxy) traced(route string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := p.tracer
		var sp *trace.Span
		if tr != nil {
			sc, _ := trace.ParseTraceparent(r.Header.Get(trace.TraceparentHeader))
			sp = tr.StartRemote(sc, "proxy "+route)
			defer sp.End()
			w.Header().Set(trace.TraceIDHeader, sp.TraceID())
			r = r.WithContext(trace.ContextWithSpan(r.Context(), sp))
		}
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next(sw, r)
		d := time.Since(start)
		sp.SetAttr("code", strconv.Itoa(sw.code))
		if sw.code >= 500 || sw.code == http.StatusTooManyRequests {
			sp.SetError(http.StatusText(sw.code))
		}
		h := p.durs[route]
		if h == nil {
			return
		}
		keep := sp != nil && (sp.Context().Sampled || sw.code >= 500 ||
			sw.code == http.StatusTooManyRequests ||
			(tr.SlowThreshold() > 0 && d >= tr.SlowThreshold()))
		if keep {
			h.ObserveEx(d.Seconds(), sp.TraceID())
		} else {
			h.Observe(d.Seconds())
		}
	}
}

// handleTraceSpans serves GET /debug/trace/spans on the proxy. With ?trace=ID
// it assembles the cross-process trace: the proxy's own retained spans merged
// with the spans every ready target still holds for that ID, deduplicated
// into one timeline. Without ?trace= it lists the proxy's local retention
// (?n= bounds it). Malformed parameters are 400.
func (p *Proxy) handleTraceSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tr := p.tracer
	if tr == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start with -trace-sample)")
		return
	}
	var spans []trace.SpanData
	if id := r.URL.Query().Get("trace"); id != "" {
		if !trace.ValidTraceIDString(id) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad trace %q (want 32 lowercase hex digits)", id))
			return
		}
		groups := [][]trace.SpanData{tr.Spans(id)}
		for _, target := range p.ring.Targets() {
			if !p.mon.Ready(target) {
				continue
			}
			u, err := p.send(r.Context(), http.MethodGet, target, "/debug/trace/spans?trace="+id, "", nil)
			if err != nil || u.status != http.StatusOK {
				continue // a target without tracing (404) or mid-failover contributes nothing
			}
			var part struct {
				Spans []trace.SpanData `json:"spans"`
			}
			if err := json.Unmarshal(u.body, &part); err == nil {
				groups = append(groups, part.Spans)
			}
		}
		spans = trace.Merge(groups...)
	} else {
		n := 0
		if sn := r.URL.Query().Get("n"); sn != "" {
			v, err := strconv.Atoi(sn)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("bad n %q", sn))
				return
			}
			n = v
		}
		spans = tr.Recent(n)
	}
	if spans == nil {
		spans = []trace.SpanData{}
	}
	services := make(map[string]bool)
	for i := range spans {
		services[spans[i].Service] = true
	}
	names := make([]string, 0, len(services))
	for s := range services {
		names = append(names, s)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"service":  tr.Service(),
		"services": names,
		"spans":    spans,
	})
}

// handleTraceExemplars serves GET /debug/trace/exemplars: the proxy-side
// per-route latency buckets that currently carry a trace-ID exemplar.
func (p *Proxy) handleTraceExemplars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	routes := make(map[string][]telemetry.BucketExemplar, len(p.durs))
	for route, h := range p.durs {
		if ex := h.Exemplars(); len(ex) > 0 {
			routes[route] = ex
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"routes": routes})
}

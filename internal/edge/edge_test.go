package edge

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"sthist/internal/telemetry"
	"sthist/internal/trace"
)

// sampledParent is a head-sampled context a caller would propagate. A
// request without one starts a fresh trace, unsampled at the fixture's
// sample rate 0.
const sampledParent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// testMetrics mints request instruments on reg the way each process does.
func testMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Duration: func(route string) *telemetry.Histogram {
			return reg.Histogram("sthist_test_request_duration_seconds", "Test route latency.",
				telemetry.LatencyBuckets(), telemetry.L("route", route))
		},
		Requests: func(route string, code int) *telemetry.Counter {
			return reg.Counter("sthist_test_requests_total", "Test requests by route and code.", Labels(route, code))
		},
	}
}

// fixture is an edge over fake handlers: one per outcome the wrapper
// distinguishes.
type fixture struct {
	h   http.Handler
	tr  *trace.Tracer
	reg *telemetry.Registry
}

// newFixture builds the fixture with a tracer whose own head sampling is
// off, so only a sampled traceparent, a failure or slowness keeps a trace.
// slow is the tracer's slow threshold (negative disables it).
func newFixture(t *testing.T, slow time.Duration) fixture {
	t.Helper()
	f := fixture{
		tr:  trace.New(trace.Options{Service: "test", SlowThreshold: slow, Seed: 1}),
		reg: telemetry.NewRegistry(),
	}
	e := New("test", f.tr, testMetrics(f.reg))
	mux := http.NewServeMux()
	e.Handle(mux, "/ok", http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	e.Handle(mux, "/fail", http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, "down")
	})
	e.Handle(mux, "/busy", http.MethodPost, func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusTooManyRequests, "queue full")
	})
	e.Handle(mux, "/panic", http.MethodGet, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	e.Handle(mux, "/teapot", http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		WriteError(w, http.StatusTeapot, "short and stout")
	})
	e.Handle(mux, "/debug/trace/exemplars", http.MethodGet, e.Exemplars)
	f.h = mux
	return f
}

// do serves one request, continuing traceparent when it is non-empty.
func (f fixture) do(method, path, traceparent string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	w := httptest.NewRecorder()
	f.h.ServeHTTP(w, req)
	return w
}

// root returns the retained root span of the response's trace, if any.
func (f fixture) root(t *testing.T, w *httptest.ResponseRecorder) (trace.SpanData, bool) {
	t.Helper()
	id := w.Header().Get(trace.TraceIDHeader)
	if !trace.ValidTraceIDString(id) {
		t.Fatalf("response carries bad %s %q", trace.TraceIDHeader, id)
	}
	for _, sd := range f.tr.Spans(id) {
		if strings.HasPrefix(sd.Name, "test ") {
			return sd, true
		}
	}
	return trace.SpanData{}, false
}

func (f fixture) count(route string, code int) uint64 {
	return f.reg.Counter("sthist_test_requests_total", "Test requests by route and code.", Labels(route, code)).Value()
}

// assertJSONError requires a JSON {"error": string} answer with status want.
func assertJSONError(t *testing.T, what string, w *httptest.ResponseRecorder, want int) {
	t.Helper()
	if w.Code != want {
		t.Errorf("%s = %d, want %d", what, w.Code, want)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", what, ct)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || len(body) != 1 || body["error"] == "" {
		t.Errorf("%s: body %q is not {\"error\": string} (%v)", what, w.Body.String(), err)
	}
}

func TestWrongMethodIsJSON405WithTraceID(t *testing.T) {
	f := newFixture(t, -1)
	w := f.do(http.MethodPost, "/ok", sampledParent)
	assertJSONError(t, "POST /ok", w, http.StatusMethodNotAllowed)
	if got := w.Header().Get(trace.TraceIDHeader); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("405 %s = %q, want the caller's trace", trace.TraceIDHeader, got)
	}
	if sd, ok := f.root(t, w); !ok || sd.Name != "test /ok" {
		t.Errorf("405 root span = %+v (retained %v), want test /ok", sd, ok)
	}
	if got := f.count("/ok", http.StatusMethodNotAllowed); got != 1 {
		t.Errorf("405 counted %d times, want 1", got)
	}
}

// 5xx and 429 mark the root span failed, which retains an unsampled trace;
// an unsampled success is dropped.
func TestFailedStatusForcesRetention(t *testing.T) {
	f := newFixture(t, -1)
	for _, c := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/fail", http.StatusServiceUnavailable},
		{http.MethodPost, "/busy", http.StatusTooManyRequests},
	} {
		w := f.do(c.method, c.path, "")
		if w.Code != c.code {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, w.Code, c.code)
		}
		sd, ok := f.root(t, w)
		if !ok {
			t.Errorf("unsampled %d trace not retained", c.code)
			continue
		}
		if sd.Error != http.StatusText(c.code) {
			t.Errorf("%d root span error = %q", c.code, sd.Error)
		}
		if got := attr(sd, "code"); got != strconv.Itoa(c.code) {
			t.Errorf("%d root span code attr = %q", c.code, got)
		}
	}
	if _, ok := f.root(t, f.do(http.MethodGet, "/ok", "")); ok {
		t.Error("unsampled, fast 200 trace was retained")
	}
}

func attr(sd trace.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// An exemplar is stamped only when the request's trace is kept: sampled,
// failed, or at or over the slow threshold.
func TestExemplarOnlyWhenTraceKept(t *testing.T) {
	for _, c := range []struct {
		name        string
		slow        time.Duration
		path        string
		traceparent string
		want        bool
	}{
		{"unsampled fast success", -1, "/ok", "", false},
		{"sampled", -1, "/ok", sampledParent, true},
		{"failed", -1, "/fail", "", true},
		{"slow", time.Nanosecond, "/ok", "", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, c.slow)
			id := f.do(http.MethodGet, c.path, c.traceparent).Header().Get(trace.TraceIDHeader)
			w := f.do(http.MethodGet, "/debug/trace/exemplars", "")
			var out struct {
				Routes map[string][]telemetry.BucketExemplar `json:"routes"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatal(err)
			}
			exs := out.Routes[c.path]
			if got := len(exs) == 1 && exs[0].TraceID == id; got != c.want {
				t.Errorf("exemplars for %s = %+v, want stamped with %s: %v", c.path, exs, id, c.want)
			}
		})
	}
}

// A panic in a handler is answered as a JSON 500, counted and traced as a
// failure, and the edge keeps serving.
func TestPanicIsJSON500(t *testing.T) {
	f := newFixture(t, -1)
	w := f.do(http.MethodGet, "/panic", "")
	assertJSONError(t, "GET /panic", w, http.StatusInternalServerError)
	if sd, ok := f.root(t, w); !ok || sd.Error == "" {
		t.Errorf("panic root span = %+v (retained %v), want failed", sd, ok)
	}
	if got := f.count("/panic", http.StatusInternalServerError); got != 1 {
		t.Errorf("panic counted %d times as 500, want 1", got)
	}
	if w := f.do(http.MethodGet, "/ok", ""); w.Code != http.StatusOK {
		t.Errorf("after a panic GET /ok = %d", w.Code)
	}

	// Without a tracer or instruments the wrapper still recovers.
	bare := New("test", nil, nil).Wrap("/panic", http.MethodGet, func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/panic", nil))
	assertJSONError(t, "bare GET /panic", rec, http.StatusInternalServerError)
}

// Status codes outside the minted set fall back to the process's mint
// function and still count under their own code.
func TestRequestsCountedByRouteAndCode(t *testing.T) {
	f := newFixture(t, -1)
	f.do(http.MethodGet, "/ok", "")
	f.do(http.MethodGet, "/ok", "")
	f.do(http.MethodGet, "/teapot", "")
	if got := f.count("/ok", http.StatusOK); got != 2 {
		t.Errorf("/ok 200 count = %d, want 2", got)
	}
	if got := f.count("/teapot", http.StatusTeapot); got != 1 {
		t.Errorf("/teapot 418 count = %d, want 1", got)
	}
	if got := f.count("/ok", http.StatusNotFound); got != 0 {
		t.Errorf("/ok 404 count = %d, want 0", got)
	}
}

func TestSpansWithoutTracerIsJSON404(t *testing.T) {
	h := Spans(nil, nil)
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/debug/trace/spans", nil))
	assertJSONError(t, "spans without tracer", w, http.StatusNotFound)
}

// TestSpansValidation is the ?trace=/?n= matrix of the one spans endpoint
// sthistd and sthproxy share: malformed values are JSON 400s; valid ones
// answer the shared shape, with ?trace= served by gather.
func TestSpansValidation(t *testing.T) {
	tr := trace.New(trace.Options{Service: "test", SampleRate: 1, Seed: 1})
	sp := tr.StartRoot("test /ok")
	sp.End()
	var gathered []string
	h := Spans(tr, func(_ context.Context, id string) []trace.SpanData {
		gathered = append(gathered, id)
		return append(tr.Spans(id), trace.SpanData{TraceID: id, SpanID: "1", Name: "remote", Service: "other"})
	})
	for _, c := range []struct {
		query string
		code  int
	}{
		{"", http.StatusOK},
		{"?n=5", http.StatusOK},
		{"?n=0", http.StatusOK},
		{"?trace=0123456789abcdef0123456789abcdef", http.StatusOK},
		{"?trace=" + sp.TraceID(), http.StatusOK},
		{"?trace=XYZ", http.StatusBadRequest},
		{"?trace=0123", http.StatusBadRequest},
		{"?trace=nope", http.StatusBadRequest},
		{"?trace=0123456789ABCDEF0123456789ABCDEF", http.StatusBadRequest},
		{"?n=-1", http.StatusBadRequest},
		{"?n=abc", http.StatusBadRequest},
		{"?n=x", http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodGet, "/debug/trace/spans"+c.query, nil))
		if c.code != http.StatusOK {
			assertJSONError(t, "GET "+c.query, w, c.code)
			continue
		}
		if w.Code != http.StatusOK {
			t.Errorf("GET %q = %d, want 200", c.query, w.Code)
			continue
		}
		var out struct {
			Service  string           `json:"service"`
			Services []string         `json:"services"`
			Spans    []trace.SpanData `json:"spans"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.Service != "test" || out.Spans == nil || out.Services == nil {
			t.Errorf("GET %q body %s: want service, services and spans (%v)", c.query, w.Body, err)
		}
		if c.query == "?trace="+sp.TraceID() && (len(out.Spans) != 2 || strings.Join(out.Services, ",") != "other,test") {
			t.Errorf("gathered trace = %+v over %v, want the local root and the remote span", out.Spans, out.Services)
		}
	}
	if len(gathered) != 2 {
		t.Errorf("gather ran for %v, want the two valid ?trace= lookups", gathered)
	}
}

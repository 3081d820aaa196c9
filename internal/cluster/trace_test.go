package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"sthist/internal/trace"
)

// newTracedCluster builds n traced backends and a traced proxy over them:
// every process records at sample rate 1 so assembly tests see all spans.
func newTracedCluster(t *testing.T, n int) (*Proxy, *Chaos, []string) {
	t.Helper()
	targets := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := newTracedBackend(t, trace.New(trace.Options{
			Service: fmt.Sprintf("sthistd:%d", i), SampleRate: 1, Seed: int64(100 + i),
		}))
		targets[i] = ts.URL
	}
	chaos := NewChaos(nil)
	p, err := NewProxy(ProxyOptions{
		Targets:    targets,
		Vnodes:     32,
		RetryBase:  1e6, // 1ms
		RetryMax:   5e6,
		HedgeAfter: 25e6,
		Transport:  chaos,
		Seed:       42,
		Health:     MonitorOptions{Timeout: 1e9},
		Tracer:     trace.New(trace.Options{Service: "sthproxy", SampleRate: 1, Seed: 9}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultUpAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	if got := p.Monitor().ReadyCount(); got != n {
		t.Fatalf("after absorption ReadyCount = %d, want %d", got, n)
	}
	return p, chaos, targets
}

func postTraced(t *testing.T, h http.Handler, path string, body []byte, traceparent string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func assembledSpans(t *testing.T, p *Proxy, traceID string) ([]trace.SpanData, []string) {
	t.Helper()
	w := getVia(t, p.Handler(), "/debug/trace/spans?trace="+traceID)
	if w.Code != http.StatusOK {
		t.Fatalf("assembly endpoint = %d (%s)", w.Code, w.Body)
	}
	var out struct {
		Services []string         `json:"services"`
		Spans    []trace.SpanData `json:"spans"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Spans, out.Services
}

// One feedback request through the proxy must assemble into a single trace
// whose spans cross the process boundary: proxy root and attempt from the
// proxy's ring, node root and pipeline stages scraped from the target.
func TestProxyTraceAssemblyAcrossProcesses(t *testing.T) {
	p, _, _ := newTracedCluster(t, 2)
	const traceID = "aaaabbbbccccdddd0000111122223333"

	w := postTraced(t, p.Handler(), "/feedback", feedbackReq(12),
		"00-"+traceID+"-00f067aa0ba902b7-01")
	if w.Code != http.StatusOK {
		t.Fatalf("feedback via proxy = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get(trace.TraceIDHeader); got != traceID {
		t.Fatalf("%s = %q, want %q", trace.TraceIDHeader, got, traceID)
	}

	spans, services := assembledSpans(t, p, traceID)
	names := make(map[string]int)
	for _, sd := range spans {
		names[sd.Name]++
		if sd.TraceID != traceID {
			t.Errorf("span %s carries trace %q", sd.Name, sd.TraceID)
		}
	}
	for _, want := range []string{"proxy /feedback", "proxy.attempt", "node /feedback", "feedback.queue", "feedback.apply"} {
		if names[want] == 0 {
			t.Errorf("assembled trace lacks %q; have %v", want, names)
		}
	}
	if len(services) < 2 {
		t.Errorf("assembled trace covers services %v, want proxy + node", services)
	}
	// The attempt span parents the node root: the traceparent handoff worked.
	var attemptID string
	for _, sd := range spans {
		if sd.Name == "proxy.attempt" {
			attemptID = sd.SpanID
		}
	}
	foundHandoff := false
	for _, sd := range spans {
		if sd.Name == "node /feedback" && sd.ParentID == attemptID {
			foundHandoff = true
		}
	}
	if !foundHandoff {
		t.Error("node root span is not parented under the proxy attempt span")
	}
}

// A proxy-originated 503 (all candidates down) must still carry the trace ID
// so the failure is chaseable, and the error trace must be tail-retained.
func TestProxyTraceIDOnUnavailable503(t *testing.T) {
	p, chaos, targets := newTracedCluster(t, 2)
	for _, tgt := range targets {
		chaos.Set(tgt, ChaosDrop, 0)
	}
	const traceID = "0000111122223333aaaabbbbccccdddd"
	w := postTraced(t, p.Handler(), "/estimate", estimateReq(),
		"00-"+traceID+"-00f067aa0ba902b7-00") // unsampled: retention must come from the error
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-down estimate = %d, want 503", w.Code)
	}
	if got := w.Header().Get(trace.TraceIDHeader); got != traceID {
		t.Fatalf("503 %s = %q, want %q", trace.TraceIDHeader, got, traceID)
	}
	spans, _ := assembledSpans(t, p, traceID)
	if len(spans) == 0 {
		t.Fatal("unsampled error trace was not tail-retained")
	}
	root := spans[len(spans)-1]
	foundErr := false
	for _, sd := range spans {
		if sd.Error != "" {
			foundErr = true
		}
	}
	if !foundErr {
		t.Errorf("503 trace has no failed span: %+v", root)
	}
}

// A retried read around a dead primary must leave BOTH attempts in the trace:
// the failed attempt at the dead target and the successful one elsewhere —
// the smoke test asserts the same shape across real processes.
func TestProxyRetryTraceHasDeadAndLiveAttempts(t *testing.T) {
	p, chaos, _ := newTracedCluster(t, 3)
	primary := p.ring.Primary("orders")
	chaos.Set(primary, ChaosDrop, 0)

	const traceID = "9999888877776666aaaabbbbccccdddd"
	w := postTraced(t, p.Handler(), "/estimate", estimateReq(),
		"00-"+traceID+"-00f067aa0ba902b7-01")
	if w.Code != http.StatusOK {
		t.Fatalf("estimate with dead primary = %d (%s)", w.Code, w.Body)
	}

	spans, _ := assembledSpans(t, p, traceID)
	var dead, live bool
	for _, sd := range spans {
		if sd.Name != "proxy.attempt" {
			continue
		}
		target := ""
		for _, a := range sd.Attrs {
			if a.Key == "target" {
				target = a.Value
			}
		}
		if target == primary && sd.Error != "" {
			dead = true
		}
		if target != primary && sd.Error == "" {
			live = true
		}
	}
	if !dead {
		t.Error("trace lacks the failed attempt at the dead primary")
	}
	if !live {
		t.Error("trace lacks the successful attempt at the failover target")
	}
}

// Without a tracer the proxy's spans endpoint is a JSON 404, and the
// route latency histograms are exposed. The ?trace=/?n= validation matrix
// both processes share is in internal/edge (TestSpansValidation).
func TestProxyTraceSpansValidation(t *testing.T) {
	p, _, _ := newTracedCluster(t, 2)
	bare, err := NewProxy(ProxyOptions{Targets: []string{"http://127.0.0.1:1"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertJSONError(t, "untraced proxy spans endpoint", getVia(t, bare.Handler(), "/debug/trace/spans"), http.StatusNotFound)
	if !strings.Contains(metricsText(t, p), "sthist_proxy_request_duration_seconds") {
		t.Error("metrics lack sthist_proxy_request_duration_seconds")
	}
}

// TestProxyHandlerWrapsRoutes pins the proxy's edge: every route answers a
// wrong method with a JSON 405, but only the five proxied routes trace as
// "proxy <route>" and have latency and request series.
func TestProxyHandlerWrapsRoutes(t *testing.T) {
	p, _, _ := newTracedCluster(t, 2)
	h := p.Handler()
	traced := map[string]string{
		"/estimate": http.MethodPost, "/feedback": http.MethodPost,
		"/stats": http.MethodGet, "/tables": http.MethodGet, "/snapshot": http.MethodGet,
	}
	bare := map[string]string{
		"/livez": http.MethodGet, "/readyz": http.MethodGet, "/healthz": http.MethodGet,
		"/cluster": http.MethodGet, "/debug/trace/spans": http.MethodGet, "/debug/trace/exemplars": http.MethodGet,
	}
	for _, routes := range []map[string]string{traced, bare} {
		for route, method := range routes {
			wrong := http.MethodPost
			if method == http.MethodPost {
				wrong = http.MethodGet
			}
			req := httptest.NewRequest(wrong, route, nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			assertJSONError(t, wrong+" "+route, w, http.StatusMethodNotAllowed)
			id := w.Header().Get(trace.TraceIDHeader)
			_, isTraced := traced[route]
			if (id != "") != isTraced {
				t.Errorf("%s %s: trace ID %q, traced route %v", wrong, route, id, isTraced)
				continue
			}
			if isTraced {
				spans := p.tracer.Spans(id)
				if len(spans) != 1 || spans[0].Name != "proxy "+route {
					t.Errorf("%s %s traced as %+v, want one proxy %s span", wrong, route, spans, route)
				}
			}
		}
	}

	mt := metricsText(t, p)
	labelled := map[string]bool{}
	for _, m := range regexp.MustCompile(`sthist_proxy_request_duration_seconds_count\{route="([^"]+)"\}`).FindAllStringSubmatch(mt, -1) {
		labelled[m[1]] = true
	}
	if len(labelled) != len(traced) {
		t.Errorf("latency series for routes %v, want exactly the proxied routes", labelled)
	}
	for route := range traced {
		if want := fmt.Sprintf(`sthist_proxy_requests_total{code="405",route=%q} 1`, route); !strings.Contains(mt, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

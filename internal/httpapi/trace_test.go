package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sthist"
	"sthist/internal/faultfs"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
	"sthist/internal/wal"
)

// newTracedServer builds a durable one-table server with tracing at sample
// rate 1, so every request's trace is retained and stage spans are
// observable.
func newTracedServer(t *testing.T) (*Server, *httptest.Server, *trace.Tracer) {
	return newTracedServerWith(t, 30, nil, trace.Options{Service: "node-test", SampleRate: 1, Seed: 7})
}

// newTracedServerWith is newTracedServer with a bucket budget, the WAL's
// filesystem (nil for the real one) and the tracer's options.
func newTracedServerWith(t *testing.T, buckets int, fs faultfs.FS, topts trace.Options) (*Server, *httptest.Server, *trace.Tracer) {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: buckets, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "orders"), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	if err := s.RegisterDurable("orders", est, l); err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(telemetry.New(telemetry.Options{}))
	tr := trace.New(topts)
	s.SetTracer(tr)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.DrainFeedback()
		_ = l.Close()
	})
	return s, ts, tr
}

func getSpans(t *testing.T, base, traceID string) []trace.SpanData {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace/spans?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spans endpoint status = %d", resp.StatusCode)
	}
	var out struct {
		Service string           `json:"service"`
		Spans   []trace.SpanData `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Spans
}

func spanNames(spans []trace.SpanData) map[string]trace.SpanData {
	m := make(map[string]trace.SpanData, len(spans))
	for _, sp := range spans {
		m[sp.Name] = sp
	}
	return m
}

func attrMap(sd trace.SpanData) map[string]string {
	m := make(map[string]string, len(sd.Attrs))
	for _, a := range sd.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// postFeedback sends one feedback observation and returns the trace ID the
// node stamped on the reply.
func postFeedback(t *testing.T, base string, lo, hi []float64, actual float64) string {
	t.Helper()
	resp, _ := post(t, base+"/feedback", map[string]any{"table": "orders", "lo": lo, "hi": hi, "actual": actual})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	return resp.Header.Get(trace.TraceIDHeader)
}

func TestTraceMiddlewareStampsTraceID(t *testing.T) {
	_, ts, _ := newTracedServer(t)

	// Without a traceparent the node starts a fresh trace and stamps its ID.
	resp, _ := post(t, ts.URL+"/estimate", map[string]any{
		"table": "orders", "lo": []float64{0, 0}, "hi": []float64{100, 100},
	})
	id := resp.Header.Get(trace.TraceIDHeader)
	if !trace.ValidTraceIDString(id) {
		t.Fatalf("fresh request: bad %s %q", trace.TraceIDHeader, id)
	}

	// With a traceparent the node must continue the caller's trace.
	const want = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/tables", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, "00-"+want+"-00f067aa0ba902b7-01")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(trace.TraceIDHeader); got != want {
		t.Fatalf("continued trace ID = %q, want %q", got, want)
	}
}

func TestFeedbackStageSpans(t *testing.T) {
	_, ts, _ := newTracedServer(t)

	const traceID = "0123456789abcdef0123456789abcdef"
	body := map[string]any{
		"table": "orders", "lo": []float64{0, 0}, "hi": []float64{100, 100}, "actual": 42,
	}
	data, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/feedback", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.TraceparentHeader, "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d, decode err %v", resp.StatusCode, err)
	}

	spans := getSpans(t, ts.URL, traceID)
	byName := spanNames(spans)
	root, ok := byName["node /feedback"]
	if !ok {
		t.Fatalf("no node root span; got %d spans: %+v", len(spans), byName)
	}
	if root.TraceID != traceID {
		t.Errorf("root trace ID = %q, want %q", root.TraceID, traceID)
	}
	if root.ParentID != "00f067aa0ba902b7" {
		t.Errorf("root parent = %q, want caller span ID", root.ParentID)
	}
	for _, stage := range []string{"feedback.queue", "wal.append", "wal.fsync", "feedback.apply"} {
		sp, ok := byName[stage]
		if !ok {
			t.Errorf("missing stage span %q", stage)
			continue
		}
		if sp.ParentID != root.SpanID {
			t.Errorf("%s parent = %q, want root %q", stage, sp.ParentID, root.SpanID)
		}
		if sp.TraceID != traceID {
			t.Errorf("%s trace ID = %q", stage, sp.TraceID)
		}
	}
	if sp := byName["wal.append"]; sp.Error != "" {
		t.Errorf("wal.append unexpectedly failed: %q", sp.Error)
	}
	// The apply span carries the request's own round.
	attrs := attrMap(byName["feedback.apply"])
	for _, k := range []string{"seq", "lo", "hi", "est", "actual", "drills", "skipped", "ns"} {
		if _, ok := attrs[k]; !ok {
			t.Errorf("feedback.apply lacks %q: %v", k, attrs)
		}
	}
	if attrs["lo"] != "[0,0]" || attrs["hi"] != "[100,100]" || attrs["actual"] != "42" ||
		attrs["seq"] != strconv.FormatUint(ack.Seq, 10) {
		t.Errorf("feedback.apply round = %v, want the posted query and actual and the acked seq %d", attrs, ack.Seq)
	}
}

// TestFeedbackApplyCarriesMerges drives a 3-bucket table until it merges:
// every merge of a traced round is a sthole.merge child of that request's
// feedback.apply span, and the kinds and penalties on the spans are the
// ones the recorder's merge instruments counted.
func TestFeedbackApplyCarriesMerges(t *testing.T) {
	s, ts, _ := newTracedServerWith(t, 3, nil, trace.Options{Service: "node-test", SampleRate: 1, Seed: 7})
	kinds := map[string]uint64{}
	var penalties float64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		id := postFeedback(t, ts.URL, []float64{x, y}, []float64{x + 100, y + 100}, float64(rng.Intn(50)))
		spans := getSpans(t, ts.URL, id)
		apply, ok := spanNames(spans)["feedback.apply"]
		if !ok {
			t.Fatalf("request %d: no feedback.apply span", i)
		}
		for _, sp := range spans {
			if sp.Name != "sthole.merge" {
				continue
			}
			if sp.ParentID != apply.SpanID {
				t.Fatalf("sthole.merge parent = %q, want feedback.apply %q", sp.ParentID, apply.SpanID)
			}
			a := attrMap(sp)
			p, err := strconv.ParseFloat(a["penalty"], 64)
			if err != nil {
				t.Fatalf("sthole.merge penalty %q: %v", a["penalty"], err)
			}
			kinds[a["kind"]]++
			penalties += p
		}
	}
	reg := s.Telemetry().Registry()
	var merged uint64
	for _, kind := range []string{telemetry.MergeKindParentChild, telemetry.MergeKindSibling} {
		c := reg.Counter("sthist_merges_total", "", telemetry.Labels{{Key: "table", Value: "orders"}, {Key: "kind", Value: kind}})
		if c.Value() != kinds[kind] {
			t.Errorf("%s merges: %d on spans, %d counted", kind, kinds[kind], c.Value())
		}
		merged += c.Value()
	}
	if merged == 0 {
		t.Fatal("a 3-bucket table never merged")
	}
	h := reg.Histogram("sthist_merge_penalty", "", telemetry.PenaltyBuckets(), telemetry.L("table", "orders"))
	if h.Count() != merged || math.Abs(h.Sum()-penalties) > 1e-9*math.Max(1, penalties) {
		t.Errorf("penalties: %d summing to %g on spans, recorder saw %d summing to %g", merged, penalties, h.Count(), h.Sum())
	}
}

// TestSlowApplyRetainsUnsampledTrace: at sample rate 0 a feedback trace is
// dropped unless something in it is slow or failed. An apply span over the
// slow threshold keeps it, round detail included — slow rounds come from
// tail retention.
func TestSlowApplyRetainsUnsampledTrace(t *testing.T) {
	_, ts, _ := newTracedServerWith(t, 30, nil, trace.Options{Service: "node-test", SlowThreshold: time.Nanosecond, Seed: 7})
	id := postFeedback(t, ts.URL, []float64{10, 10}, []float64{90, 90}, 7)
	apply, ok := spanNames(getSpans(t, ts.URL, id))["feedback.apply"]
	if !ok {
		t.Fatal("slow unsampled feedback trace not retained")
	}
	if a := attrMap(apply); a["lo"] != "[10,10]" || a["actual"] != "7" || a["est"] == "" {
		t.Errorf("retained apply span lost its round: %v", a)
	}
}

// TestWALStageErrorMarking fails one stage of the first group commit and
// checks that the error lands on that stage's span only.
func TestWALStageErrorMarking(t *testing.T) {
	// The initial manifest takes the first write and fsync; the batch's own
	// are the second.
	for stage, fault := range map[string]faultfs.Fault{
		"wal.append": {Op: faultfs.OpWrite, Nth: 2},
		"wal.fsync":  {Op: faultfs.OpSync, Nth: 2},
	} {
		t.Run(stage, func(t *testing.T) {
			fs := faultfs.NewInjector(faultfs.OS{}, fault)
			_, ts, _ := newTracedServerWith(t, 30, fs, trace.Options{Service: "node-test", SampleRate: 1, Seed: 7})
			byName := spanNames(getSpans(t, ts.URL, postFeedback(t, ts.URL, []float64{0, 0}, []float64{50, 50}, 3)))
			if byName[stage].Error == "" {
				t.Errorf("%s not marked failed: %+v", stage, byName)
			}
			if stage == "wal.fsync" && byName["wal.append"].Error != "" {
				t.Errorf("wal.append marked failed by an fsync fault: %q", byName["wal.append"].Error)
			}
			if _, ok := byName["wal.fsync"]; stage == "wal.append" && ok {
				t.Error("wal.fsync span after a failed append")
			}
		})
	}
}

// TestHandlerWrapsRoutes pins the node's edge: every route it serves, and
// only those, answers a wrong method with a JSON 405, traces as
// "node <route>" and has its own latency and request series; any other
// path counts and traces as "other".
func TestHandlerWrapsRoutes(t *testing.T) {
	_, ts, _ := newTracedServer(t)
	routes := map[string]string{
		"/tables": http.MethodGet, "/estimate": http.MethodPost, "/feedback": http.MethodPost,
		"/stats": http.MethodGet, "/healthz": http.MethodGet, "/livez": http.MethodGet,
		"/readyz": http.MethodGet, "/snapshot": http.MethodGet, "/metrics": http.MethodGet,
		"/debug/trace/spans": http.MethodGet, "/debug/trace/exemplars": http.MethodGet,
	}
	// serve sends one bodiless request and returns its status and the name
	// of its retained node root span.
	serve := func(method, path string) (int, string) {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode == http.StatusMethodNotAllowed && ct != "application/json" {
			t.Errorf("%s %s: 405 Content-Type %q, want application/json", method, path, ct)
		}
		for _, sd := range getSpans(t, ts.URL, resp.Header.Get(trace.TraceIDHeader)) {
			if sd.ParentID == "" {
				return resp.StatusCode, sd.Name
			}
		}
		return resp.StatusCode, ""
	}
	for route, method := range routes {
		wrong := http.MethodPost
		if method == http.MethodPost {
			wrong = http.MethodGet
		}
		if code, span := serve(wrong, route); code != http.StatusMethodNotAllowed || span != "node "+route {
			t.Errorf("%s %s = %d traced as %q, want 405 traced as %q", wrong, route, code, span, "node "+route)
		}
	}
	for _, path := range []string{"/nope", "/debug/trace"} {
		if code, span := serve(http.MethodGet, path); code != http.StatusNotFound || span != "node other" {
			t.Errorf("GET %s = %d traced as %q, want 404 traced as \"node other\"", path, code, span)
		}
	}

	_, body := getBody(t, ts.URL+"/metrics")
	labelled := map[string]bool{}
	for _, m := range regexp.MustCompile(`sthist_http_request_duration_seconds_count\{route="([^"]+)"\}`).FindAllStringSubmatch(body, -1) {
		labelled[m[1]] = true
	}
	if len(labelled) != len(routes)+1 || !labelled["other"] {
		t.Errorf("latency series for routes %v, want the %d served routes plus other", labelled, len(routes))
	}
	for route := range routes {
		if !labelled[route] {
			t.Errorf("no latency series for %s", route)
		}
		if want := fmt.Sprintf(`sthist_http_requests_total{code="405",route=%q} 1`, route); !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if want := `sthist_http_requests_total{code="404",route="other"} 2`; !strings.Contains(body, want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

func TestTraceSpansEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t) // no tracer attached
	resp, err := http.Get(ts.URL + "/debug/trace/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spans endpoint without tracer = %d, want 404", resp.StatusCode)
	}
}

func TestTraceExemplars(t *testing.T) {
	_, ts, _ := newTracedServer(t)

	// Sampled requests stamp exemplars on the route latency histogram.
	post(t, ts.URL+"/estimate", map[string]any{
		"table": "orders", "lo": []float64{0, 0}, "hi": []float64{50, 50},
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/debug/trace/exemplars")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Routes map[string][]telemetry.BucketExemplar `json:"routes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if exs := out.Routes["/estimate"]; len(exs) > 0 {
			if !trace.ValidTraceIDString(exs[0].TraceID) {
				t.Fatalf("exemplar carries bad trace ID %q", exs[0].TraceID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no exemplar appeared for /estimate")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

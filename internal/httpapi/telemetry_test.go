package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sthist"
	"sthist/internal/telemetry"
)

// newTelemetryServer is newTestServer with the observability plane attached.
func newTelemetryServer(t *testing.T) (*Server, *telemetry.Telemetry, *httptest.Server) {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tab.MustAppend([]float64{200 + rng.Float64()*100, 600 + rng.Float64()*100})
	}
	for i := 0; i < 200; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	tel := telemetry.New(telemetry.Options{})
	s.EnableTelemetry(tel)
	if err := s.Register("orders", est); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, tel, ts
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTelemetryServer(t)
	// Drive one estimate, one good feedback, one rejected feedback.
	q := map[string]any{"table": "orders", "lo": []float64{200, 600}, "hi": []float64{300, 700}}
	post(t, ts.URL+"/estimate", q)
	fb := map[string]any{"table": "orders", "lo": []float64{200, 600}, "hi": []float64{300, 700}, "actual": 2000.0}
	post(t, ts.URL+"/feedback", fb)
	bad := map[string]any{"table": "orders", "lo": []float64{200, 600}, "hi": []float64{300, 700}, "actual": -1.0}
	post(t, ts.URL+"/feedback", bad)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`sthist_feedback_rounds_total{table="orders"} 1`,
		`sthist_estimates_total{table="orders"} 1`,
		`sthist_feedback_rejected_total{table="orders"} 1`,
		`sthist_buckets{table="orders"}`,
		`sthist_tree_depth{table="orders"}`,
		`sthist_max_buckets{table="orders"} 40`,
		`sthist_rolling_nae{table="orders"}`,
		`sthist_feedback_duration_seconds_bucket{table="orders",le="+Inf"} 1`,
		`sthist_http_requests_total{code="200",route="/estimate"} 1`,
		`sthist_http_requests_total{code="400",route="/feedback"} 1`,
		`# TYPE sthist_feedback_duration_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugTraceEndpoint pins that the flight-recorder route is gone: with
// telemetry on, GET /debug/trace answers 404. A feedback round's detail rides
// its feedback.apply span instead (TestFeedbackStageSpans).
func TestDebugTraceEndpoint(t *testing.T) {
	_, _, ts := newTelemetryServer(t)
	post(t, ts.URL+"/feedback", map[string]any{
		"table": "orders", "lo": []float64{0, 0}, "hi": []float64{80, 80}, "actual": 10.0,
	})
	for _, url := range []string{"/debug/trace?table=orders&n=3", "/debug/trace?table=orders&slow=1"} {
		if code, body := getBody(t, ts.URL+url); code != http.StatusNotFound {
			t.Errorf("GET %s = %d (%s), want 404", url, code, body)
		}
	}
}

// TestTelemetryDisabledRoutesAbsent pins that a server without telemetry has
// no /metrics or /debug/trace (they 404 through the mux).
func TestTelemetryDisabledRoutesAbsent(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := getBody(t, ts.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("/metrics on a telemetry-less server: status %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/debug/trace?table=orders"); code != http.StatusNotFound {
		t.Errorf("/debug/trace on a telemetry-less server: status %d, want 404", code)
	}
}

// TestStatsConcurrentWithFeedback is the satellite-1 regression test: /stats
// used to read histogram counters without synchronization while /feedback
// mutated them, a data race visible under -race. Hammer /query traffic,
// /stats, /metrics and /healthz in parallel.
func TestStatsConcurrentWithFeedback(t *testing.T) {
	_, _, ts := newTelemetryServer(t)
	const goroutines, iters = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0: // feedback: mutates the histogram counters
					body := map[string]any{
						"table":  "orders",
						"lo":     []float64{float64(i % 900), float64(i % 900)},
						"hi":     []float64{float64(i%900) + 50, float64(i%900) + 50},
						"actual": float64(i),
					}
					data, _ := json.Marshal(body)
					resp, err := http.Post(ts.URL+"/feedback", "application/json", bytes.NewReader(data))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				case 1: // estimate
					body := map[string]any{
						"table": "orders",
						"lo":    []float64{float64(i % 900), float64(i % 900)},
						"hi":    []float64{float64(i%900) + 50, float64(i%900) + 50},
					}
					data, _ := json.Marshal(body)
					resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(data))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				case 2: // stats + healthz: reads the same counters
					for _, path := range []string{"/stats?table=orders", "/healthz"} {
						resp, err := http.Get(ts.URL + path)
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
					}
				case 3: // metrics scrape: runs the structural collectors
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

package httpapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sthist"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
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
	if err := s.Register("orders", est); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer()
	if err := s.Register("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register("t", nil); err == nil {
		t.Error("nil estimator accepted")
	}
}

func TestTablesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "orders" {
		t.Errorf("tables = %v", names)
	}
	// Wrong method rejected.
	r2, err := http.Post(ts.URL+"/tables", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /tables status = %d", r2.StatusCode)
	}
}

func TestEstimateAndFeedback(t *testing.T) {
	_, ts := newTestServer(t)
	q := map[string]any{"table": "orders", "lo": []float64{200, 600}, "hi": []float64{300, 700}}
	resp, out := post(t, ts.URL+"/estimate", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}
	var estVal float64
	if err := json.Unmarshal(out["estimate"], &estVal); err != nil {
		t.Fatal(err)
	}
	if estVal < 500 {
		t.Errorf("estimate = %g, expected the cluster's mass", estVal)
	}
	// Feedback with the truth refines the histogram.
	fb := map[string]any{"table": "orders", "lo": []float64{200, 600}, "hi": []float64{300, 700}, "actual": 2000.0}
	resp, _ = post(t, ts.URL+"/feedback", fb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", resp.StatusCode)
	}
	_, out = post(t, ts.URL+"/estimate", q)
	if err := json.Unmarshal(out["estimate"], &estVal); err != nil {
		t.Fatal(err)
	}
	if estVal < 1500 {
		t.Errorf("estimate after feedback = %g, want ~2000", estVal)
	}
}

// TestFeedbackPastDomain posts feedback on a box far past the domain, whose
// volume overflows. It must teach the histogram what the same count on the
// domain teaches it. A split that divides by the box's volume credits every
// candidate hole 0 and erases the histogram's mass.
func TestFeedbackPastDomain(t *testing.T) {
	s, wide := newTestServer(t)
	_, clipped := newTestServer(t)
	ent, err := s.lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	dom := ent.est.Domain()
	for _, fb := range []struct {
		url    string
		lo, hi []float64
	}{
		{wide.URL, []float64{-1e300, -1e300}, []float64{1e300, 1e300}},
		{clipped.URL, dom.Lo, dom.Hi},
	} {
		body := map[string]any{"table": "orders", "lo": fb.lo, "hi": fb.hi, "actual": 2200.0}
		if resp, out := post(t, fb.url+"/feedback", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback on %v-%v: status %d, %s", fb.lo, fb.hi, resp.StatusCode, out["error"])
		}
	}
	estimate := func(url string, lo, hi []float64) float64 {
		t.Helper()
		_, out := post(t, url+"/estimate", map[string]any{"table": "orders", "lo": lo, "hi": hi})
		var v float64
		if err := json.Unmarshal(out["estimate"], &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, p := range [][2][]float64{
		{{200, 600}, {300, 700}},
		{{0, 0}, {500, 500}},
		{dom.Lo, dom.Hi},
	} {
		got, want := estimate(wide.URL, p[0], p[1]), estimate(clipped.URL, p[0], p[1])
		if got != want {
			t.Errorf("estimate of %v-%v after feedback past the domain = %g, after clipped feedback %g", p[0], p[1], got, want)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []map[string]any{
		{"table": "nope", "lo": []float64{0, 0}, "hi": []float64{1, 1}},
		{"table": "orders", "lo": []float64{1, 1}, "hi": []float64{0, 0}},
		{"table": "orders", "lo": []float64{0}, "hi": []float64{1}},
	}
	for i, c := range cases {
		resp, out := post(t, ts.URL+"/estimate", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("case %d: no error message", i)
		}
	}
	// Feedback without actual.
	resp, _ := post(t, ts.URL+"/feedback", map[string]any{"table": "orders", "lo": []float64{0, 0}, "hi": []float64{1, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("feedback without actual: status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats?table=orders")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	var maxBuckets int
	if err := json.Unmarshal(stats["max_buckets"], &maxBuckets); err != nil {
		t.Fatal(err)
	}
	if maxBuckets != 40 {
		t.Errorf("max_buckets = %d", maxBuckets)
	}
	var health struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(stats["health"], &health); err != nil {
		t.Fatal(err)
	}
	if health.State != "ok" {
		t.Errorf("health.state = %q", health.State)
	}
	var ws struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(stats["wal"], &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Enabled {
		t.Error("wal reported enabled on a non-durable table")
	}
	r2, err := http.Get(ts.URL + "/stats?table=nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown table stats status = %d", r2.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t)
	const rows = 2200 // newTestServer's table
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				body := map[string]any{
					"table": "orders",
					"lo":    []float64{float64(i % 900), float64(i % 900)},
					"hi":    []float64{float64(i%900) + 50, float64(i%900) + 50},
				}
				if g%2 == 0 {
					resp, out := post(t, ts.URL+"/estimate", body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("estimate status %d", resp.StatusCode)
						return
					}
					// Both numbers come from one walk of one snapshot, even
					// while feedback publishes new ones.
					var est, sel float64
					if json.Unmarshal(out["estimate"], &est) != nil || json.Unmarshal(out["selectivity"], &sel) != nil {
						t.Errorf("estimate reply %v", out)
						return
					}
					if sel != est/rows {
						t.Errorf("selectivity %v != estimate %v / %v rows", sel, est, rows)
					}
				} else {
					body["actual"] = float64(i)
					resp, _ := post(t, ts.URL+"/feedback", body)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("feedback status %d", resp.StatusCode)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package cluster

// Proxy tests run against real httpapi backends (httptest servers each
// serving the same table) with chaos injected at the transport, so routing,
// retry, hedging and degradation are exercised end-to-end in-process.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sthist"
	"sthist/internal/httpapi"
	"sthist/internal/trace"
	"sthist/internal/wal"
)

// newBackend starts an httpapi server with table "orders" registered.
func newBackend(t *testing.T) (*httpapi.Server, *httptest.Server) {
	t.Helper()
	return newTracedBackend(t, nil)
}

// newTracedBackend is newBackend with tr attached before the handler is
// built (nil: untraced).
func newTracedBackend(t *testing.T, tr *trace.Tracer) (*httpapi.Server, *httptest.Server) {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewServer()
	if err := s.Register("orders", est); err != nil {
		t.Fatal(err)
	}
	s.SetTracer(tr)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCluster starts n backends and a proxy over them with chaos injection
// and deterministic jitter. The monitor is advanced synchronously until all
// targets are absorbed.
func newCluster(t *testing.T, n int, tweak func(*ProxyOptions)) (*Proxy, *Chaos, []string) {
	t.Helper()
	targets := make([]string, n)
	for i := 0; i < n; i++ {
		_, ts := newBackend(t)
		targets[i] = ts.URL
	}
	chaos := NewChaos(nil)
	// Probes route through the same chaos transport as requests, so a
	// chaos-killed target fails its probes exactly like a SIGKILLed process.
	probeClient := &http.Client{Transport: chaos, Timeout: time.Second}
	probe := func(target string) error {
		resp, err := probeClient.Get(target + "/readyz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	opts := ProxyOptions{
		Targets:        targets,
		Vnodes:         32,
		RequestTimeout: 2 * time.Second,
		RetryBase:      time.Millisecond,
		RetryMax:       5 * time.Millisecond,
		HedgeAfter:     25 * time.Millisecond,
		Transport:      chaos,
		Seed:           42,
		Health:         MonitorOptions{Probe: probe},
	}
	if tweak != nil {
		tweak(&opts)
	}
	p, err := NewProxy(opts)
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

func estimateReq() []byte {
	data, err := json.Marshal(map[string]any{
		"table": "orders", "lo": []float64{100, 100}, "hi": []float64{400, 400},
	})
	if err != nil {
		panic(err)
	}
	return data
}

func feedbackReq(actual float64) []byte {
	data, err := json.Marshal(map[string]any{
		"table": "orders", "lo": []float64{100, 100}, "hi": []float64{400, 400}, "actual": actual,
	})
	if err != nil {
		panic(err)
	}
	return data
}

func postVia(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getVia(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// assertJSONError requires w to answer status want with a JSON
// {"error": string} body and Content-Type application/json, as sthistd does.
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

func metricsText(t *testing.T, p *Proxy) string {
	t.Helper()
	w := getVia(t, p.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	return w.Body.String()
}

func TestProxyRoutesToPrimary(t *testing.T) {
	p, _, _ := newCluster(t, 3, nil)
	h := p.Handler()

	primary := p.ring.Primary("orders")
	w := postVia(t, h, "/estimate", estimateReq())
	if w.Code != http.StatusOK {
		t.Fatalf("estimate via proxy = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Sthist-Served-By"); got != primary {
		t.Fatalf("estimate served by %q, ring primary is %q", got, primary)
	}
	if w.Header().Get("X-Sthist-Stale") != "" {
		t.Fatal("primary-served estimate marked stale")
	}
	var est struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &est); err != nil {
		t.Fatalf("estimate body %q: %v", w.Body, err)
	}

	w = postVia(t, h, "/feedback", feedbackReq(17))
	if w.Code != http.StatusOK {
		t.Fatalf("feedback via proxy = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Sthist-Served-By"); got != primary {
		t.Fatalf("feedback served by %q, want primary %q", got, primary)
	}

	w = getVia(t, h, "/stats?table=orders")
	if w.Code != http.StatusOK {
		t.Fatalf("stats via proxy = %d (%s)", w.Code, w.Body)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("domain")) {
		t.Fatalf("stats body %q lacks domain", w.Body)
	}
}

// A dead primary the monitor has not yet noticed must be absorbed by the
// retry policy: the client sees success, never an error.
func TestProxyRetriesAroundDeadPrimary(t *testing.T) {
	p, chaos, _ := newCluster(t, 3, nil)
	primary := p.ring.Primary("orders")
	chaos.Set(primary, ChaosDrop, 0)

	for i := 0; i < 5; i++ {
		w := postVia(t, p.Handler(), "/estimate", estimateReq())
		if w.Code != http.StatusOK {
			t.Fatalf("estimate %d with dead primary = %d (%s)", i, w.Code, w.Body)
		}
		if got := w.Header().Get("X-Sthist-Served-By"); got == primary {
			t.Fatalf("estimate %d claims the dropped primary served it", i)
		}
		if w.Header().Get("X-Sthist-Stale") != "true" {
			t.Fatalf("estimate %d served by a replica but not marked stale", i)
		}
	}
	if p.retries.Value() == 0 {
		t.Fatal("dead primary absorbed without a single counted retry")
	}
	mt := metricsText(t, p)
	if !strings.Contains(mt, "sthist_proxy_retries_total") {
		t.Fatal("metrics lack sthist_proxy_retries_total")
	}
	if !strings.Contains(mt, "sthist_proxy_stale_serves_total") {
		t.Fatal("metrics lack sthist_proxy_stale_serves_total")
	}
}

// Once probes cross the hysteresis threshold the dead target leaves the
// candidate set: requests go straight to the replica (no retry needed) and
// feedback ownership moves with it.
func TestProxyFailoverAfterHysteresis(t *testing.T) {
	p, chaos, _ := newCluster(t, 3, nil)
	primary := p.ring.Primary("orders")
	chaos.Set(primary, ChaosDrop, 0)

	for i := 0; i < DefaultDownAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	if p.Monitor().Ready(primary) {
		t.Fatal("primary still ready after DownAfter failing probe rounds")
	}

	retriesBefore := p.retries.Value()
	w := postVia(t, p.Handler(), "/estimate", estimateReq())
	if w.Code != http.StatusOK {
		t.Fatalf("estimate after failover = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Sthist-Served-By"); got == primary {
		t.Fatal("failed-over estimate claims the dead primary served it")
	}
	if p.retries.Value() != retriesBefore {
		t.Fatal("failed-over estimate needed a retry; the dead target should have left the candidate set")
	}

	// Feedback ownership moves with the failover: the replica accepts it.
	w = postVia(t, p.Handler(), "/feedback", feedbackReq(9))
	if w.Code != http.StatusOK {
		t.Fatalf("feedback after failover = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Sthist-Served-By"); got == primary {
		t.Fatal("failed-over feedback claims the dead primary served it")
	}
}

// The hedge must fire when the primary blackholes (accepts and never
// answers) and the client still gets a fast successful estimate.
func TestProxyHedgesBlackholedPrimary(t *testing.T) {
	p, chaos, _ := newCluster(t, 3, nil)
	primary := p.ring.Primary("orders")
	chaos.Set(primary, ChaosBlackhole, 0)

	start := time.Now()
	w := postVia(t, p.Handler(), "/estimate", estimateReq())
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("estimate with blackholed primary = %d (%s)", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Sthist-Served-By"); got == primary {
		t.Fatal("blackholed primary cannot have served")
	}
	if p.hedges.Value() == 0 {
		t.Fatal("blackholed primary absorbed without a hedge")
	}
	// The hedge answers long before the 2s attempt deadline.
	if elapsed > time.Second {
		t.Fatalf("hedged estimate took %v; hedge did not short-circuit the blackhole", elapsed)
	}
	if !strings.Contains(metricsText(t, p), "sthist_proxy_hedges_total") {
		t.Fatal("metrics lack sthist_proxy_hedges_total")
	}
}

// With every candidate down the proxy degrades to a 503 that tells the
// client when to retry instead of an opaque error.
func TestProxyAllTargetsDown503(t *testing.T) {
	p, chaos, targets := newCluster(t, 2, nil)
	for _, tgt := range targets {
		chaos.Set(tgt, ChaosDrop, 0)
	}
	w := postVia(t, p.Handler(), "/estimate", estimateReq())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("estimate with all targets down = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	w = postVia(t, p.Handler(), "/feedback", feedbackReq(3))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("feedback with all targets down = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("degraded feedback 503 carries no Retry-After")
	}
}

// Backend backpressure (draining 503 with Retry-After) must pass through the
// proxy unaltered — feedback is not retried elsewhere.
func TestProxyFeedbackBackpressurePassthrough(t *testing.T) {
	backends := make([]*httpapi.Server, 0, 2)
	targets := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		s, ts := newBackend(t)
		backends = append(backends, s)
		targets = append(targets, ts.URL)
	}
	p, err := NewProxy(ProxyOptions{Targets: targets, Vnodes: 32, Seed: 7,
		Health: MonitorOptions{Timeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultUpAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	for _, b := range backends {
		b.DrainFeedback()
	}
	w := postVia(t, p.Handler(), "/feedback", feedbackReq(5))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("feedback to draining backend via proxy = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 lost its Retry-After crossing the proxy")
	}
}

// Unroutable requests fail fast at the proxy, with sthistd's JSON errors.
func TestProxyRejectsTablelessRequests(t *testing.T) {
	p, _, _ := newCluster(t, 2, nil)
	h := p.Handler()
	assertJSONError(t, "tableless estimate", postVia(t, h, "/estimate", []byte(`{"lo":[1],"hi":[2]}`)), http.StatusBadRequest)
	assertJSONError(t, "tableless stats", getVia(t, h, "/stats"), http.StatusBadRequest)
	assertJSONError(t, "tableless snapshot", getVia(t, h, "/snapshot"), http.StatusBadRequest)
}

// GET /snapshot through the proxy ships a restorable archive and observes
// the ship-duration histogram.
func TestProxySnapshotShipsThroughProxy(t *testing.T) {
	// One durable backend plus one plain one, so routing still has a ring.
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "orders")
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	s := httpapi.NewServer()
	if err := s.RegisterDurable("orders", est, l); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	p, err := NewProxy(ProxyOptions{Targets: []string{ts.URL}, Vnodes: 32, Seed: 9,
		Health: MonitorOptions{Timeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultUpAfter; i++ {
		p.Monitor().ProbeOnce()
	}

	w := postVia(t, p.Handler(), "/feedback", feedbackReq(21))
	if w.Code != http.StatusOK {
		t.Fatalf("feedback = %d (%s)", w.Code, w.Body)
	}
	w = getVia(t, p.Handler(), "/snapshot?table=orders")
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot via proxy = %d (%s)", w.Code, w.Body)
	}
	if w.Header().Get("X-Sthist-Last-Seq") == "" {
		t.Fatal("snapshot lost X-Sthist-Last-Seq crossing the proxy")
	}
	dst := filepath.Join(t.TempDir(), "replica")
	if err := wal.RestoreArchive(dst, wal.Options{}, bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatalf("archive shipped through proxy does not restore: %v", err)
	}
	if p.shipDur.Count() == 0 {
		t.Fatal("snapshot ship not observed in the duration histogram")
	}
	if !strings.Contains(metricsText(t, p), "sthist_proxy_snapshot_ship_seconds") {
		t.Fatal("metrics lack sthist_proxy_snapshot_ship_seconds")
	}
}

// The unhealthy gauge must track monitor transitions: 1 at start, 0 once
// absorbed, back to 1 after hysteresis marks a target down.
func TestProxyUnhealthyGauge(t *testing.T) {
	var flips []string
	_, ts := newBackend(t)
	probeOK := true
	p, err := NewProxy(ProxyOptions{
		Targets: []string{ts.URL}, Vnodes: 32, Seed: 3,
		Health: MonitorOptions{
			Probe: func(target string) error {
				if probeOK {
					return nil
				}
				return io.ErrUnexpectedEOF
			},
			OnChange: func(target string, ready bool) {
				flips = append(flips, target+":"+map[bool]string{true: "up", false: "down"}[ready])
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gauge := func() float64 {
		mt := metricsText(t, p)
		for _, line := range strings.Split(mt, "\n") {
			if strings.HasPrefix(line, "sthist_proxy_target_unhealthy{") {
				var v float64
				if _, err := parseSampleValue(line, &v); err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatal("sthist_proxy_target_unhealthy not exposed")
		return -1
	}
	if gauge() != 1 {
		t.Fatal("target not marked unhealthy before absorption")
	}
	for i := 0; i < DefaultUpAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	if gauge() != 0 {
		t.Fatal("absorbed target still marked unhealthy")
	}
	probeOK = false
	for i := 0; i < DefaultDownAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	if gauge() != 1 {
		t.Fatal("downed target not marked unhealthy")
	}
	if len(flips) != 2 || !strings.HasSuffix(flips[0], ":up") || !strings.HasSuffix(flips[1], ":down") {
		t.Fatalf("OnChange sequence = %v, want up then down", flips)
	}
}

// parseSampleValue parses the float value off the end of a Prometheus sample line.
func parseSampleValue(line string, v *float64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, io.ErrUnexpectedEOF
	}
	var parsed float64
	if err := json.Unmarshal([]byte(line[i+1:]), &parsed); err != nil {
		return 0, err
	}
	*v = parsed
	return 1, nil
}

// The proxy's own readiness reflects routable capacity.
func TestProxyReadyz(t *testing.T) {
	_, ts := newBackend(t)
	p, err := NewProxy(ProxyOptions{Targets: []string{ts.URL}, Vnodes: 32, Seed: 1,
		Health: MonitorOptions{Timeout: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if w := getVia(t, p.Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before absorption = %d, want 503", w.Code)
	}
	if w := getVia(t, p.Handler(), "/livez"); w.Code != http.StatusOK {
		t.Fatalf("livez = %d", w.Code)
	}
	for i := 0; i < DefaultUpAfter; i++ {
		p.Monitor().ProbeOnce()
	}
	if w := getVia(t, p.Handler(), "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz after absorption = %d", w.Code)
	}
	w := getVia(t, p.Handler(), "/cluster?table=orders")
	if w.Code != http.StatusOK {
		t.Fatalf("cluster view = %d", w.Code)
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("failover_deadline_ms")) {
		t.Fatalf("cluster view %q lacks failover deadline", w.Body)
	}
}

package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"sthist"
	"sthist/internal/wal"
)

// postRaw sends an exact byte body, bypassing json.Marshal (which cannot
// produce the malformed payloads these tests need).
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestFeedbackRejectsMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t)
	cases := map[string]string{
		"missing-actual":   `{"table":"orders","lo":[0,0],"hi":[1,1]}`,
		"negative-actual":  `{"table":"orders","lo":[0,0],"hi":[1,1],"actual":-5}`,
		"huge-actual":      `{"table":"orders","lo":[0,0],"hi":[1,1],"actual":1e999}`,
		"string-actual":    `{"table":"orders","lo":[0,0],"hi":[1,1],"actual":"12"}`,
		"unknown-field":    `{"table":"orders","lo":[0,0],"hi":[1,1],"actal":12}`,
		"truncated":        `{"table":"orders","lo":[0,0]`,
		"not-json":         `hello`,
		"out-of-domain":    `{"table":"orders","lo":[5000,5000],"hi":[6000,6000],"actual":12}`,
		"inverted-rect":    `{"table":"orders","lo":[1,1],"hi":[0,0],"actual":12}`,
		"wrong-dimensions": `{"table":"orders","lo":[0],"hi":[1],"actual":12}`,
		"unregistered":     `{"table":"nope","lo":[0,0],"hi":[1,1],"actual":12}`,
	}
	for name, body := range cases {
		resp := postRaw(t, ts.URL+"/feedback", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		var out map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("%s: non-JSON error response: %v", name, err)
		} else if _, ok := out["error"]; !ok {
			t.Errorf("%s: no error field", name)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetMaxBodyBytes(256)
	pad := strings.Repeat(" ", 512)
	resp := postRaw(t, ts.URL+"/feedback", `{"table":"orders",`+pad+`"lo":[0,0],"hi":[1,1],"actual":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status = %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("error message %q does not mention the size cap", body)
	}
	// Requests under the cap still work.
	resp2 := postRaw(t, ts.URL+"/feedback", `{"table":"orders","lo":[210,610],"hi":[290,690],"actual":500}`)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("small body after cap: status = %d", resp2.StatusCode)
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t)
	get := func() (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
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
	resp, out := get()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	var status string
	if err := json.Unmarshal(out["status"], &status); err != nil || status != "ok" {
		t.Errorf("healthz body status = %q (%v)", status, err)
	}

	s.SetDraining(true)
	resp, out = get()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(out["status"], &status); err != nil || status != "draining" {
		t.Errorf("draining body status = %q (%v)", status, err)
	}
	s.SetDraining(false)
	if resp, _ := get(); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain cleared: status = %d", resp.StatusCode)
	}
}

// newDegradableServer registers an estimator that validates on every drill so
// a corruption is caught by the very next feedback.
func newDegradableServer(t *testing.T) (*sthist.Estimator, *httptest.Server) {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1500; i++ {
		tab.MustAppend([]float64{100 + rng.Float64()*60, 500 + rng.Float64()*60})
	}
	for i := 0; i < 300; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	est, err := sthist.Open(tab, sthist.Options{Buckets: 30, Seed: 4, ValidateEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	if err := s.Register("orders", est); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return est, ts
}

// TestDegradationVisibleInStats quarantines a table the way the server does
// when a handler recovers a panic, and verifies the degradation is visible
// in /stats and /healthz while the server keeps answering. (The historical
// Box() aliasing hazard is gone: Histogram() now returns an immutable
// snapshot, so writing through an exposed box cannot corrupt serving state.)
func TestDegradationVisibleInStats(t *testing.T) {
	est, ts := newDegradableServer(t)

	if est.Histogram().Validate() != nil {
		t.Fatal("fresh histogram invalid")
	}
	est.Quarantine(errors.New("injected invariant violation"))

	sr, err := http.Get(ts.URL + "/stats?table=orders")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		Health sthist.Health `json:"health"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Health.State != "degraded" || stats.Health.Quarantines != 1 {
		t.Fatalf("stats health = %+v, want degraded/1", stats.Health)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz while degraded: status = %d (degraded != down)", hr.StatusCode)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", hz.Status)
	}

	// Serving continues: estimates from the restored snapshot are sane.
	er := postRaw(t, ts.URL+"/estimate", `{"table":"orders","lo":[100,500],"hi":[160,560]}`)
	if er.StatusCode != http.StatusOK {
		t.Errorf("estimate while degraded: status = %d", er.StatusCode)
	}

	// Clean traffic clears the degradation.
	resp2 := postRaw(t, ts.URL+"/feedback", `{"table":"orders","lo":[105,505],"hi":[155,555],"actual":380}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recovery feedback: status = %d", resp2.StatusCode)
	}
	if h := est.Health(); h.State != "ok" {
		t.Errorf("health after clean traffic = %+v", h)
	}
}

// TestDurableRegistrationAndCheckpoint wires a real WAL behind a table and
// exercises the append -> checkpoint -> restart -> recover loop through the
// HTTP surface; the recovered table must answer exactly like the live one.
func TestDurableRegistrationAndCheckpoint(t *testing.T) {
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 1200; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	opts := sthist.Options{Buckets: 25, Seed: 6}
	open := func() *sthist.Estimator {
		est, err := sthist.Open(tab, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	dir := filepath.Join(t.TempDir(), "orders")
	l, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Snapshot != nil || len(rc.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rc)
	}
	s := NewServer()
	live := open()
	if err := s.RegisterDurable("orders", live, l); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDurable("bad", open(), nil); err == nil {
		t.Error("nil wal accepted")
	}
	ts := httptest.NewServer(s.Handler())

	for i := 0; i < 5; i++ {
		resp, out := post(t, ts.URL+"/feedback", map[string]any{
			"table":  "orders",
			"lo":     []float64{float64(i * 100), float64(i * 100)},
			"hi":     []float64{float64(i*100) + 80, float64(i*100) + 80},
			"actual": float64(10 + i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback %d: status = %d", i, resp.StatusCode)
		}
		var seq uint64
		if err := json.Unmarshal(out["seq"], &seq); err != nil || seq != uint64(i+1) {
			t.Fatalf("feedback %d: seq = %s (%v)", i, out["seq"], err)
		}
	}

	// Stats show the durability state.
	sr, err := http.Get(ts.URL + "/stats?table=orders")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		WAL walStats `json:"wal"`
	}
	err = json.NewDecoder(sr.Body).Decode(&stats)
	sr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.WAL.Enabled || stats.WAL.LastSeq != 5 || stats.WAL.RecordsSinceCkpt != 5 || stats.WAL.Failed {
		t.Fatalf("wal stats = %+v", stats.WAL)
	}

	// Below threshold: CheckpointDue leaves the log alone.
	if err := s.CheckpointDue(100); err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 5 {
		t.Fatalf("last seq after no-op checkpoint = %d", l.LastSeq())
	}
	// At threshold: the checkpoint rotates and resets the counter.
	if err := s.CheckpointDue(5); err != nil {
		t.Fatal(err)
	}
	sr2, err := http.Get(ts.URL + "/stats?table=orders")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(sr2.Body).Decode(&stats)
	sr2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.WAL.RecordsSinceCkpt != 0 {
		t.Fatalf("records since checkpoint after rotation = %d", stats.WAL.RecordsSinceCkpt)
	}

	// One more feedback after the checkpoint, then "restart".
	if resp, _ := post(t, ts.URL+"/feedback", map[string]any{
		"table": "orders", "lo": []float64{10, 10}, "hi": []float64{90, 90}, "actual": 40.0,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-checkpoint feedback: status = %d", resp.StatusCode)
	}
	ts.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, rc2, rv, err := recoverLog(dir, tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rc2.Snapshot == nil || !rv.Checkpoint {
		t.Fatalf("restart lost the checkpoint snapshot: %+v", rv)
	}
	if len(rc2.Records) != 1 || rc2.Records[0].Seq != 6 {
		t.Fatalf("restart tail = %d records (first seq %d), want 1 record seq 6",
			len(rc2.Records), func() uint64 {
				if len(rc2.Records) > 0 {
					return rc2.Records[0].Seq
				}
				return 0
			}())
	}
	assertSameEstimates(t, recovered, live)
}

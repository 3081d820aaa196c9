package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/wal"
)

func TestSetupValidation(t *testing.T) {
	// A table holding an infinite value would open into a histogram that
	// estimates 0.
	infPath := filepath.Join(t.TempDir(), "inf.csv")
	if err := os.WriteFile(infPath, []byte("a,b\n1,2\n3,4\n5,Inf\n7,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Finite values whose bounding box volume, (2e110)^3, overflows: every
	// estimate would be NaN, and /estimate would answer an empty 200.
	hugePath := filepath.Join(t.TempDir(), "huge.csv")
	if err := os.WriteFile(hugePath, []byte("a,b,c\n-1e110,-1e110,-1e110\n1e110,1e110,1e110\n3,4,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"infinite-value":   {"-table", "inf=" + infPath},
		"overflow-volume":  {"-table", "huge=" + hugePath},
		"no-tables":        nil,
		"spec-without-eq":  {"-table", "bad"},
		"empty-name":       {"-table", "=x"},
		"unknown-dataset":  {"-table", "t=@nope:1"},
		"bad-scale":        {"-table", "t=@cross:x"},
		"zero-scale":       {"-table", "t=@cross:0"},
		"negative-scale":   {"-table", "t=@cross:-1"},
		"nan-scale":        {"-table", "t=@cross:NaN"},
		"missing-file":     {"-table", "t=/no/such.csv"},
		"bad-fsync":        {"-table", "t=@cross:0.02", "-fsync", "sometimes"},
		"bad-queue-depth":  {"-table", "t=@cross:0.02", "-feedback-queue", "0"},
		"bad-batch-max":    {"-table", "t=@cross:0.02", "-feedback-batch", "0"},
		"zero-ckpt-every":  {"-table", "t=@cross:0.02", "-checkpoint-interval", "0"},
		"neg-ckpt-every":   {"-table", "t=@cross:0.02", "-checkpoint-interval", "-1s"},
		"zero-ckpt-recs":   {"-table", "t=@cross:0.02", "-checkpoint-records", "0"},
		"drift-sans-telem": {"-table", "t=@cross:0.02", "-drift", "-telemetry=false"},
		"bad-reseed-ratio": {"-table", "t=@cross:0.02", "-drift", "-reseed-ratio", "2"},
		"bad-drift-floor":  {"-table", "t=@cross:0.02", "-drift", "-drift-reservoir", "4", "-drift-min-rounds", "1"},
		"trace-events":     {"-table", "t=@cross:0.02", "-trace-events", "64"},
	}
	for name, args := range cases {
		if _, err := setup(args); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSetupGeneratedAndFileTables(t *testing.T) {
	// One generated table and one file-backed (binary) table.
	ds := datagen.Cross(0.02, 1)
	path := filepath.Join(t.TempDir(), "cross.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Table.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, err := setup([]string{
		"-addr", ":0",
		"-buckets", "30",
		"-table", "gen=@cross:0.02",
		"-table", "file=" + path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.addr != ":0" {
		t.Errorf("addr = %q", d.cfg.addr)
	}
	if len(d.logs) != 0 {
		t.Errorf("durability enabled without -data-dir: %d logs", len(d.logs))
	}
	ts := httptest.NewServer(d.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "file" || names[1] != "gen" {
		t.Errorf("tables = %v", names)
	}
	// Estimate against the generated table.
	body := strings.NewReader(`{"table":"gen","lo":[450,0],"hi":[550,1000]}`)
	r2, err := http.Post(ts.URL+"/estimate", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("estimate status = %d", r2.StatusCode)
	}
}

// TestDebugListenerRoutes pins what -debug-addr serves: pprof and /metrics,
// but no flight-recorder /debug/trace (round detail rides the request trace).
func TestDebugListenerRoutes(t *testing.T) {
	d, err := setup([]string{"-table", "gen=@cross:0.02", "-buckets", "30"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.debugHandler())
	defer ts.Close()
	for path, want := range map[string]int{
		"/metrics":               http.StatusOK,
		"/debug/pprof/":          http.StatusOK,
		"/debug/trace?table=gen": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// estimateOf returns the raw estimate for a fixed probe query.
func estimateOf(t *testing.T, url string, lo, hi [2]float64) float64 {
	t.Helper()
	body := fmt.Sprintf(`{"table":"gen","lo":[%g,%g],"hi":[%g,%g]}`, lo[0], lo[1], hi[0], hi[1])
	resp, err := http.Post(url+"/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d", resp.StatusCode)
	}
	var out struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Estimate
}

// TestRestartRecoversDurableState is the daemon-level recovery round trip:
// serve feedback with -data-dir set, checkpoint mid-stream, tear the server
// down, set it up again from the same directory, and require bit-identical
// estimates from the recovered process.
func TestRestartRecoversDurableState(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{
		"-table", "gen=@cross:0.02",
		"-buckets", "30",
		"-seed", "7",
		"-data-dir", dataDir,
		"-fsync", "none", // keep the test fast; durability is wal's own tests' job
		"-feedback-queue", "64",
		"-feedback-batch", "8",
	}
	d1, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.logs) != 1 {
		t.Fatalf("expected 1 durable table, got %d", len(d1.logs))
	}
	ts := httptest.NewServer(d1.srv.Handler())

	feedbacks := [][4]float64{
		{100, 100, 300, 300}, {400, 0, 600, 1000}, {0, 400, 1000, 600},
		{200, 200, 500, 500}, {600, 600, 900, 900}, {50, 50, 150, 950},
		{300, 100, 700, 400}, {100, 700, 400, 950}, {450, 450, 550, 550},
	}
	post := func(i int, f [4]float64) {
		t.Helper()
		body := fmt.Sprintf(`{"table":"gen","lo":[%g,%g],"hi":[%g,%g],"actual":%d}`,
			f[0], f[1], f[2], f[3], 100+i*37)
		resp, err := http.Post(ts.URL+"/feedback", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("feedback %d: status = %d", i, resp.StatusCode)
		}
	}
	for i, f := range feedbacks[:6] {
		post(i, f)
	}
	// Rotate a checkpoint mid-stream so recovery exercises snapshot + tail.
	if err := d1.srv.Checkpoint("gen"); err != nil {
		t.Fatal(err)
	}
	for i, f := range feedbacks[6:] {
		post(6+i, f)
	}

	probes := [][4]float64{
		{450, 0, 550, 1000}, {0, 450, 1000, 550}, {100, 100, 900, 900}, {250, 250, 350, 350},
	}
	want := make([]float64, len(probes))
	for i, p := range probes {
		want[i] = estimateOf(t, ts.URL, [2]float64{p[0], p[1]}, [2]float64{p[2], p[3]})
	}
	ts.Close()
	d1.srv.DrainFeedback()
	d1.closeLogs()

	// "Restart": a second setup from the same flags and data directory.
	d2, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.closeLogs()
	defer d2.srv.DrainFeedback()
	ts2 := httptest.NewServer(d2.srv.Handler())
	defer ts2.Close()

	for i, p := range probes {
		got := estimateOf(t, ts2.URL, [2]float64{p[0], p[1]}, [2]float64{p[2], p[3]})
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Errorf("probe %d: recovered estimate %v != pre-restart %v", i, got, want[i])
		}
	}

	// The recovered WAL continues the sequence instead of restarting it.
	sr, err := http.Get(ts2.URL + "/stats?table=gen")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats struct {
		WAL struct {
			Enabled bool   `json:"enabled"`
			LastSeq uint64 `json:"last_seq"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.WAL.Enabled || stats.WAL.LastSeq != uint64(len(feedbacks)) {
		t.Errorf("recovered wal stats = %+v, want enabled with last_seq %d", stats.WAL, len(feedbacks))
	}
}

// TestSetupDriftEnabled wires -drift through setup and checks the loop is
// live on every registered table via /stats.
func TestSetupDriftEnabled(t *testing.T) {
	d, err := setup([]string{
		"-addr", ":0",
		"-buckets", "30",
		"-table", "gen=@cross:0.02",
		"-drift",
		"-drift-nae", "0.4",
		"-drift-window", "2",
		"-reseed-probation", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.cfg.drift || d.cfg.driftCfg.NAEThreshold != 0.4 || d.cfg.driftCfg.Sustain != 2 || d.cfg.driftCfg.Probation != 16 {
		t.Fatalf("drift config not plumbed: %+v", d.cfg.driftCfg)
	}
	ts := httptest.NewServer(d.srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats?table=gen")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Drift struct {
			Enabled bool   `json:"enabled"`
			State   string `json:"state"`
		} `json:"drift"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Drift.Enabled || stats.Drift.State != "watching" {
		t.Errorf("drift stats = %+v, want enabled and watching", stats.Drift)
	}
}

// TestReplayReseedRecord plants a journaled re-seed promotion in the WAL and
// requires the daemon to restore the adopted histogram bit-identically: the
// recovered estimator must answer with the donor's numbers, not the ones a
// fresh data-seeded build would produce.
func TestReplayReseedRecord(t *testing.T) {
	dataDir := t.TempDir()
	args := []string{
		"-table", "gen=@cross:0.02",
		"-buckets", "30",
		"-seed", "7",
		"-data-dir", dataDir,
		"-fsync", "none",
	}

	// Donor: same table, different seed, plus feedback — a histogram the
	// data-seeded build cannot coincidentally equal.
	ds := datagen.Cross(0.02, 1)
	donor, err := sthist.Open(ds.Table, sthist.Options{Buckets: 30, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sthist.NewRect([]float64{400, 0}, []float64{600, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.Feedback(q, 123); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := donor.SaveHistogram(&blob); err != nil {
		t.Fatal(err)
	}

	// Plant the promotion record in the table's (otherwise empty) log.
	l, _, err := wal.Open(filepath.Join(dataDir, "gen"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{Kind: wal.KindReseed, Blob: blob.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	defer d.closeLogs()
	defer d.srv.DrainFeedback()
	ts := httptest.NewServer(d.srv.Handler())
	defer ts.Close()

	probes := [][4]float64{
		{450, 0, 550, 1000}, {0, 450, 1000, 550}, {100, 100, 900, 900},
	}
	for i, p := range probes {
		pq, err := sthist.NewRect([]float64{p[0], p[1]}, []float64{p[2], p[3]})
		if err != nil {
			t.Fatal(err)
		}
		want := donor.Estimate(pq)
		got := estimateOf(t, ts.URL, [2]float64{p[0], p[1]}, [2]float64{p[2], p[3]})
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("probe %d: recovered estimate %v != donor %v", i, got, want)
		}
	}
}

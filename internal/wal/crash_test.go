package wal_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sthist"
	"sthist/internal/datagen"
	"sthist/internal/httpapi"
	"sthist/internal/wal"
	"sthist/internal/workload"
)

// crashTable builds the deterministic data the crash-recovery scenario
// serves: two Gaussian-ish clusters plus uniform background noise.
func crashTable(t *testing.T) *sthist.Table {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1200; i++ {
		tab.MustAppend([]float64{150 + rng.Float64()*80, 600 + rng.Float64()*90})
	}
	for i := 0; i < 800; i++ {
		tab.MustAppend([]float64{700 + rng.Float64()*60, 100 + rng.Float64()*70})
	}
	for i := 0; i < 400; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	return tab
}

// crashOptions are the estimator options of crashTable's scenarios.
var crashOptions = sthist.Options{Buckets: 40, Seed: 3}

func openEstimator(t *testing.T, tab *sthist.Table, opts sthist.Options) *sthist.Estimator {
	t.Helper()
	est, err := sthist.Open(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// exactCounts returns tab's exact counts, the feedback a served table sees.
func exactCounts(t *testing.T, tab *sthist.Table) func(sthist.Rect) float64 {
	t.Helper()
	truth, err := sthist.ExactCounts(tab)
	if err != nil {
		t.Fatal(err)
	}
	return truth
}

// recoverDir reopens a crashed log directory and rebuilds its estimator the
// way sthistd does. Every tail record must replay.
func recoverDir(dir string, tab *sthist.Table, opts sthist.Options) (*sthist.Estimator, *wal.Recovery, httpapi.Recovered, error) {
	l, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, nil, httpapi.Recovered{}, fmt.Errorf("recovery open: %w", err)
	}
	if err := l.Close(); err != nil {
		return nil, nil, httpapi.Recovered{}, err
	}
	est, rv, err := httpapi.RecoverTable(tab, opts, rc)
	if err != nil {
		return nil, nil, rv, fmt.Errorf("recovering estimator: %w", err)
	}
	if rv.CheckpointErr != nil || rv.Rejected != 0 || rv.Replayed != len(rc.Records) {
		return nil, nil, rv, fmt.Errorf("recovery %+v over %d tail records", rv, len(rc.Records))
	}
	return est, rc, rv, nil
}

// probeQueries returns the evaluation workload used to compare estimators.
func probeQueries(rng *rand.Rand, n int) []sthist.Rect {
	out := make([]sthist.Rect, 0, n)
	for i := 0; i < n; i++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		w, h := 20+rng.Float64()*200, 20+rng.Float64()*200
		r, err := sthist.NewRect(
			[]float64{math.Max(0, cx-w/2), math.Max(0, cy-h/2)},
			[]float64{math.Min(1000, cx+w/2), math.Min(1000, cy+h/2)},
		)
		if err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

// crashFeedback is one observation of a crash scenario's feedback stream.
type crashFeedback struct {
	q      sthist.Rect
	actual float64
}

// crashScenario is one input of TestCrashRecoveryBitIdentical: the served
// table and its estimator options, its feedback stream, the probes that
// compare estimators, where the checkpoint falls and the extra random crash
// cuts.
type crashScenario struct {
	tab          *sthist.Table
	opts         sthist.Options
	workload     []crashFeedback
	probes       []sthist.Rect
	checkpointAt int
	randomCuts   int
}

// clustersScenario serves crashTable and checkpoints after 40 of 120
// observations.
func clustersScenario(t *testing.T) crashScenario {
	tab := crashTable(t)
	rng := rand.New(rand.NewSource(17))
	truth := exactCounts(t, tab)
	var fbs []crashFeedback
	for _, q := range probeQueries(rng, 120) {
		fbs = append(fbs, crashFeedback{q, truth(q)})
	}
	return crashScenario{tab: tab, opts: crashOptions, workload: fbs, probes: probeQueries(rng, 50), checkpointAt: 40, randomCuts: 10}
}

// crossScenario is the feedback stream of the end-to-end benchmark's ingest
// workload on a tenth of its table: data seed 1, feedback seed 2, probe seed
// 3, 100 buckets, MineClus seed 1. Before bucket sequence numbers were
// serialized, the histogram reloaded from the checkpoint at observation 400
// broke equal-penalty merge ties differently from the live one, and 278 of
// the 500 probes diverged within the next 100 observations.
func crossScenario(t *testing.T) crashScenario {
	ds := datagen.Cross(0.1, 1)
	opts := sthist.Options{Buckets: 100, Seed: 1}
	ref := openEstimator(t, ds.Table, opts)
	gen := func(n int, seed int64) []sthist.Rect {
		qs, err := workload.Generate(ref.Domain(), workload.Config{
			VolumeFraction: 0.01, Centers: workload.DataCenters, N: n, Seed: seed,
		}, ds.Table)
		if err != nil {
			t.Fatal(err)
		}
		return qs
	}
	truth := exactCounts(t, ds.Table)
	var fbs []crashFeedback
	for _, q := range gen(500, 2) {
		fbs = append(fbs, crashFeedback{q, truth(q)})
	}
	return crashScenario{tab: ds.Table, opts: opts, workload: fbs, probes: gen(500, 3), checkpointAt: 400}
}

// TestCrashRecoveryBitIdentical is the headline durability test: a serving
// estimator WAL-logs every feedback and checkpoints part-way through; the
// "crash" truncates the live segment at an arbitrary byte offset (including
// mid-record); recovery (httpapi.RecoverTable, sthistd's startup path)
// restores the checkpoint snapshot and replays the surviving tail. The
// recovered estimator must return bit-identical estimates to an
// uninterrupted estimator that applied exactly the surviving feedback
// prefix — proving that snapshot + replay loses nothing and alters nothing
// beyond the records the crash destroyed.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	t.Run("clusters", func(t *testing.T) { checkCrashRecovery(t, clustersScenario(t)) })
	t.Run("cross", func(t *testing.T) { checkCrashRecovery(t, crossScenario(t)) })
}

func checkCrashRecovery(t *testing.T, sc crashScenario) {
	rng := rand.New(rand.NewSource(19))

	// The durable run: log + apply every feedback, checkpoint mid-stream.
	dir := filepath.Join(t.TempDir(), "orders")
	l, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Snapshot != nil || len(rc.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rc)
	}
	served := openEstimator(t, sc.tab, sc.opts)
	for i, f := range sc.workload {
		if _, err := l.Append(wal.Record{Lo: f.q.Lo, Hi: f.q.Hi, Actual: f.actual}); err != nil {
			t.Fatal(err)
		}
		if err := served.Feedback(f.q, f.actual); err != nil {
			t.Fatal(err)
		}
		if i+1 == sc.checkpointAt {
			var buf bytes.Buffer
			if err := served.SaveHistogram(&buf); err != nil {
				t.Fatal(err)
			}
			if err := l.Checkpoint(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "wal-00000002.log")
	segData, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	snapData, err := os.ReadFile(filepath.Join(dir, "checkpoint-00000002.snap"))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	// Crash at arbitrary segment offsets, including 0 (right after the
	// checkpoint) and len (no tail loss), and mid-record in between.
	cuts := []int{0, 1, len(segData) / 3, len(segData) / 2, len(segData) - 1, len(segData)}
	for i := 0; i < sc.randomCuts; i++ {
		cuts = append(cuts, rng.Intn(len(segData)+1))
	}
	for _, cut := range cuts {
		crashDir := filepath.Join(t.TempDir(), "crashed")
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "MANIFEST"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "checkpoint-00000002.snap"), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "wal-00000002.log"), segData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		// Recover: snapshot + tail replay, the sthistd startup path.
		recovered, rc2, rv, err := recoverDir(crashDir, sc.tab, sc.opts)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if rc2.Snapshot == nil || !rv.Checkpoint {
			t.Fatalf("cut=%d: snapshot lost (recovery %+v)", cut, rv)
		}

		// The uninterrupted reference: a fresh estimator that applies
		// exactly the feedback prefix that survived the crash.
		survived := sc.checkpointAt + len(rc2.Records)
		if survived > len(sc.workload) {
			t.Fatalf("cut=%d: %d records survived a %d-feedback run", cut, survived, len(sc.workload))
		}
		uninterrupted := openEstimator(t, sc.tab, sc.opts)
		for _, f := range sc.workload[:survived] {
			if err := uninterrupted.Feedback(f.q, f.actual); err != nil {
				t.Fatal(err)
			}
		}

		for pi, p := range sc.probes {
			got := recovered.Estimate(p)
			want := uninterrupted.Estimate(p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cut=%d probe=%d: recovered %v (%x) != uninterrupted %v (%x), %d records survived",
					cut, pi, got, math.Float64bits(got), want, math.Float64bits(want), survived)
			}
		}
	}
}

// TestRecoveryWithoutCheckpoint covers the crash-before-first-checkpoint
// path: recovery rebuilds the cluster-seeded initial histogram (same data,
// same seed) and replays the whole surviving log.
func TestRecoveryWithoutCheckpoint(t *testing.T) {
	tab := crashTable(t)
	rng := rand.New(rand.NewSource(23))
	served := openEstimator(t, tab, crashOptions)
	truth := exactCounts(t, tab)

	dir := filepath.Join(t.TempDir(), "t")
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := probeQueries(rng, 30)
	for _, q := range queries {
		actual := truth(q)
		if _, err := l.Append(wal.Record{Lo: q.Lo, Hi: q.Hi, Actual: actual}); err != nil {
			t.Fatal(err)
		}
		if err := served.Feedback(q, actual); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	recovered, rc, rv, err := recoverDir(dir, tab, crashOptions)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Snapshot != nil || rv.Checkpoint || len(rc.Records) != 30 {
		t.Fatalf("recovery = snapshot %v, %d records (%+v)", rc.Snapshot != nil, len(rc.Records), rv)
	}
	for _, p := range probeQueries(rng, 40) {
		got, want := recovered.Estimate(p), served.Estimate(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("recovered %v != served %v", got, want)
		}
	}
}

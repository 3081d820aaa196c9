package httpapi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sthist"
	"sthist/internal/geom"
	"sthist/internal/wal"
)

// recoverLog reopens a closed log directory and rebuilds its table with
// RecoverTable, the sthistd startup path. Every tail record must replay.
func recoverLog(dir string, tab *sthist.Table, opts sthist.Options) (*sthist.Estimator, *wal.Recovery, Recovered, error) {
	l, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, nil, Recovered{}, fmt.Errorf("reopen: %w", err)
	}
	if err := l.Close(); err != nil {
		return nil, nil, Recovered{}, err
	}
	est, rv, err := RecoverTable(tab, opts, rc)
	if err != nil {
		return nil, nil, rv, fmt.Errorf("recover: %w", err)
	}
	if rv.CheckpointErr != nil || rv.Rejected != 0 || rv.Replayed != len(rc.Records) {
		return nil, nil, rv, fmt.Errorf("recovery %+v over %d tail records", rv, len(rc.Records))
	}
	return est, rc, rv, nil
}

// assertSameEstimates requires got to answer 200 random probes over
// [0,1000]^2 with exactly want's bits.
func assertSameEstimates(t *testing.T, got, want *sthist.Estimator) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		q := geom.MustRect([]float64{x, y}, []float64{x + 10 + rng.Float64()*90, y + 10 + rng.Float64()*90})
		if g, w := got.Estimate(q), want.Estimate(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("probe %d %v: recovered %v != live %v", i, q, g, w)
		}
	}
}

// TestRecoverTableRejections covers the paths a healthy log never takes: a
// checkpoint that fails validation falls back to the data-seeded histogram,
// and tail records the estimator refuses are counted while the rest replay.
func TestRecoverTableRejections(t *testing.T) {
	tab := uniformTable(t, 5)
	opts := sthist.Options{Buckets: 20, Seed: 4}
	donor, err := sthist.Open(tab, sthist.Options{Buckets: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := donor.SaveHistogram(&blob); err != nil {
		t.Fatal(err)
	}
	good := wal.Record{Lo: []float64{100, 100}, Hi: []float64{300, 400}, Actual: 80}
	rc := &wal.Recovery{
		Snapshot: []byte(`{"dims":3}`),
		Records: []wal.Record{
			good,
			{Lo: []float64{500, 500}, Hi: []float64{400, 600}, Actual: 7}, // lo > hi
			{Kind: wal.KindReseed, Blob: blob.Bytes()},
			{Kind: wal.KindReseed, Blob: []byte("not a histogram")},
			good,
		},
	}
	got, rv, err := RecoverTable(tab, opts, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Checkpoint || rv.CheckpointErr == nil {
		t.Fatalf("invalid checkpoint accepted: %+v", rv)
	}
	if rv.Replayed != 3 || rv.Reseeds != 1 || rv.Rejected != 2 {
		t.Fatalf("recovery = %+v, want 3 replayed (1 reseed) and 2 rejected", rv)
	}
	q := geom.MustRect(good.Lo, good.Hi)
	if err := donor.Feedback(q, good.Actual); err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, got, donor)
}

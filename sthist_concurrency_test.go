package sthist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/workload"
)

// TestConcurrentHammer exercises every public read path against concurrent
// mutation under the race detector: wait-free readers must never observe a
// torn histogram, only fully published snapshots. The internal-consistency
// probe is Histogram(): whatever snapshot a reader grabs must validate and
// must integrate to its own total tuple count over the domain.
func TestConcurrentHammer(t *testing.T) {
	ds := datagen.Cross(0.04, 1)
	est, err := Open(ds.Table, Options{Buckets: 80, Seed: 1, ValidateEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.MustGenerate(ds.Domain, workload.Config{
		VolumeFraction: 0.01, N: 128, Seed: 9,
	}, ds.Table)
	truth := exactCounts(t, ds.Table)
	actuals := make([]float64, len(qs))
	for i, q := range qs {
		actuals[i] = truth(q)
	}
	var saved bytes.Buffer
	if err := est.SaveHistogram(&saved); err != nil {
		t.Fatal(err)
	}
	payload := saved.Bytes()
	domain := est.Domain()

	const writers, writerRounds, readers = 2, 250, 4
	errCh := make(chan error, 64)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writerRounds; i++ {
				j := (i*writers + w) % len(qs)
				if i%16 == 7 {
					// Exercise the batch path too.
					obs := []Observation{
						{Query: qs[j], Actual: actuals[j]},
						{Query: qs[(j+1)%len(qs)], Actual: actuals[(j+1)%len(qs)]},
					}
					for k, ferr := range est.FeedbackBatch(obs) {
						if ferr != nil {
							report(fmt.Errorf("writer %d: batch obs %d: %w", w, k, ferr))
						}
					}
					continue
				}
				if ferr := est.Feedback(qs[j], actuals[j]); ferr != nil {
					report(fmt.Errorf("writer %d round %d: %w", w, i, ferr))
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if lerr := est.LoadHistogram(bytes.NewReader(payload)); lerr != nil {
				report(fmt.Errorf("load %d: %w", i, lerr))
			}
			if i%10 == 9 {
				est.Quarantine(errors.New("hammer-injected quarantine"))
			}
		}
	}()

	readerDone := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(i+r)%len(qs)]
				if v := est.Estimate(q); math.IsNaN(v) || v < 0 {
					report(fmt.Errorf("reader %d: estimate = %g", r, v))
				}
				if s := est.Selectivity(q); math.IsNaN(s) || s < 0 || s > 1 {
					report(fmt.Errorf("reader %d: selectivity = %g", r, s))
				}
				if h := est.Health(); h.State != "ok" && h.State != "degraded" {
					report(fmt.Errorf("reader %d: health state %q", r, h.State))
				}
				if st := est.StatsSnapshot(); st.Buckets < 0 || st.Buckets > st.MaxBuckets {
					report(fmt.Errorf("reader %d: stats %+v", r, st))
				}
				// The torn-read probe: any published snapshot is internally
				// consistent — it validates, and integrating it over the whole
				// domain reproduces its own total mass.
				h := est.Histogram()
				if verr := h.Validate(); verr != nil {
					report(fmt.Errorf("reader %d: snapshot invalid: %w", r, verr))
				}
				tot := h.TotalTuples()
				got := h.Estimate(domain)
				if math.Abs(got-tot) > 1e-6*math.Max(1, tot) {
					report(fmt.Errorf("reader %d: domain estimate %g != total %g", r, got, tot))
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	readerWG.Wait()
	close(readerDone)
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestEstimateReadPathZeroAllocs pins the tentpole's read-path property: a
// query served off the published snapshot performs zero heap allocations —
// no lock, no copy, no boxing.
func TestEstimateReadPathZeroAllocs(t *testing.T) {
	est, qs, truth := crossEstimator(t, 100, 64)
	for _, q := range qs { // grow the tree so the walk is non-trivial
		if err := est.Feedback(q, truth(q)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := qs[i%len(qs)]
		_ = est.Estimate(q)
		_ = est.Selectivity(q)
		_ = est.StatsSnapshot()
		_ = est.Health()
		i++
	})
	if allocs != 0 {
		t.Errorf("read path allocates %g times per round, want 0", allocs)
	}
}

// BenchmarkEstimateParallel measures concurrent read throughput off the
// published snapshot against the same reads funneled through a reader-writer
// lock — the synchronization the snapshot design replaced. bench-guard gates
// the ratio (see the bench-concurrency make target): on >= 8 cores the
// wait-free path must be at least 4x faster; small machines only check that
// it is no slower.
func BenchmarkEstimateParallel(b *testing.B) {
	est, qs, truth := crossEstimator(b, 250, 256)
	for _, q := range qs {
		if err := est.Feedback(q, truth(q)); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Int64
	b.Run("mode=locked", func(b *testing.B) {
		var mu sync.RWMutex
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seed.Add(1)) * 17
			for pb.Next() {
				mu.RLock()
				_ = est.Estimate(qs[i%len(qs)])
				mu.RUnlock()
				i++
			}
		})
	})
	b.Run("mode=snapshot", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := int(seed.Add(1)) * 17
			for pb.Next() {
				_ = est.Estimate(qs[i%len(qs)])
				i++
			}
		})
	})
}

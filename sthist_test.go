package sthist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sthist/internal/workload"
)

// clusteredTable builds a small 2d table with one dense cluster and noise.
func clusteredTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("x", "y")
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
	return tab
}

func TestOpenValidation(t *testing.T) {
	tab, _ := NewTable("x")
	if _, err := Open(tab, Options{}); err == nil {
		t.Error("empty table accepted")
	}
	// A domain of another dimensionality than the table's is rejected, with
	// or without clustering, by an error naming both.
	tab = clusteredTable(t)
	for _, lo := range [][]float64{{0}, {0, 0, 0}} {
		hi := make([]float64, len(lo))
		for d := range hi {
			hi[d] = 1000
		}
		domain, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, skip := range []bool{true, false} {
			_, err := Open(tab, Options{Domain: domain, SkipInitialization: skip})
			if err == nil {
				t.Errorf("%d-d domain over a 2-d table accepted (SkipInitialization %v)", len(lo), skip)
				continue
			}
			if want := fmt.Sprintf("domain has %d dimensions, table has 2", len(lo)); !strings.Contains(err.Error(), want) {
				t.Errorf("%d-d domain (SkipInitialization %v): error %q does not say %q", len(lo), skip, err, want)
			}
		}
	}
}

func TestOpenAndEstimate(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewRect([]float64{200, 600}, []float64{300, 700})
	if err != nil {
		t.Fatal(err)
	}
	got := est.Estimate(cluster)
	want := est.TrueCount(cluster)
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("initialized estimate %g far from truth %g", got, want)
	}
	if s := est.Selectivity(cluster); s < 0.5 || s > 1 {
		t.Errorf("cluster selectivity = %g, want most of the data", s)
	}
	if len(est.Clusters()) == 0 {
		t.Error("no clusters reported")
	}
	if est.Domain().Dims() != 2 {
		t.Error("wrong domain dims")
	}
}

func TestOpenSkipInitialization(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 50, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Clusters() != nil {
		t.Error("clusters present despite SkipInitialization")
	}
	if est.Histogram().BucketCount() != 0 {
		t.Error("uninitialized estimator has buckets")
	}
}

func TestFeedbackImprovesEstimates(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 50, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewRect([]float64{200, 600}, []float64{300, 700})
	before := math.Abs(est.Estimate(q) - est.TrueCount(q))
	est.Feedback(q, est.TrueCount(q))
	after := math.Abs(est.Estimate(q) - est.TrueCount(q))
	if after >= before {
		t.Errorf("feedback did not improve the estimate: %g -> %g", before, after)
	}
}

func TestTrainAndErrors(t *testing.T) {
	tab := clusteredTable(t)
	init, err := Open(tab, Options{Buckets: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	uninit, err := Open(tab, Options{Buckets: 50, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	train := workload.MustGenerate(init.Domain(), workload.Config{VolumeFraction: 0.01, N: 150, Seed: 3}, nil)
	eval := workload.MustGenerate(init.Domain(), workload.Config{VolumeFraction: 0.01, N: 150, Seed: 4}, nil)
	init.Train(train)
	uninit.Train(train)
	ni, err := init.NormalizedError(eval)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := uninit.NormalizedError(eval)
	if err != nil {
		t.Fatal(err)
	}
	if ni >= nu {
		t.Errorf("initialized NAE %g not better than uninitialized %g", ni, nu)
	}
	if _, err := init.MeanAbsoluteError(nil); err == nil {
		t.Error("empty eval workload accepted")
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	csv := "a,b\n1,2\n3,4\n"
	tab, err := LoadCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.Dims() != 2 {
		t.Errorf("loaded %dx%d", tab.Len(), tab.Dims())
	}
}

func TestDefaultClusterConfig(t *testing.T) {
	cfg := DefaultClusterConfig()
	if cfg.Alpha <= 0 || cfg.Beta <= 0 || cfg.Width <= 0 {
		t.Errorf("bad defaults: %+v", cfg)
	}
}

func TestOpenDegenerateDomain(t *testing.T) {
	// A constant column yields a degenerate bounding box; Open must inflate
	// it rather than fail.
	tab, _ := NewTable("x", "y")
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{5, float64(i)})
	}
	est, err := Open(tab, Options{Buckets: 10, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if est.Domain().Volume() <= 0 {
		t.Error("degenerate domain not inflated")
	}
}

// TestOpenLeavesIndexBounds: inflating a degenerate domain must not write
// into the exact-count index, whose bounds stay the data's.
func TestOpenLeavesIndexBounds(t *testing.T) {
	tab, _ := NewTable("x", "y")
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{7, float64(i)})
	}
	want, err := tab.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	for _, skip := range []bool{true, false} {
		est, err := Open(tab, Options{Buckets: 10, SkipInitialization: skip})
		if err != nil {
			t.Fatal(err)
		}
		if got := est.idx.Bounds(); !got.Equal(want) {
			t.Errorf("skip=%v: index bounds %v after Open, data bounds %v", skip, got, want)
		}
		if dom := est.Domain(); dom.Lo[0] != 7 || dom.Hi[0] != 8 {
			t.Errorf("skip=%v: domain %v, want x inflated to [7,8]", skip, dom)
		}
	}
}

func TestConcurrentEstimateAndFeedback(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				lo := []float64{rng.Float64() * 900, rng.Float64() * 900}
				hi := []float64{lo[0] + 50, lo[1] + 50}
				q, err := NewRect(lo, hi)
				if err != nil {
					t.Error(err)
					return
				}
				if seed%2 == 0 {
					if est.Estimate(q) < 0 {
						t.Error("negative estimate")
						return
					}
				} else {
					est.Feedback(q, est.TrueCount(q))
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := est.Histogram().Validate(); err != nil {
		t.Error(err)
	}
}

func TestFeedbackWithExactCounts(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 50, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewRect([]float64{200, 600}, []float64{300, 700})
	before := math.Abs(est.Estimate(q) - est.TrueCount(q))
	est.FeedbackWith(q, est.TrueCount)
	after := math.Abs(est.Estimate(q) - est.TrueCount(q))
	if after >= before || after > 1 {
		t.Errorf("exact feedback did not converge: %g -> %g", before, after)
	}
}

func TestSaveLoadHistogram(t *testing.T) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := NewRect([]float64{200, 600}, []float64{300, 700})
	want := est.Estimate(q)

	var buf bytes.Buffer
	if err := est.SaveHistogram(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(tab, Options{Buckets: 40, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadHistogram(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Estimate(q); math.Abs(got-want) > 1e-9 {
		t.Errorf("estimate after reload = %g, want %g", got, want)
	}
	// Dimension mismatch rejected.
	other, _ := NewTable("a")
	for i := 0; i < 10; i++ {
		other.MustAppend([]float64{float64(i)})
	}
	est1d, err := Open(other, Options{Buckets: 5, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := est.SaveHistogram(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := est1d.LoadHistogram(&buf2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Corrupt input rejected.
	if err := fresh.LoadHistogram(strings.NewReader("{")); err == nil {
		t.Error("corrupt histogram accepted")
	}
}

func TestGenerateWorkload(t *testing.T) {
	dom, _ := NewRect([]float64{0, 0}, []float64{100, 100})
	qs, err := GenerateWorkload(dom, 0.01, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if !dom.Contains(q) {
			t.Errorf("query %v escapes the domain", q)
		}
	}
	if _, err := GenerateWorkload(dom, 0, 5, 1); err == nil {
		t.Error("zero volume accepted")
	}
}

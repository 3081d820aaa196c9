package core

import (
	"math"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/geom"
	"sthist/internal/index"
	"sthist/internal/mineclus"
	"sthist/internal/sthole"
)

func TestClusterBoxModes(t *testing.T) {
	domain := geom.MustRect([]float64{0, 0, 0}, []float64{100, 100, 100})
	c := mineclus.Cluster{
		Dims: []int{1},
		Box:  geom.MustRect([]float64{10, 40, 20}, []float64{90, 60, 80}),
	}
	ebr := ClusterBox(&c, domain, ExtendedBR)
	want := geom.MustRect([]float64{0, 40, 0}, []float64{100, 60, 100})
	if !ebr.Equal(want) {
		t.Errorf("ExtendedBR = %v, want %v", ebr, want)
	}
	mbr := ClusterBox(&c, domain, PlainMBR)
	if !mbr.Equal(c.Box) {
		t.Errorf("PlainMBR = %v, want the cluster MBR %v", mbr, c.Box)
	}
}

func TestInitializeDimensionMismatch(t *testing.T) {
	domain := geom.MustRect([]float64{0, 0}, []float64{10, 10})
	h := sthole.MustNew(domain, 5, 0)
	bad := geom.MustRect([]float64{0, 0, 0}, []float64{1, 1, 1})
	if err := Initialize(h, nil, bad, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := Initialize(h, nil, domain, Options{Order: Order(99)}); err == nil {
		t.Error("unknown order accepted")
	}
}

func TestInitializeSeedsBuckets(t *testing.T) {
	ds := datagen.Cross(0.1, 21) // 2,200 tuples
	kt, err := index.BuildKDTree(ds.Table)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mineclus.Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 20, Seed: 1}
	clusters, err := mineclus.Run(ds.Table, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	h := sthole.MustNew(ds.Domain, 50, float64(ds.Table.Len()))
	if err := Initialize(h, clusters, ds.Domain, Options{}); err != nil {
		t.Fatal(err)
	}
	if h.BucketCount() == 0 {
		t.Fatal("initialization created no buckets")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// The initialized histogram should carry subspace buckets for the two
	// one-dimensional bars.
	if len(h.SubspaceBuckets()) == 0 {
		t.Error("no subspace buckets after initialization on Cross")
	}
	// And estimate the bars' population far better than the uninitialized
	// histogram.
	bar := ds.Clusters[0].Box
	truth := float64(kt.Count(bar))
	uninit := sthole.MustNew(ds.Domain, 50, float64(ds.Table.Len()))
	errInit := math.Abs(h.Estimate(bar) - truth)
	errUninit := math.Abs(uninit.Estimate(bar) - truth)
	if errInit > errUninit/2 {
		t.Errorf("initialized error %g not clearly better than uninitialized %g (truth %g)", errInit, errUninit, truth)
	}
}

func TestInitializeOrderMatters(t *testing.T) {
	// With a budget smaller than the cluster count, importance order keeps
	// the biggest clusters while reversed order evicts them.
	ds := datagen.Gauss(0.03, 22)
	mcfg := mineclus.Config{Alpha: 0.01, Beta: 0.25, Width: 80, MedoidSamples: 15, Seed: 2}
	clusters, err := mineclus.Run(ds.Table, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 4 {
		t.Skipf("only %d clusters found; need >= 4 for the ordering test", len(clusters))
	}
	budget := 3
	imp := sthole.MustNew(ds.Domain, budget, float64(ds.Table.Len()))
	if err := Initialize(imp, clusters, ds.Domain, Options{Order: ByImportance}); err != nil {
		t.Fatal(err)
	}
	rev := sthole.MustNew(ds.Domain, budget, float64(ds.Table.Len()))
	if err := Initialize(rev, clusters, ds.Domain, Options{Order: Reversed}); err != nil {
		t.Fatal(err)
	}
	// Estimate the most important cluster's box under both.
	top := ClusterBox(&clusters[0], ds.Domain, ExtendedBR)
	truth := float64(len(clusters[0].Rows))
	errImp := math.Abs(imp.Estimate(top) - truth)
	errRev := math.Abs(rev.Estimate(top) - truth)
	// Importance order must not be materially worse than reversed on the
	// most important cluster (tiny differences come from overlapping
	// extended BRs shrinking against each other).
	if errImp > errRev*1.05+1 {
		t.Errorf("importance order error %g clearly worse than reversed %g on the top cluster", errImp, errRev)
	}
	if err := imp.Validate(); err != nil {
		t.Error(err)
	}
	if err := rev.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInitializeShuffledDeterministic(t *testing.T) {
	ds := datagen.Cross(0.05, 23)
	mcfg := mineclus.Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 10, Seed: 3}
	clusters, err := mineclus.Run(ds.Table, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *sthole.Histogram {
		h := sthole.MustNew(ds.Domain, 20, float64(ds.Table.Len()))
		if err := Initialize(h, clusters, ds.Domain, Options{Order: Shuffled, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := build(), build()
	probe := geom.MustRect([]float64{100, 100}, []float64{800, 800})
	if a.Estimate(probe) != b.Estimate(probe) {
		t.Error("shuffled initialization not deterministic for a fixed seed")
	}
}

func TestInitializeWithExactCounts(t *testing.T) {
	ds := datagen.Cross(0.1, 24)
	kt, err := index.BuildKDTree(ds.Table)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mineclus.Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 20, Seed: 4}
	clusters, err := mineclus.Run(ds.Table, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sthole.MustNew(ds.Domain, 50, float64(ds.Table.Len()))
	exact := func(r geom.Rect) float64 { return float64(kt.Count(r)) }
	if err := Initialize(h, clusters, ds.Domain, Options{Count: exact}); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exact-count initialization should estimate the whole domain correctly.
	if got := h.Estimate(ds.Domain); math.Abs(got-float64(ds.Table.Len())) > 1 {
		t.Errorf("domain estimate = %g, want %d", got, ds.Table.Len())
	}
}

func TestExtendedBRPreservesSubspaceBuckets(t *testing.T) {
	// Fig. 6's point: MBRs turn subspace clusters into (nearly)
	// full-dimensional boxes; extended BRs keep them full-span on unused
	// dimensions.
	ds := datagen.CrossN(3, 0.2, 25)
	mcfg := mineclus.Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 20, Seed: 5}
	clusters, err := mineclus.Run(ds.Table, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ebr := sthole.MustNew(ds.Domain, 30, float64(ds.Table.Len()))
	if err := Initialize(ebr, clusters, ds.Domain, Options{Box: ExtendedBR}); err != nil {
		t.Fatal(err)
	}
	if len(ebr.SubspaceBuckets()) == 0 {
		t.Error("extended-BR initialization produced no subspace buckets")
	}
}

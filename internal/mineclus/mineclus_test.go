package mineclus

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/dataset"
)

func TestConfigValidation(t *testing.T) {
	tab := dataset.MustNew("x")
	tab.MustAppend([]float64{1})
	bad := []Config{
		{Alpha: 0, Beta: 0.3, Width: 10},
		{Alpha: 1.5, Beta: 0.3, Width: 10},
		{Alpha: 0.1, Beta: 0, Width: 10},
		{Alpha: 0.1, Beta: 1, Width: 10},
		{Alpha: 0.1, Beta: 0.3, Width: 0},
		{Alpha: 0.1, Beta: 0.3, Width: 10, MedoidSamples: -1},
		{Alpha: math.NaN(), Beta: 0.3, Width: 10},
		{Alpha: 0.1, Beta: math.NaN(), Width: 10},
		{Alpha: 0.1, Beta: 0.3, Width: math.NaN()},
		{Alpha: 0.1, Beta: 0.3, Width: math.NaN(), Widths: []float64{10}},
		{Alpha: 0.1, Beta: 0.3, Widths: []float64{math.NaN()}},
	}
	for i, cfg := range bad {
		if _, err := Run(tab, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Run(dataset.MustNew("x"), DefaultConfig()); err == nil {
		t.Error("empty table accepted")
	}
	// Infinite widths stay legal: every point is close on such a dimension.
	for _, cfg := range []Config{
		{Alpha: 0.1, Beta: 0.3, Width: math.Inf(1)},
		{Alpha: 0.1, Beta: 0.3, Widths: []float64{math.Inf(1)}},
	} {
		if _, err := Run(tab, cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestRunFindsFullDimensionalClusters(t *testing.T) {
	// Two well-separated dense 2d blobs plus noise.
	ds := dataset.MustNew("x", "y")
	rngAppend := func(cx, cy float64, n int, spread float64, seed *uint64) {
		for i := 0; i < n; i++ {
			*seed = *seed*6364136223846793005 + 1442695040888963407
			fx := float64(*seed%1000) / 1000
			*seed = *seed*6364136223846793005 + 1442695040888963407
			fy := float64(*seed%1000) / 1000
			ds.MustAppend([]float64{cx + (fx-0.5)*spread, cy + (fy-0.5)*spread})
		}
	}
	var seed uint64 = 1
	rngAppend(200, 200, 400, 80, &seed)
	rngAppend(700, 700, 400, 80, &seed)
	rngAppend(500, 500, 100, 1000, &seed) // noise

	cfg := Config{Alpha: 0.05, Beta: 0.25, Width: 60, MedoidSamples: 30, Seed: 1}
	clusters, err := Run(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) < 2 {
		t.Fatalf("found %d clusters, want >= 2", len(clusters))
	}
	// The two largest clusters should sit near the two blobs and be
	// 2-dimensional.
	centers := [][2]float64{{200, 200}, {700, 700}}
	matched := 0
	for _, want := range centers {
		for _, c := range clusters[:2] {
			cx := (c.Box.Lo[0] + c.Box.Hi[0]) / 2
			cy := (c.Box.Lo[1] + c.Box.Hi[1]) / 2
			if math.Abs(cx-want[0]) < 80 && math.Abs(cy-want[1]) < 80 {
				matched++
				break
			}
		}
	}
	if matched != 2 {
		t.Errorf("top clusters do not match the blobs: %+v", clusters[:2])
	}
	// Importance order: scores non-increasing.
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Score > clusters[i-1].Score {
			t.Errorf("scores not sorted: %g before %g", clusters[i-1].Score, clusters[i].Score)
		}
	}
}

func TestRunFindsSubspaceCluster(t *testing.T) {
	// A 1-dimensional bar in 3d space: constrained on dim 1, spanning dims
	// 0 and 2 fully — MineClus must report Dims = [1].
	ds := datagen.CrossN(3, 0.5, 3) // 3 bars, each constrained on one dim
	cfg := Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 30, Seed: 2}
	clusters, err := Run(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters found on Cross3d")
	}
	// Among the top-3 clusters, expect single-dimension subspace clusters.
	subspace := 0
	for _, c := range clusters {
		if len(c.Dims) == 1 {
			subspace++
			// The cluster must span nearly the full domain on unused dims.
			for _, d := range c.UnusedDims(3) {
				if span := c.Box.Side(d); span < 0.9*datagen.DomainSide {
					t.Errorf("subspace cluster spans only %g on unused dim %d", span, d)
				}
			}
			// And be narrow on its used dim.
			if side := c.Box.Side(c.Dims[0]); side > 2.5*cfg.Width {
				t.Errorf("cluster side %g on used dim exceeds medoid box", side)
			}
		}
	}
	if subspace == 0 {
		t.Error("no subspace (1-dim) clusters found on Cross3d")
	}
}

func TestRunClusterInvariants(t *testing.T) {
	ds := datagen.Gauss(0.02, 5) // 2,200 tuples
	base := Config{Alpha: 0.02, Beta: 0.25, Width: 80, MedoidSamples: 15, Seed: 3}
	cases := []Config{base}
	// Subsampled rounds mine with the support threshold scaled down to the
	// subsample, but every cluster must still hold alpha*n rows of the table.
	for seed := int64(1); seed <= 6; seed++ {
		cfg := base
		cfg.MaxTransactions, cfg.Seed = 400, seed
		cases = append(cases, cfg)
	}
	minSup := int(math.Ceil(base.Alpha * float64(ds.Table.Len())))
	sampled := 0 // clusters the subsampled runs returned
	for _, cfg := range cases {
		t.Run(fmt.Sprintf("tx=%d/seed=%d", cfg.MaxTransactions, cfg.Seed), func(t *testing.T) {
			clusters, err := Run(ds.Table, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(clusters) == 0 && cfg.MaxTransactions == 0 {
				t.Fatal("no clusters found on Gauss")
			}
			if cfg.MaxTransactions > 0 {
				sampled += len(clusters)
			}
			seen := map[int]bool{}
			for ci, c := range clusters {
				if len(c.Rows) < minSup {
					t.Errorf("cluster %d has %d rows < alpha*n = %d", ci, len(c.Rows), minSup)
				}
				if len(c.Dims) < 1 {
					t.Errorf("cluster %d has no relevant dimensions", ci)
				}
				for _, r := range c.Rows {
					if seen[r] {
						t.Fatalf("row %d assigned to two clusters", r)
					}
					seen[r] = true
					// Every member is inside the cluster box.
					p := ds.Table.Point(r)
					if !c.Box.ContainsPoint(p) {
						t.Fatalf("cluster %d: member %d outside box", ci, r)
					}
					// And within Width of the medoid on relevant dims.
					for _, d := range c.Dims {
						if math.Abs(p[d]-c.Medoid[d]) > cfg.Width+1e-9 {
							t.Fatalf("cluster %d: member %d further than width on dim %d", ci, r, d)
						}
					}
				}
			}
		})
	}
	if sampled == 0 {
		t.Error("the subsampled runs found no clusters; the sweep checks nothing")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	ds := datagen.Cross(0.1, 7)
	cfg := Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 10, Seed: 42}
	a, err := Run(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different cluster counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Rows) != len(b[i].Rows) {
			t.Errorf("cluster %d differs across identical runs", i)
		}
	}
}

func TestRunMaxClusters(t *testing.T) {
	ds := datagen.Gauss(0.02, 9)
	cfg := Config{Alpha: 0.02, Beta: 0.25, Width: 80, MedoidSamples: 10, MaxClusters: 3, Seed: 4}
	clusters, err := Run(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) > 3 {
		t.Errorf("MaxClusters=3 but got %d clusters", len(clusters))
	}
}

func TestRunAlphaControlsClusterCount(t *testing.T) {
	// Table 2 shape: larger alpha -> fewer (only denser) clusters.
	ds := datagen.Gauss(0.05, 11)
	low, err := Run(ds.Table, Config{Alpha: 0.01, Beta: 0.25, Width: 80, MedoidSamples: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(ds.Table, Config{Alpha: 0.2, Beta: 0.25, Width: 80, MedoidSamples: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(high) > len(low) {
		t.Errorf("alpha=0.2 found %d clusters, alpha=0.01 found %d; expected fewer at higher alpha", len(high), len(low))
	}
}

func TestRunSubsampledTransactions(t *testing.T) {
	ds := datagen.Cross(0.2, 13)
	cfg := Config{Alpha: 0.05, Beta: 0.25, Width: 30, MedoidSamples: 10, MaxTransactions: 500, Seed: 6}
	clusters, err := Run(ds.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Error("subsampled run found no clusters")
	}
}

// TestPermIntoMatchesPerm pins that the reused permutation equals
// rand.Perm's and leaves the generator where Perm leaves it, so subsampled
// rounds draw the same transactions and medoids as with Perm.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 2000)
	for _, seed := range []int64{1, 2, 7, 501} {
		want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for n := 0; n <= 2000; n++ {
			m := buf[:n]
			permInto(got, m)
			if p := want.Perm(n); !slices.Equal(m, p) {
				t.Fatalf("seed %d n=%d: permInto differs from Perm", seed, n)
			}
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("seed %d n=%d: next Int63 %d after permInto, %d after Perm", seed, n, b, a)
			}
		}
	}
}

// TestRunIndependentOfWorkers requires the same clusters, to the bit, from
// one worker (every phase inline), two, and three (which do not divide sky's
// seven columns): the gather, the trials and the membership scan split
// differently across workers, but the draws and the winner do not.
func TestRunIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		tab  *dataset.Table
	}{
		{"sky", datagen.SkySim(0.02, 1).Table},
		{"cross", datagen.Cross(1, 1).Table},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.Width, cfg.Widths = 0, openWidths(t, c.tab)
		var want []Cluster
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			got, err := Run(c.tab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				if want = got; len(want) == 0 {
					t.Fatalf("%s: no clusters; the case checks nothing", c.name)
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d clusters at GOMAXPROCS %d, %d at 1", c.name, len(got), procs, len(want))
			}
			for i := range want {
				if msg := clusterDiff(&got[i], &want[i]); msg != "" {
					t.Errorf("%s: cluster %d at GOMAXPROCS %d against 1: %s", c.name, i, procs, msg)
				}
			}
		}
	}
}

// TestRunAllocations bounds what one Run on the end-to-end benchmark's sky
// table allocates, with sthist.Open's widths: the extraction rounds reuse
// their buffers instead of allocating a permutation, a subsample and a
// member list each. Each trial worker owns about 100 kB of buffers, so the
// run is pinned to the two workers of the 2-CPU host it was measured on.
func TestRunAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tab := datagen.SkySim(0.02, 1).Table
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Width, cfg.Widths = 0, openWidths(t, tab)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(tab, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("Run allocated %.2f MB, want at most 4 MB", float64(got)/(1<<20))
	}
}

// BenchmarkRun times one MineClus run per table shape, with sthist.Open's
// default per-dimension widths (6% of each extent). MineClus's cost depends
// on the shape:
//   - sky: the table sthist.Open initializes from in the end-to-end
//     benchmark, SkySim(0.02), 34,942 rows by 7 dimensions;
//   - sky0.1: SkySim(0.1), 174,709 rows, far more than MaxTransactions, so
//     every round mines a subsample;
//   - particle: ParticleSim(0.01), 50,000 rows by 18 dimensions;
//   - cross5d: CrossN(5, 0.05), 675,000 rows;
//   - cross: Cross(1), 22,000 rows by 2 dimensions, the table of the
//     end-to-end benchmark's ingest workload, where MineClus runs beside a
//     longer k-d tree build.
//
// The cover pass runs on the AVX-512F kernel where the CPU has it and in Go
// elsewhere, so the numbers of the two hosts do not compare.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		name string
		tab  func() *dataset.Table
	}{
		{"sky", func() *dataset.Table { return datagen.SkySim(0.02, 1).Table }},
		{"sky0.1", func() *dataset.Table { return datagen.SkySim(0.1, 1).Table }},
		{"particle", func() *dataset.Table { return datagen.ParticleSim(0.01, 1).Table }},
		{"cross5d", func() *dataset.Table { return datagen.CrossN(5, 0.05, 1).Table }},
		{"cross", func() *dataset.Table { return datagen.Cross(1, 1).Table }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tab := c.tab()
			cfg := DefaultConfig()
			cfg.Seed = 1
			cfg.Width, cfg.Widths = 0, openWidths(b, tab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(tab, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package mineclus

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// referenceRun is MineClus with the per-row transaction builder: every medoid
// trial turns each subsampled point into its own itemset and the FP-tree takes
// them one at a time with count 1. It draws from the RNG in the same order as
// Run and runs the trials sequentially (Run breaks ties by trial index, so its
// parallel trials give the same winner). It is the specification Run's
// cover bitsets and depth-first search must match bit for bit.
func referenceRun(tab *dataset.Table, cfg Config) ([]Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := tab.Len()
	minSup := int(math.Ceil(cfg.Alpha * float64(n)))
	if minSup < 2 {
		minSup = 2
	}
	gain := 1 / cfg.Beta
	rng := rand.New(rand.NewSource(cfg.Seed))
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var clusters []Cluster
	for len(remaining) >= minSup {
		if cfg.MaxClusters > 0 && len(clusters) >= cfg.MaxClusters {
			break
		}
		best, ok := referenceBestClusterAround(tab, remaining, cfg, minSup, gain, rng)
		if !ok {
			break
		}
		clusters = append(clusters, best)
		inCluster := make(map[int]bool, len(best.Rows))
		for _, r := range best.Rows {
			inCluster[r] = true
		}
		kept := remaining[:0]
		for _, r := range remaining {
			if !inCluster[r] {
				kept = append(kept, r)
			}
		}
		remaining = kept
	}
	sort.SliceStable(clusters, func(i, j int) bool { return clusters[i].Score > clusters[j].Score })
	return clusters, nil
}

func referenceBestClusterAround(tab *dataset.Table, remaining []int, cfg Config, minSup int, gain float64, rng *rand.Rand) (Cluster, bool) {
	dims := tab.Dims()
	txRows := remaining
	txMinSup := minSup
	if cfg.MaxTransactions > 0 && len(remaining) > cfg.MaxTransactions {
		perm := rng.Perm(len(remaining))[:cfg.MaxTransactions]
		txRows = make([]int, cfg.MaxTransactions)
		for i, j := range perm {
			txRows[i] = remaining[j]
		}
		txMinSup = int(math.Ceil(float64(minSup) * float64(cfg.MaxTransactions) / float64(len(remaining))))
		if txMinSup < 2 {
			txMinSup = 2
		}
	}
	medoidRows := make([]int, cfg.MedoidSamples)
	for t := range medoidRows {
		medoidRows[t] = remaining[rng.Intn(len(remaining))]
	}
	var (
		bestScore  = math.Inf(-1)
		bestDims   []int
		bestMedoid geom.Point
		found      bool
	)
	row := make([]float64, dims)
	for _, mr := range medoidRows {
		medoid := tab.Point(mr)
		transactions := make([]weightedTx, len(txRows))
		for i, r := range txRows {
			tab.Row(r, row)
			var tx []int
			for d := 0; d < dims; d++ {
				if math.Abs(row[d]-medoid[d]) <= cfg.widthFor(d) {
					tx = append(tx, d)
				}
			}
			transactions[i] = weightedTx{items: tx, count: 1}
		}
		items, _, score, ok := fpBestItemset(transactions, txMinSup, gain)
		if !ok || len(items) < cfg.MinDims {
			continue
		}
		if score > bestScore {
			bestScore, bestDims, bestMedoid, found = score, items, medoid, true
		}
	}
	if !found {
		return Cluster{}, false
	}
	var rows []int
	for _, r := range remaining {
		tab.Row(r, row)
		member := true
		for _, d := range bestDims {
			if math.Abs(row[d]-bestMedoid[d]) > cfg.widthFor(d) {
				member = false
				break
			}
		}
		if member {
			rows = append(rows, r)
		}
	}
	if len(rows) < minSup {
		return Cluster{}, false
	}
	lo := tab.Point(rows[0])
	hi := lo.Clone()
	for _, r := range rows[1:] {
		tab.Row(r, row)
		for d := 0; d < dims; d++ {
			if row[d] < lo[d] {
				lo[d] = row[d]
			}
			if row[d] > hi[d] {
				hi[d] = row[d]
			}
		}
	}
	return Cluster{
		Dims:   bestDims,
		Rows:   rows,
		Box:    geom.Rect{Lo: lo, Hi: hi},
		Medoid: bestMedoid,
		Score:  float64(len(rows)) * pow(gain, len(bestDims)),
	}, true
}

// openWidths returns the per-dimension widths sthist.Open defaults to: 6% of
// each attribute's extent.
func openWidths(t testing.TB, tab *dataset.Table) []float64 {
	t.Helper()
	b, err := tab.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, tab.Dims())
	for d := range w {
		w[d] = 0.06 * b.Side(d)
	}
	return w
}

// wideTable is a table with more than 64 dimensions: three projected
// clusters, constrained on dimension sets that straddle dimension 64, plus
// uniform noise.
func wideTable(dims, perCluster, noise int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.MustNew(dataset.GenericNames(dims)...)
	row := make([]float64, dims)
	for _, used := range [][]int{{2, 40, 65, dims - 1}, {10, 63, 64, 66}, {0, 7, 14, 21, 28, 35, 42, 49, 56, 63, dims - 2}} {
		center := make([]float64, dims)
		for d := range center {
			center[d] = 100 + rng.Float64()*800
		}
		for i := 0; i < perCluster; i++ {
			for d := range row {
				row[d] = rng.Float64() * datagen.DomainSide
			}
			for _, d := range used {
				row[d] = center[d] + (rng.Float64()-0.5)*40
			}
			tab.MustAppend(row)
		}
	}
	for i := 0; i < noise; i++ {
		for d := range row {
			row[d] = rng.Float64() * datagen.DomainSide
		}
		tab.MustAppend(row)
	}
	return tab
}

// TestRunMatchesReference requires Run's bitset miner to give exactly the
// clusters of per-row transactions mined by FP-growth: same dimensions, rows
// and medoid, and the same bits in every box coordinate and score.
func TestRunMatchesReference(t *testing.T) {
	type tc struct {
		name string
		tab  *dataset.Table
		cfg  Config
	}
	var cases []tc
	for _, seed := range []int64{1, 2} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		sky := datagen.SkySim(0.02, seed).Table
		skyCfg := cfg
		skyCfg.Width, skyCfg.Widths = 0, openWidths(t, sky)
		withWidth := func(w float64) Config { c := cfg; c.Width = w; return c }
		particleCfg := withWidth(70)
		particleCfg.MaxTransactions = 5000
		wideCfg := withWidth(30)
		wideCfg.Alpha, wideCfg.MaxTransactions = 0.05, 2000
		cases = append(cases,
			tc{"sky", sky, skyCfg},
			tc{"cross", datagen.Cross(0.5, seed).Table, withWidth(30)},
			tc{"gauss", datagen.Gauss(0.05, seed).Table, withWidth(60)},
			tc{"particle", datagen.ParticleSim(0.002, seed).Table, particleCfg},
			tc{"cross4d", datagen.CrossN(4, 0.05, seed).Table, withWidth(30)},
			tc{"wide70", wideTable(70, 600, 400, seed), wideCfg},
		)
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d", c.name, c.cfg.Seed), func(t *testing.T) {
			want, err := referenceRun(c.tab, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(c.tab, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("reference found no clusters; the case exercises nothing")
			}
			t.Logf("%d rows, %d clusters", c.tab.Len(), len(want))
			if len(got) != len(want) {
				t.Fatalf("%d clusters, reference %d", len(got), len(want))
			}
			for i := range want {
				if msg := clusterDiff(&got[i], &want[i]); msg != "" {
					t.Fatalf("cluster %d: %s", i, msg)
				}
			}
		})
	}
}

// clusterDiff describes the first difference between two clusters, comparing
// floats by their bits; "" when they are identical.
func clusterDiff(a, b *Cluster) string {
	sameBits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case !slices.Equal(a.Dims, b.Dims):
		return fmt.Sprintf("dims %v, reference %v", a.Dims, b.Dims)
	case !slices.Equal(a.Rows, b.Rows):
		return fmt.Sprintf("%d rows, reference %d", len(a.Rows), len(b.Rows))
	case !sameBits(a.Medoid, b.Medoid):
		return fmt.Sprintf("medoid %v, reference %v", a.Medoid, b.Medoid)
	case !sameBits(a.Box.Lo, b.Box.Lo) || !sameBits(a.Box.Hi, b.Box.Hi):
		return fmt.Sprintf("box %v, reference %v", a.Box, b.Box)
	case math.Float64bits(a.Score) != math.Float64bits(b.Score):
		return fmt.Sprintf("score %v, reference %v", a.Score, b.Score)
	}
	return ""
}

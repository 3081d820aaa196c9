package mineclus

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// Config holds the MineClus parameters the paper tunes in Table 2.
type Config struct {
	// Alpha is the minimal cluster size as a fraction of the full dataset
	// (the "minimal density threshold"). Typical values 0.01 .. 0.1.
	Alpha float64
	// Beta trades cluster size against dimensionality in the quality
	// function mu(s,d) = s * (1/Beta)^d. Must be in (0, 1).
	Beta float64
	// Width is the half-width w: point q supports dimension d for medoid p
	// when |q_d - p_d| <= Width.
	Width float64
	// Widths optionally overrides Width per dimension, for relations whose
	// attributes have heterogeneous scales (the paper's datasets are
	// uniformly scaled, so it uses a single w). When set, its length must
	// equal the table's dimensionality.
	Widths []float64
	// MedoidSamples is the number of random medoids tried per extracted
	// cluster (default 20).
	MedoidSamples int
	// MaxTransactions caps how many of the remaining points are turned into
	// transactions per medoid trial (uniform subsample; 0 = all). The paper
	// notes (§5.2) that approximate cluster boundaries suffice for
	// initialization, so subsampling is a legitimate speedup.
	MaxTransactions int
	// MaxClusters stops extraction after this many clusters (0 = run until
	// no cluster reaches the Alpha threshold).
	MaxClusters int
	// MinDims discards mined dimension sets smaller than this (default 1).
	MinDims int
	// Seed drives medoid sampling; runs are deterministic given a seed.
	Seed int64
}

// DefaultConfig returns the parameter set used by most experiments in the
// reproduction: alpha 0.01, beta 0.25, width 60 (our synthetic datasets have
// cluster extents of 60-240 on a 0..1000 domain; see EXPERIMENTS.md for the
// mapping to the paper's width=10 on raw SDSS units).
func DefaultConfig() Config {
	return Config{Alpha: 0.01, Beta: 0.25, Width: 60, MedoidSamples: 20, MaxTransactions: 20000}
}

func (c *Config) validate() error {
	// Each range test is written so that NaN fails it.
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("mineclus: alpha must be in (0,1], got %g", c.Alpha)
	}
	if !(c.Beta > 0 && c.Beta < 1) {
		return fmt.Errorf("mineclus: beta must be in (0,1), got %g", c.Beta)
	}
	if math.IsNaN(c.Width) || (c.Width <= 0 && len(c.Widths) == 0) {
		return fmt.Errorf("mineclus: width must be positive, got %g", c.Width)
	}
	for d, w := range c.Widths {
		if !(w > 0) {
			return fmt.Errorf("mineclus: widths[%d] must be positive, got %g", d, w)
		}
	}
	if c.MedoidSamples == 0 {
		c.MedoidSamples = 20
	}
	if c.MedoidSamples < 0 {
		return fmt.Errorf("mineclus: negative medoid samples")
	}
	if c.MinDims <= 0 {
		c.MinDims = 1
	}
	return nil
}

// Cluster is one projected cluster found by MineClus.
type Cluster struct {
	// Dims are the relevant (constrained) dimensions, ascending.
	Dims []int
	// Rows are the member row indices into the clustered table, ascending.
	Rows []int
	// Size is the number of members, len(Rows) as Run returns it; it stays
	// when a caller drops Rows.
	Size int
	// Box bounds the members tightly on Dims and spans the members' extent
	// on the other dimensions too (it is the plain MBR of the members; use
	// core.ExtendedBR for the subspace-aware bucket box).
	Box geom.Rect
	// Medoid is the medoid the cluster was grown from.
	Medoid geom.Point
	// Score is the mu quality; clusters are returned in descending Score
	// order, which the paper uses as the initialization importance order.
	Score float64
}

// UnusedDims returns the dimensions (0-based) the cluster does not use,
// given the dimensionality of the data space.
func (c *Cluster) UnusedDims(dims int) []int {
	used := make([]bool, dims)
	for _, d := range c.Dims {
		used[d] = true
	}
	var out []int
	for d := 0; d < dims; d++ {
		if !used[d] {
			out = append(out, d)
		}
	}
	return out
}

// widthFor returns the half-width for dimension d.
func (c *Config) widthFor(d int) float64 {
	if len(c.Widths) > 0 {
		return c.Widths[d]
	}
	return c.Width
}

// Run executes MineClus over the table and returns the clusters in
// descending importance (mu score) order.
//
// The algorithm iterates: sample medoids from the not-yet-clustered points;
// for each medoid, mine the dimension set maximizing mu over the points'
// dimension itemsets (see miner); keep the best cluster across medoids;
// remove its points and repeat until no cluster reaches alpha * n points.
func Run(tab *dataset.Table, cfg Config) ([]Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := tab.Len()
	if n == 0 {
		return nil, fmt.Errorf("mineclus: empty table")
	}
	if len(cfg.Widths) > 0 && len(cfg.Widths) != tab.Dims() {
		return nil, fmt.Errorf("mineclus: %d per-dimension widths for a %d-dimensional table", len(cfg.Widths), tab.Dims())
	}
	minSup := int(math.Ceil(cfg.Alpha * float64(n)))
	if minSup < 2 {
		minSup = 2
	}
	gain := 1 / cfg.Beta
	rng := rand.New(rand.NewSource(cfg.Seed))

	cols := make([][]float64, tab.Dims())
	for d := range cols {
		cols[d] = tab.Column(d)
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	removed := make([]bool, n)
	points := n
	if cfg.MaxTransactions > 0 && cfg.MaxTransactions < n {
		points = cfg.MaxTransactions
	}
	// Workers beyond GOMAXPROCS could not run at once and would only add
	// buffers.
	buf := newBuffers(len(cols), n, points, min(runtime.GOMAXPROCS(0), cfg.MedoidSamples))
	var clusters []Cluster
	for len(remaining) >= minSup {
		if cfg.MaxClusters > 0 && len(clusters) >= cfg.MaxClusters {
			break
		}
		best, ok := bestClusterAround(cols, remaining, cfg, minSup, gain, rng, buf)
		if !ok {
			break
		}
		clusters = append(clusters, best)
		// Remove the cluster's rows from the remaining set.
		for _, r := range best.Rows {
			removed[r] = true
		}
		kept := remaining[:0]
		for _, r := range remaining {
			if !removed[r] {
				kept = append(kept, r)
			}
		}
		remaining = kept
	}
	sort.SliceStable(clusters, func(i, j int) bool { return clusters[i].Score > clusters[j].Score })
	return clusters, nil
}

// buffers are the allocations every extraction round of one Run reuses, so
// a Run's garbage does not grow with its number of rounds.
type buffers struct {
	// rows holds a subsampled round's permutation of remaining until the
	// transactions are drawn, then the winning cluster's members until they
	// are copied out.
	rows []int
	// marks is a bitset over the positions of remaining: bit i of word i/64
	// for remaining[i]. It marks a subsampled round's transactions, then the
	// winning cluster's members.
	marks  []uint64
	txRows []int      // the subsampled round's transaction rows, ascending
	txKeys [][]uint64 // the round's transaction subsample as keyOf keys, column by column
	miners []miner    // one per trial worker
}

// newBuffers sizes the buffers for a Run over n rows of dims columns whose
// rounds mine at most points transactions.
func newBuffers(dims, n, points, workers int) *buffers {
	b := &buffers{
		rows:   make([]int, n),
		marks:  make([]uint64, (n+63)/64),
		txKeys: make([][]uint64, dims),
		miners: make([]miner, workers),
	}
	if points < n {
		b.txRows = make([]int, 0, points)
	}
	for d := range b.txKeys {
		b.txKeys[d] = make([]uint64, 0, points)
	}
	return b
}

// permInto fills m with rng.Perm(len(m)), making exactly Perm's draws, so the
// generator is left where Perm would leave it.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// forEach calls f(w, i) for every task i in [0, tasks), spread over workers
// goroutines: the caller's and workers-1 more, w being the goroutine's index.
// A goroutine takes the next task as soon as it finishes one, so with one
// worker the tasks run inline, in order.
func forEach(workers, tasks int, f func(w, i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < tasks; i = int(next.Add(1) - 1) {
			f(w, i)
		}
	}
	for w := 1; w < min(workers, tasks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// memberBlock is how many 64-row words of remaining one membership task
// tests.
const memberBlock = 32

// appendMarked appends remaining[i] to dst for every bit i set in marks, in
// ascending i.
func appendMarked(dst []int, marks []uint64, remaining []int) []int {
	for k, m := range marks {
		for ; m != 0; m &= m - 1 {
			dst = append(dst, remaining[64*k+bits.TrailingZeros64(m)])
		}
	}
	return dst
}

// bestClusterAround samples medoids from remaining and returns the best
// cluster found, materialized with its member rows and bounding box. cols
// are the table's columns; minSup is the cluster-size threshold ceil(alpha*n)
// on the full table.
//
// A round has three parallel phases, each on the trial workers: the
// subsample's gather (one task per column), the medoid trials (one task per
// medoid) and membership over remaining (one task per memberBlock words).
// The RNG draws, the choice of the winner and the collection of the members
// stay sequential, so the result does not depend on the worker count.
func bestClusterAround(cols [][]float64, remaining []int, cfg Config, minSup int, gain float64, rng *rand.Rand, buf *buffers) (Cluster, bool) {
	dims := len(cols)
	workers := len(buf.miners)
	// Choose the transaction subsample once per extraction round so every
	// medoid trial sees the same points (fair comparison of mu scores).
	txRows := remaining
	txMinSup := minSup
	if cfg.MaxTransactions > 0 && len(remaining) > cfg.MaxTransactions {
		// The subsample is the permutation's first MaxTransactions entries,
		// taken in row order: the trials' supports count the same points
		// whatever their order, and the gather then streams through the
		// columns.
		perm := buf.rows[:len(remaining)]
		permInto(rng, perm)
		marks := buf.marks[:(len(remaining)+63)/64]
		clear(marks)
		for _, j := range perm[:cfg.MaxTransactions] {
			marks[j/64] |= 1 << (j % 64)
		}
		txRows = appendMarked(buf.txRows[:0], marks, remaining)
		// Scale the support threshold to the subsample.
		txMinSup = int(math.Ceil(float64(minSup) * float64(cfg.MaxTransactions) / float64(len(remaining))))
		if txMinSup < 2 {
			txMinSup = 2
		}
	}
	// Draw every medoid up front (sequential, so runs stay deterministic for
	// a given seed).
	medoidRows := make([]int, cfg.MedoidSamples)
	for t := range medoidRows {
		medoidRows[t] = remaining[rng.Intn(len(remaining))]
	}
	// Gather the subsample column by column as order-preserving keys, so each
	// trial's covers come from sequential scans of unsigned range tests.
	txKeys := buf.txKeys
	forEach(workers, dims, func(_, d int) {
		col, keys := cols[d], txKeys[d][:len(txRows)]
		for i, r := range txRows {
			keys[i] = keyOf(col[r])
		}
		txKeys[d] = keys
	})

	// Evaluate the trials in parallel: each trial builds its own covers and
	// mines them independently. Ties are broken by trial index so the
	// parallel result matches the sequential one.
	type trialResult struct {
		items  []int
		score  float64
		medoid geom.Point
		ok     bool
	}
	results := make([]trialResult, cfg.MedoidSamples)
	forEach(workers, cfg.MedoidSamples, func(w, trial int) {
		m := &buf.miners[w]
		medoid := make(geom.Point, dims)
		for d, col := range cols {
			medoid[d] = col[medoidRows[trial]]
		}
		m.cover(txKeys, medoid, &cfg)
		items, _, score, ok := m.mine(dims, txMinSup, gain)
		if !ok || len(items) < cfg.MinDims {
			return
		}
		results[trial] = trialResult{items: items, score: score, medoid: medoid, ok: true}
	})

	var (
		bestScore  = math.Inf(-1)
		bestDims   []int
		bestMedoid geom.Point
		found      bool
	)
	for _, r := range results {
		if r.ok && r.score > bestScore {
			bestScore = r.score
			bestDims = r.items
			bestMedoid = r.medoid
			found = true
		}
	}
	if !found {
		return Cluster{}, false
	}

	// Materialize the cluster over the FULL remaining set (not just the
	// subsample): members are the points within Width of the winning medoid
	// on every relevant dimension, that is inside each dimension's key
	// window.
	type window struct{ lo, span uint64 }
	wins := make([]window, len(bestDims))
	for i, d := range bestDims {
		lo, span, ok := keyWindow(bestMedoid[d], cfg.widthFor(d))
		if !ok { // the dimension admits no row
			return Cluster{}, false
		}
		wins[i] = window{lo, span}
	}
	words := (len(remaining) + 63) / 64
	marks := buf.marks[:words]
	forEach(workers, (words+memberBlock-1)/memberBlock, func(_, b int) {
		for k := b * memberBlock; k < min(words, (b+1)*memberBlock); k++ {
			rows := remaining[64*k : min(len(remaining), 64*k+64)]
			// The first dimension tests every row of the word, the others
			// only the rows still in.
			word := ^uint64(0) >> (64 - len(rows))
			for i, d := range bestDims {
				col, win := cols[d], wins[i]
				for m := word; m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m)
					if keyOf(col[rows[j]])-win.lo > win.span {
						word &^= 1 << j
					}
				}
				if word == 0 {
					break
				}
			}
			marks[k] = word
		}
	})
	rows := appendMarked(buf.rows[:0], marks, remaining)
	// The size threshold is alpha*n on the full table, not the subsample's
	// scaled support.
	if len(rows) < minSup {
		return Cluster{}, false
	}
	// Tight bounding box over the members.
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d, col := range cols {
		lo[d], hi[d] = col[rows[0]], col[rows[0]]
		for _, r := range rows[1:] {
			if col[r] < lo[d] {
				lo[d] = col[r]
			}
			if col[r] > hi[d] {
				hi[d] = col[r]
			}
		}
	}
	return Cluster{
		Dims:   bestDims,
		Rows:   slices.Clone(rows),
		Size:   len(rows),
		Box:    geom.Rect{Lo: lo, Hi: hi},
		Medoid: bestMedoid,
		Score:  float64(len(rows)) * pow(gain, len(bestDims)),
	}, true
}

package mineclus

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// mineTx runs the bitset miner over per-row transactions: bit i of item d's
// cover is set iff transaction i holds d. Items are dimensions 0..dims-1.
func mineTx(tx [][]int, minSup int, gain float64) ([]int, int, float64, bool) {
	dims := 0
	for _, t := range tx {
		for _, it := range t {
			dims = max(dims, it+1)
		}
	}
	m := &miner{words: (len(tx) + 63) / 64}
	m.covers = make([]uint64, dims*m.words)
	for i, t := range tx {
		for _, it := range t {
			m.covers[it*m.words+i/64] |= 1 << (i % 64)
		}
	}
	return m.mine(dims, minSup, gain)
}

// rows returns the per-row transactions the miner's covers stand for: row i
// holds dimension d iff bit i of d's cover is set.
func (m *miner) rows(dims, points int) [][]int {
	tx := make([][]int, points)
	for i := range tx {
		for d := range dims {
			if m.covers[d*m.words+i/64]&(1<<(i%64)) != 0 {
				tx[i] = append(tx[i], d)
			}
		}
	}
	return tx
}

// bruteBestItemset enumerates every itemset over the alphabet to find the
// mu-optimal one; the reference for the miner's score.
func bruteBestItemset(transactions [][]int, minSup int, gain float64) ([]int, int, float64, bool) {
	alphabet := map[int]bool{}
	for _, tx := range transactions {
		for _, it := range tx {
			alphabet[it] = true
		}
	}
	var items []int
	for it := range alphabet {
		items = append(items, it)
	}
	sort.Ints(items)
	var (
		bestItems []int
		bestSup   int
		bestScore = math.Inf(-1)
		found     bool
	)
	for mask := 1; mask < 1<<len(items); mask++ {
		var set []int
		for i, it := range items {
			if mask&(1<<i) != 0 {
				set = append(set, it)
			}
		}
		sup := support(transactions, set)
		if sup < minSup {
			continue
		}
		score := float64(sup) * math.Pow(gain, float64(len(set)))
		if score > bestScore || (score == bestScore && len(set) > len(bestItems)) {
			bestItems, bestSup, bestScore, found = set, sup, score, true
		}
	}
	return bestItems, bestSup, bestScore, found
}

// support counts the transactions holding every item of set.
func support(transactions [][]int, set []int) int {
	n := 0
	for _, tx := range transactions {
		all := true
		for _, it := range set {
			if !slices.Contains(tx, it) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

func TestBestItemsetSimple(t *testing.T) {
	// Items {0,1} appear together 5 times, {2} appears 3 times alone.
	var tx [][]int
	for i := 0; i < 5; i++ {
		tx = append(tx, []int{0, 1})
	}
	for i := 0; i < 3; i++ {
		tx = append(tx, []int{2})
	}
	items, sup, score, ok := mineTx(tx, 2, 4) // gain 4 per extra dim
	if !ok {
		t.Fatal("no itemset found")
	}
	if !reflect.DeepEqual(items, []int{0, 1}) {
		t.Errorf("items = %v, want [0 1]", items)
	}
	if sup != 5 {
		t.Errorf("support = %d, want 5", sup)
	}
	if want := 5.0 * 16; score != want {
		t.Errorf("score = %g, want %g", score, want)
	}
}

func TestBestItemsetMinSup(t *testing.T) {
	tx := [][]int{{0}, {0}, {1}}
	if _, _, _, ok := mineTx(tx, 3, 2); ok {
		t.Error("itemset below minSup accepted")
	}
	items, sup, _, ok := mineTx(tx, 2, 2)
	if !ok || sup != 2 || !reflect.DeepEqual(items, []int{0}) {
		t.Errorf("items=%v sup=%d ok=%v, want [0] 2 true", items, sup, ok)
	}
}

func TestBestItemsetPrefersDimensionsWithHighGain(t *testing.T) {
	// 10 transactions with {0}, 6 with {1,2}. With low gain the single
	// frequent item wins; with high gain the 2-dim set wins.
	var tx [][]int
	for i := 0; i < 10; i++ {
		tx = append(tx, []int{0})
	}
	for i := 0; i < 6; i++ {
		tx = append(tx, []int{1, 2})
	}
	items, _, _, _ := mineTx(tx, 2, 1.2) // 10*1.2 = 12 > 6*1.44 = 8.6
	if !reflect.DeepEqual(items, []int{0}) {
		t.Errorf("low gain: items = %v, want [0]", items)
	}
	items, _, _, _ = mineTx(tx, 2, 4) // 10*4 = 40 < 6*16 = 96
	if !reflect.DeepEqual(items, []int{1, 2}) {
		t.Errorf("high gain: items = %v, want [1 2]", items)
	}
}

func TestBestItemsetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		nItems := 2 + rng.Intn(6)
		nTx := 5 + rng.Intn(30)
		tx := make([][]int, nTx)
		for i := range tx {
			for it := 0; it < nItems; it++ {
				if rng.Float64() < 0.4 {
					tx[i] = append(tx[i], it)
				}
			}
		}
		minSup := 1 + rng.Intn(4)
		gain := 1.1 + rng.Float64()*5
		gi, gs, gsc, gok := mineTx(tx, minSup, gain)
		bi, bs, bsc, bok := bruteBestItemset(tx, minSup, gain)
		if gok != bok {
			t.Fatalf("trial %d: found=%v brute=%v", trial, gok, bok)
		}
		if !gok {
			continue
		}
		// Scores must match; the winning set may differ only on exact ties.
		if math.Abs(gsc-bsc) > 1e-9*math.Max(gsc, bsc) {
			t.Fatalf("trial %d: score %g (items %v sup %d) vs brute %g (items %v sup %d)",
				trial, gsc, gi, gs, bsc, bi, bs)
		}
	}
}

func TestQuickBestItemsetSupportIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func() bool {
		nTx := 5 + rng.Intn(200)
		tx := make([][]int, nTx)
		for i := range tx {
			for it := 0; it < 5; it++ {
				if rng.Float64() < 0.5 {
					tx[i] = append(tx[i], it)
				}
			}
		}
		items, sup, _, ok := mineTx(tx, 2, 3)
		return !ok || sup == support(tx, items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPow(t *testing.T) {
	for _, c := range []struct {
		base float64
		exp  int
		want float64
	}{{2, 0, 1}, {2, 1, 2}, {2, 10, 1024}, {1.5, 3, 3.375}, {10, 18, 1e18}} {
		if got := pow(c.base, c.exp); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("pow(%g,%d) = %g, want %g", c.base, c.exp, got, c.want)
		}
	}
}

// randomCovers returns a miner holding the covers of points random points
// over dims dimensions, built so that FP-growth's visiting order decides the
// answer:
//   - Up to ten dimensions take their cover from a pool of one to five sets,
//     so dimensions often share a cover, tie on support and rank by id.
//   - Three times in four the pool's sets are unions of equal-sized blocks
//     of points. Every support is then a multiple of the block size, and with
//     gain 2 or 4 (exact in floating point) an itemset and one that is a
//     dimension longer but half or a quarter as frequent reach exactly the
//     same mu.
//   - Every other dimension covers at most one point, so it never reaches a
//     minSup of 2 and the lattice stays small with more than 64 dimensions.
func randomCovers(rng *rand.Rand, dims, points int) *miner {
	m := &miner{words: (points + 63) / 64}
	m.covers = make([]uint64, dims*m.words)
	set := func(d, i int) { m.covers[d*m.words+i/64] |= 1 << (i % 64) }
	pool := make([][]int, 1+rng.Intn(5))
	blocks, perm := 1+rng.Intn(8), rng.Perm(points)
	size, random := points/blocks, rng.Intn(4) == 0
	for k := range pool {
		if random {
			pool[k] = rng.Perm(points)[:rng.Intn(points+1)]
			continue
		}
		for b := range blocks {
			if rng.Intn(2) == 0 {
				pool[k] = append(pool[k], perm[b*size:(b+1)*size]...)
			}
		}
	}
	frequent := rng.Perm(dims)[:min(dims, 1+rng.Intn(10))]
	for d := range dims {
		if slices.Contains(frequent, d) {
			for _, i := range pool[rng.Intn(len(pool))] {
				set(d, i)
			}
		} else if rng.Intn(2) == 0 {
			set(d, rng.Intn(points))
		}
	}
	return m
}

// topTies counts the itemsets over the frequent dimensions whose mu equals
// score, by enumerating them all.
func topTies(m *miner, dims, minSup int, gain, score float64) int {
	var frequent []int
	for d := range dims {
		if popcount(m.covers[d*m.words:(d+1)*m.words]) >= minSup {
			frequent = append(frequent, d)
		}
	}
	ties := 0
	tids := make([]uint64, m.words)
	for set := 1; set < 1<<len(frequent); set++ {
		for k := range tids {
			tids[k] = ^uint64(0)
		}
		size := 0
		for b, d := range frequent {
			if set&(1<<b) != 0 {
				andCount(tids, tids, m.covers[d*m.words:(d+1)*m.words])
				size++
			}
		}
		if s := popcount(tids); s >= minSup && float64(s)*pow(gain, size) == score {
			ties++
		}
	}
	return ties
}

// TestQuickMinerMatchesFPGrowth requires the bitset miner to return exactly
// FP-growth's answer on random covers: the same itemset, support and score
// bits, so equal scores break the same way. The covers span several words,
// and some have more than 64 dimensions. One miner mines every case, as a
// trial worker does, so state left by a previous case would show.
func TestQuickMinerMatchesFPGrowth(t *testing.T) {
	var cases, ties, wide int
	shared := &miner{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(12)
		if rng.Intn(3) == 0 {
			dims = 65 + rng.Intn(40)
		}
		points := 1 + rng.Intn(300)
		m := randomCovers(rng, dims, points)
		minSup := 2 + rng.Intn(1+points/8)
		gain := 1.1 + rng.Float64()*5
		if rng.Intn(2) == 0 {
			gain = float64(int(2) << rng.Intn(2))
		}
		wi, ws, wsc, wok := fpBestItemset(unit(m.rows(dims, points)), minSup, gain)
		shared.words, shared.covers = m.words, m.covers
		gi, gs, gsc, gok := shared.mine(dims, minSup, gain)
		if gok != wok || !slices.Equal(gi, wi) || gs != ws || math.Float64bits(gsc) != math.Float64bits(wsc) {
			t.Logf("seed %d (%d dims, %d points, minSup %d, gain %g): miner %v sup %d score %v found %v, FP-growth %v sup %d score %v found %v",
				seed, dims, points, minSup, gain, gi, gs, gsc, gok, wi, ws, wsc, wok)
			return false
		}
		if gok {
			cases++
			if topTies(m, dims, minSup, gain, gsc) > 1 {
				ties++
			}
			if dims > 64 {
				wide++
			}
		}
		return true
	}
	// Seeds whose answer hinges on a tie: 335 on preferring the longer of
	// two equal scores, 602 and 23676 on pruning a branch whose bound only
	// equals the incumbent's score.
	for _, seed := range []int64{335, 602, 23676} {
		if !f(seed) {
			t.Fatalf("pinned seed %d", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cases found an itemset: %d with a tied best score, %d with more than 64 dimensions", cases, ties, wide)
	if ties == 0 || wide == 0 {
		t.Error("the sweep forced no tie or no wide case; it checks less than it claims")
	}
}

// TestCoverMatchesPredicate: bit i of dimension d's cover is set exactly when
// |q_d - p_d| <= w_d, on infinite coordinates too, and a reused miner keeps
// no bit of an earlier trial. The last 30 trials take several full words,
// half of them with a partial last word, so windowWords and windowBits both
// set bits.
func TestCoverMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := &miner{}
	specials := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308}
	for trial := 0; trial < 80; trial++ {
		dims, points := 1+rng.Intn(4), 1+rng.Intn(200)
		if trial >= 50 {
			points = 64*(1+rng.Intn(8)) + trial%2*(1+rng.Intn(63))
		}
		pick := func() float64 {
			if rng.Intn(8) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.Float64() * 100
		}
		txCols := make([][]float64, dims)
		for d := range txCols {
			for range points {
				txCols[d] = append(txCols[d], pick())
			}
		}
		medoid := make([]float64, dims)
		widths := make([]float64, dims)
		for d := range medoid {
			medoid[d], widths[d] = pick(), 1+rng.Float64()*30
		}
		if trial%10 == 0 {
			widths[0] = math.Inf(1)
		}
		cfg := Config{Widths: widths}
		txKeys := make([][]uint64, dims)
		for d, col := range txCols {
			for _, v := range col {
				txKeys[d] = append(txKeys[d], keyOf(v))
			}
		}
		m.cover(txKeys, medoid, &cfg)
		for d, col := range txCols {
			for i, v := range col {
				got := m.covers[d*m.words+i/64]&(1<<(i%64)) != 0
				if want := math.Abs(v-medoid[d]) <= widths[d]; got != want {
					t.Fatalf("trial %d: dim %d point %d (%v around %v, width %v): bit %v, predicate %v",
						trial, d, i, v, medoid[d], widths[d], got, want)
				}
			}
		}
	}
}

// TestQuickKeyWindowMatchesPredicate: a value lies in keyWindow's key run
// exactly when |v - p| <= w. Besides random values it probes the
// Nextafter neighbours of p±w and of the run's two ends, ±0, subnormals and
// ±MaxFloat64, with ±Inf medoids and widths; keyOf must preserve order and
// valueOf must invert it bit for bit.
func TestQuickKeyWindowMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	inf := math.Inf(1)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, inf, -inf, 1, -1}
	pick := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(620)-320))
		case 2:
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) {
				return v
			}
			return 0
		default:
			return rng.Float64() * 1000
		}
	}
	neighbours := func(vs []float64, v float64) []float64 {
		return append(vs, v, math.Nextafter(v, inf), math.Nextafter(v, -inf),
			math.Nextafter(math.Nextafter(v, inf), inf), math.Nextafter(math.Nextafter(v, -inf), -inf))
	}
	var empty, full, oneSided int
	f := func() bool {
		p, w := pick(), math.Abs(pick())
		lo, span, ok := keyWindow(p, w)
		vals := append(specials, p)
		vals = neighbours(neighbours(vals, p-w), p+w)
		for range 20 {
			vals = append(vals, pick(), p+(rng.Float64()*4-2)*w)
		}
		if ok {
			vals = neighbours(neighbours(vals, valueOf(lo)), valueOf(lo+span))
		}
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			if got, want := ok && keyOf(v)-lo <= span, math.Abs(v-p) <= w; got != want {
				t.Logf("v=%v p=%v w=%v: in run %v, predicate %v (run %v..%v, ok %v)", v, p, w, got, want, valueOf(lo), valueOf(lo+span), ok)
				return false
			}
			if math.Float64bits(valueOf(keyOf(v))) != math.Float64bits(v) {
				t.Logf("valueOf(keyOf(%v)) = %v", v, valueOf(keyOf(v)))
				return false
			}
		}
		if a, b := pick(), pick(); (a < b) != (keyOf(a) < keyOf(b)) && !(a == 0 && b == 0) {
			t.Logf("keyOf reorders %v and %v", a, b)
			return false
		}
		switch {
		case !ok:
			empty++
		case lo == keyOf(-inf) && lo+span == keyOf(inf):
			full++
		case lo == keyOf(-inf) || lo+span == keyOf(inf):
			oneSided++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d empty, %d full and %d one-sided runs", empty, full, oneSided)
	if empty == 0 || full == 0 || oneSided == 0 {
		t.Error("the sweep met no empty, full or one-sided run; it checks less than it claims")
	}
}

package mineclus

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// bruteBestItemset enumerates every itemset over the alphabet to find the
// mu-optimal one; the reference for bestItemset.
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
		sup := 0
		for _, tx := range transactions {
			has := map[int]bool{}
			for _, it := range tx {
				has[it] = true
			}
			all := true
			for _, it := range set {
				if !has[it] {
					all = false
					break
				}
			}
			if all {
				sup++
			}
		}
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

// unit gives every transaction count 1: the multiset as the per-row builder
// produced it.
func unit(transactions [][]int) []weightedTx {
	out := make([]weightedTx, len(transactions))
	for i, tx := range transactions {
		out[i] = weightedTx{items: tx, count: 1}
	}
	return out
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
	items, sup, score, ok := bestItemset(unit(tx), 2, 4) // gain 4 per extra dim
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
	if _, _, _, ok := bestItemset(unit(tx), 3, 2); ok {
		t.Error("itemset below minSup accepted")
	}
	items, sup, _, ok := bestItemset(unit(tx), 2, 2)
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
	items, _, _, _ := bestItemset(unit(tx), 2, 1.2) // 10*1.2 = 12 > 6*1.44 = 8.6
	if !reflect.DeepEqual(items, []int{0}) {
		t.Errorf("low gain: items = %v, want [0]", items)
	}
	items, _, _, _ = bestItemset(unit(tx), 2, 4) // 10*4 = 40 < 6*16 = 96
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
		gi, gs, gsc, gok := bestItemset(unit(tx), minSup, gain)
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
		nTx := 5 + rng.Intn(40)
		tx := make([][]int, nTx)
		for i := range tx {
			for it := 0; it < 5; it++ {
				if rng.Float64() < 0.5 {
					tx[i] = append(tx[i], it)
				}
			}
		}
		items, sup, _, ok := bestItemset(unit(tx), 2, 3)
		if !ok {
			return true
		}
		// Recount the support of the winning itemset.
		want := 0
		for _, t := range tx {
			has := map[int]bool{}
			for _, it := range t {
				has[it] = true
			}
			all := true
			for _, it := range items {
				if !has[it] {
					all = false
					break
				}
			}
			if all {
				want++
			}
		}
		return sup == want
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

// TestQuickWeightedMatchesExpanded: mining distinct transactions with their
// multiplicities gives exactly the answer of mining the multiset they stand
// for, one transaction per point.
func TestQuickWeightedMatchesExpanded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nItems := 1 + rng.Intn(8)
		var weighted []weightedTx
		var expanded [][]int
		for mask := 0; mask < 1<<nItems; mask++ {
			if rng.Float64() < 0.5 {
				continue
			}
			var items []int
			for it := 0; it < nItems; it++ {
				if mask&(1<<it) != 0 {
					items = append(items, it)
				}
			}
			count := 1 + rng.Intn(6)
			weighted = append(weighted, weightedTx{items: items, count: count})
			for i := 0; i < count; i++ {
				expanded = append(expanded, items)
			}
		}
		// The multiset in a shuffled order, as points arrive.
		rng.Shuffle(len(expanded), func(i, j int) { expanded[i], expanded[j] = expanded[j], expanded[i] })
		minSup := 1 + rng.Intn(10)
		gain := 1.1 + rng.Float64()*5
		wi, ws, wsc, wok := bestItemset(weighted, minSup, gain)
		ei, es, esc, eok := bestItemset(unit(expanded), minSup, gain)
		return wok == eok && reflect.DeepEqual(wi, ei) && ws == es && math.Float64bits(wsc) == math.Float64bits(esc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

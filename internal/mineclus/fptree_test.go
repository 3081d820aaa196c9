package mineclus

// The FP-tree and the FP-growth search over it: the per-row oracle that
// referenceRun and TestQuickMinerMatchesFPGrowth hold the bitset miner to.

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// fpNode is one node of the FP-tree. Children are kept in a small slice
// (dimension alphabets are tiny) rather than a map.
type fpNode struct {
	item     int
	count    int
	parent   *fpNode
	children []*fpNode
	next     *fpNode // header-list threading
}

func (n *fpNode) child(item int) *fpNode {
	for _, c := range n.children {
		if c.item == item {
			return c
		}
	}
	return nil
}

// fpTree is an FP-tree over dimension itemsets.
type fpTree struct {
	root    *fpNode
	headers map[int]*fpNode // item -> head of node list
	counts  map[int]int     // item -> total support in this tree
	order   map[int]int     // item -> global insertion rank (desc frequency)
}

// weightedTx is a transaction that count points share: every point whose
// dimension set equals items. Collapsing equal transactions leaves every item
// support, and so every mined itemset, unchanged.
type weightedTx struct {
	items []int
	count int
}

// newFPTree builds a tree from weighted transactions, keeping only items with
// support >= minSup. Transactions are slices of item ids (dimensions); order
// within a transaction is irrelevant.
func newFPTree(transactions []weightedTx, minSup int) *fpTree {
	counts := make(map[int]int)
	for _, tx := range transactions {
		for _, it := range tx.items {
			counts[it] += tx.count
		}
	}
	var items []int
	for it, c := range counts {
		if c >= minSup {
			items = append(items, it)
		}
	}
	// Descending frequency, ties by item id for determinism.
	slices.SortFunc(items, func(a, b int) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	order := make(map[int]int, len(items))
	for rank, it := range items {
		order[it] = rank
	}
	t := &fpTree{
		root:    &fpNode{item: -1},
		headers: make(map[int]*fpNode),
		counts:  make(map[int]int),
		order:   order,
	}
	buf := make([]int, 0, 16)
	for _, tx := range transactions {
		buf = buf[:0]
		for _, it := range tx.items {
			if _, ok := order[it]; ok {
				buf = append(buf, it)
			}
		}
		slices.SortFunc(buf, func(a, b int) int { return cmp.Compare(order[a], order[b]) })
		t.insert(buf, tx.count)
	}
	return t
}

// insert adds one (ordered, filtered) transaction with the given count.
func (t *fpTree) insert(tx []int, count int) {
	node := t.root
	for _, it := range tx {
		t.counts[it] += count
		c := node.child(it)
		if c == nil {
			c = &fpNode{item: it, parent: node}
			node.children = append(node.children, c)
			c.next = t.headers[it]
			t.headers[it] = c
		}
		c.count += count
		node = c
	}
}

// conditional builds the conditional FP-tree for item: the prefix paths of
// every node carrying item, filtered by minSup.
func (t *fpTree) conditional(item, minSup int) *fpTree {
	// First pass: support of each item in the prefix paths.
	counts := make(map[int]int)
	for n := t.headers[item]; n != nil; n = n.next {
		for p := n.parent; p != nil && p.item >= 0; p = p.parent {
			counts[p.item] += n.count
		}
	}
	cond := &fpTree{
		root:    &fpNode{item: -1},
		headers: make(map[int]*fpNode),
		counts:  make(map[int]int),
		order:   t.order,
	}
	for n := t.headers[item]; n != nil; n = n.next {
		var path []int
		for p := n.parent; p != nil && p.item >= 0; p = p.parent {
			if counts[p.item] >= minSup {
				path = append(path, p.item)
			}
		}
		// path is leaf-to-root; reverse to root-to-leaf (already in global
		// order because tree paths follow it).
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		cond.insert(path, n.count)
	}
	return cond
}

// itemsByRank returns the tree's frequent items ordered by ascending global
// rank (most frequent first).
func (t *fpTree) itemsByRank() []int {
	items := make([]int, 0, len(t.counts))
	for it := range t.counts {
		items = append(items, it)
	}
	slices.SortFunc(items, func(a, b int) int { return cmp.Compare(t.order[a], t.order[b]) })
	return items
}

// fpBestItemset searches the itemset lattice via FP-growth for the set
// maximizing mu(support, size) = support * gain^size, subject to
// support >= minSup and size >= 1. gain = 1/beta > 1 rewards extra
// dimensions. Branch-and-bound: extending an itemset can only shrink its
// support, so an upper bound for any extension of (X, s) inside a tree with
// r remaining candidate items is s * gain^(|X| + r); branches below the
// incumbent are pruned.
//
// Supports count transaction weights, so a multiset of transactions and its
// distinct members with their multiplicities give the same answer. It
// returns the best itemset (ascending item ids), its support, and its mu
// score; found is false when no item meets minSup.
func fpBestItemset(transactions []weightedTx, minSup int, gain float64) (items []int, support int, score float64, found bool) {
	if minSup < 1 {
		minSup = 1
	}
	t := newFPTree(transactions, minSup)
	var best struct {
		items   []int
		support int
		score   float64
		ok      bool
	}
	var grow func(t *fpTree, suffix []int)
	grow = func(t *fpTree, suffix []int) {
		items := t.itemsByRank()
		// Process least-frequent first, FP-growth style (iterate reversed).
		for i := len(items) - 1; i >= 0; i-- {
			it := items[i]
			s := t.counts[it]
			if s < minSup {
				continue
			}
			cur := append(append([]int(nil), suffix...), it)
			sc := float64(s) * pow(gain, len(cur))
			if !best.ok || sc > best.score || (sc == best.score && len(cur) > len(best.items)) {
				best.items = cur
				best.support = s
				best.score = sc
				best.ok = true
			}
			// Upper bound for any superset mined from the conditional tree:
			// the i items ranked above `it` can still join.
			bound := float64(s) * pow(gain, len(cur)+i)
			if bound <= best.score {
				continue
			}
			cond := t.conditional(it, minSup)
			if len(cond.counts) > 0 {
				grow(cond, cur)
			}
		}
	}
	grow(t, nil)
	if !best.ok {
		return nil, 0, 0, false
	}
	slices.Sort(best.items)
	return best.items, best.support, best.score, true
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
		wi, ws, wsc, wok := fpBestItemset(weighted, minSup, gain)
		ei, es, esc, eok := fpBestItemset(unit(expanded), minSup, gain)
		return wok == eok && reflect.DeepEqual(wi, ei) && ws == es && math.Float64bits(wsc) == math.Float64bits(esc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

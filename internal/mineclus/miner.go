// Package mineclus implements the MineClus projected clustering algorithm of
// Yiu and Mamoulis (ICDM 2003), the subspace clustering method the paper
// selects as the best histogram initializer.
//
// MineClus casts the DOC-style "find the best projected cluster around a
// medoid" problem as frequent-itemset mining: for a sampled medoid p, every
// point q yields the itemset D(q,p) = { d : |q_d - p_d| <= w } of dimensions
// on which q is close to p. A dimension set D with support s describes a
// projected cluster of s points and |D| relevant dimensions; its quality is
//
//	mu(s, |D|) = s * (1/beta)^|D|
//
// and the best cluster is the itemset maximizing mu subject to s >= alpha*n.
// This file provides the per-trial miner, which stores the itemsets
// vertically (one bitset of points per dimension) and searches them
// depth-first with branch-and-bound; mineclus.go drives the medoid sampling
// and iterative extraction.
package mineclus

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// miner finds the mu-best dimension set of one medoid trial. It keeps each
// dimension's cover: the bitset of the trial's points (bit i%64 of word i/64
// for point i) whose itemset holds that dimension. The support of an itemset
// is the popcount of the AND of its dimensions' covers. A worker reuses one
// miner, and every buffer in it, for all its trials.
type miner struct {
	words  int      // uint64s per bitset: ceil(T/64) for T points
	covers []uint64 // words per dimension, dimension by dimension
	dimSup []int    // popcount of each cover
	levels []level  // levels[k]: the candidate extensions of a depth-k node
	path   []int    // the itemset of the node being expanded, in visit order

	minSup  int
	gain    float64
	best    []int // incumbent itemset, in visit order
	support int
	score   float64
	found   bool
}

// level is the candidate list of one search node: the items that may extend
// the node's itemset X, in rank order, each with the support and tidset of
// X plus that item.
type level struct {
	items []int
	sups  []int
	tids  []uint64 // words per item
}

// cover fills m.covers for the points in txCols (the trial's subsample,
// column by column) around medoid: bit i of dimension d's cover is set iff
// |q_d - p_d| <= w_d for point i, the comparison cluster membership uses.
// Go compiles the loop body without a branch; a sign-bit trick would
// disagree with the comparison on infinite coordinates.
func (m *miner) cover(txCols [][]float64, medoid []float64, cfg *Config) {
	m.words = (len(txCols[0]) + 63) / 64
	m.covers = slices.Grow(m.covers[:0], len(txCols)*m.words)[:len(txCols)*m.words]
	for d, col := range txCols {
		p, w := medoid[d], cfg.widthFor(d)
		cov := m.covers[d*m.words : (d+1)*m.words]
		for k := range cov {
			var word uint64
			for j, v := range col[k*64 : min(len(col), k*64+64)] {
				var b uint64
				if math.Abs(v-p) <= w {
					b = 1
				}
				word |= b << (j & 63) // j < 64: the mask only drops the shift's range check
			}
			cov[k] = word
		}
	}
}

// mine returns the itemset over the first dims covers maximizing
// mu(support, size) = support * gain^size, subject to support >= minSup and
// size >= 1. gain = 1/beta > 1 rewards extra dimensions. It returns the
// itemset (ascending dimensions), its support and its mu score; found is
// false when no dimension meets minSup.
//
// The search visits itemsets in FP-growth's order, so equal scores break
// the same way. Items are ranked by descending support, ties by id, and a
// node's list is processed from its least to its most frequent item. Item i
// of a list extends the node's itemset X to X+i; its children are the items
// ranked above it whose support together with X+i is at least minSup.
// Extending an itemset can only shrink its support, so s * gain^(|X+i|+i)
// bounds every itemset below X+i, and a branch whose bound does not beat the
// incumbent is pruned. The incumbent is replaced by a higher score, or by an
// equal score on more dimensions.
func (m *miner) mine(dims, minSup int, gain float64) (items []int, support int, score float64, found bool) {
	m.minSup, m.gain = max(minSup, 1), gain
	m.best, m.found = m.best[:0], false
	if len(m.levels) < dims+1 {
		m.levels = append(m.levels, make([]level, dims+1-len(m.levels))...)
	}
	// The root's list: the frequent dimensions by rank, with their covers.
	m.dimSup = slices.Grow(m.dimSup[:0], dims)[:dims]
	root := &m.levels[0]
	root.items = root.items[:0]
	for d := range dims {
		if m.dimSup[d] = popcount(m.covers[d*m.words : (d+1)*m.words]); m.dimSup[d] >= m.minSup {
			root.items = append(root.items, d)
		}
	}
	slices.SortFunc(root.items, func(a, b int) int {
		return cmp.Or(cmp.Compare(m.dimSup[b], m.dimSup[a]), cmp.Compare(a, b))
	})
	root.sups, root.tids = root.sups[:0], root.tids[:0]
	for _, d := range root.items {
		root.sups = append(root.sups, m.dimSup[d])
		root.tids = append(root.tids, m.covers[d*m.words:(d+1)*m.words]...)
	}
	m.grow(0)
	if !m.found {
		return nil, 0, 0, false
	}
	items = slices.Clone(m.best)
	slices.Sort(items)
	return items, m.support, m.score, true
}

// grow expands every item of the depth-k node's list, least frequent first,
// and recurses into the children that survive the bound.
func (m *miner) grow(depth int) {
	lv, next, w := &m.levels[depth], &m.levels[depth+1], m.words
	size := depth + 1
	for i := len(lv.items) - 1; i >= 0; i-- {
		s := lv.sups[i]
		m.path = append(m.path[:depth], lv.items[i])
		if sc := float64(s) * pow(m.gain, size); !m.found || sc > m.score || (sc == m.score && size > len(m.best)) {
			m.best = append(m.best[:0], m.path...)
			m.support, m.score, m.found = s, sc, true
		}
		if float64(s)*pow(m.gain, size+i) <= m.score {
			continue
		}
		x := lv.tids[i*w : (i+1)*w]
		next.items, next.sups = next.items[:0], next.sups[:0]
		next.tids = slices.Grow(next.tids[:0], i*w)[:i*w]
		for j := range i {
			k := len(next.items) * w
			if s := andCount(next.tids[k:k+w], x, lv.tids[j*w:(j+1)*w]); s >= m.minSup {
				next.items = append(next.items, lv.items[j])
				next.sups = append(next.sups, s)
			}
		}
		if len(next.items) > 0 {
			m.grow(depth + 1)
		}
	}
}

// andCount stores x AND y in dst and returns its popcount.
func andCount(dst, x, y []uint64) int {
	n := 0
	y, dst = y[:len(x)], dst[:len(x)]
	for k, a := range x {
		v := a & y[k]
		dst[k] = v
		n += bits.OnesCount64(v)
	}
	return n
}

// popcount returns the number of set bits in x.
func popcount(x []uint64) int {
	n := 0
	for _, w := range x {
		n += bits.OnesCount64(w)
	}
	return n
}

// pow is a small integer-exponent power helper (math.Pow is slower and this
// sits on the mining hot path).
func pow(base float64, exp int) float64 {
	r := 1.0
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r *= base
		}
		base *= base
	}
	return r
}

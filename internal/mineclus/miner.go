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

// cover fills m.covers for the points in txKeys (the trial's subsample,
// column by column, as keyOf keys) around medoid: bit i of dimension d's
// cover is set iff |q_d - p_d| <= w_d for point i, the comparison cluster
// membership uses. The points passing it form one run of keys (keyWindow),
// so each point costs one unsigned range test: windowWords tests the full
// 64-point words, windowBits the partial last one.
func (m *miner) cover(txKeys [][]uint64, medoid []float64, cfg *Config) {
	m.words = (len(txKeys[0]) + 63) / 64
	m.covers = slices.Grow(m.covers[:0], len(txKeys)*m.words)[:len(txKeys)*m.words]
	for d, keys := range txKeys {
		cov := m.covers[d*m.words : (d+1)*m.words]
		lo, span, ok := keyWindow(medoid[d], cfg.widthFor(d))
		if !ok {
			clear(cov)
			continue
		}
		full := len(keys) / 64
		windowWords(cov[:full], keys, lo, span)
		if full < len(cov) {
			cov[full] = windowBits(keys[full*64:], lo, span)
		}
	}
}

// windowWordsGo is windowWords's Go body, and the oracle its AVX-512F
// kernel is tested against.
func windowWordsGo(dst, keys []uint64, lo, span uint64) {
	for k := range dst {
		dst[k] = windowBits(keys[k*64:k*64+64], lo, span)
	}
}

// windowBits returns the bitmask of the (at most 64) keys in [lo, lo+span]:
// bit j for keys[j]. The test is unrolled eight keys at a time with constant
// bits, which Go compiles to independent compares and conditional moves.
func windowBits(keys []uint64, lo, span uint64) uint64 {
	var word uint64
	j := 0
	for ; j+8 <= len(keys); j += 8 {
		x := keys[j : j+8 : j+8]
		var b uint64
		if x[0]-lo <= span {
			b |= 1
		}
		if x[1]-lo <= span {
			b |= 2
		}
		if x[2]-lo <= span {
			b |= 4
		}
		if x[3]-lo <= span {
			b |= 8
		}
		if x[4]-lo <= span {
			b |= 16
		}
		if x[5]-lo <= span {
			b |= 32
		}
		if x[6]-lo <= span {
			b |= 64
		}
		if x[7]-lo <= span {
			b |= 128
		}
		word |= b << j
	}
	for ; j < len(keys); j++ {
		if keys[j]-lo <= span {
			word |= 1 << j
		}
	}
	return word
}

// keyOf maps v to a key whose unsigned order is v's order: -0 sits just
// below +0 and NaNs lie outside [keyOf(-Inf), keyOf(+Inf)].
func keyOf(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// valueOf inverts keyOf.
func valueOf(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// keyWindow returns the run [lo, lo+span] of keys whose values v satisfy
// |v - p| <= w; ok is false when no value does. It is a single run because
// v - p rounds monotonically in v (±Inf included), so -w <= v - p <= w holds
// on an interval of values, and -0 and +0, equal values, have adjacent keys.
// The run contains p when p is finite. An infinite p admits at most the
// values short of it (all of them, and only for an infinite w), so the
// largest finite value of p's sign anchors the search instead. Each bound is
// a binary search of the predicate itself: over the few keys bracket returns
// around keyOf(p-w) or keyOf(p+w) when the predicate confirms the flip lies
// among them (it fails on the key just outside the bracket and holds on the
// bracket's inner end), and over the keys of [-Inf, +Inf] otherwise. The
// keys just outside keyOf(±Inf) are NaNs', on which the predicate fails, so
// a bracket clamped to an end needs no special case.
func keyWindow(p, w float64) (lo, span uint64, ok bool) {
	inside := func(k uint64) bool { return math.Abs(valueOf(k)-p) <= w }
	anchor := keyOf(max(-math.MaxFloat64, min(p, math.MaxFloat64)))
	if !inside(anchor) {
		return 0, 0, false
	}
	a, b := keyOf(math.Inf(-1)), anchor // the first inside key is in [a, b]
	if x, y := bracket(keyOf(p-w), a, b); !inside(x-1) && inside(y) {
		a, b = x, y
	}
	for a < b {
		if mid := a + (b-a)/2; inside(mid) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	lo = a
	a, b = anchor, keyOf(math.Inf(1)) // the last inside key is in [a, b]
	if x, y := bracket(keyOf(p+w), a, b); inside(x) && !inside(y+1) {
		a, b = x, y
	}
	for a < b {
		if mid := b - (b-a)/2; inside(mid) {
			a = mid
		} else {
			b = mid - 1
		}
	}
	return lo, a - lo, true
}

// bracketReach is how many keys on each side of its guess bracket spans.
// Over random medoids and widths, the rounded comparison |v - p| <= w flipped
// within one key of keyOf(p∓w) in 99% of cases and within four in 99.7%; it
// flips far away when p∓w cancels to far below w.
const bracketReach = 4

// bracket returns the first and last key of [a, b] within bracketReach of
// g, once g is clamped to [a, b].
func bracket(g, a, b uint64) (x, y uint64) {
	g = max(a, min(g, b))
	x, y = a, b
	if g-a > bracketReach {
		x = g - bracketReach
	}
	if b-g > bracketReach {
		y = g + bracketReach
	}
	return x, y
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

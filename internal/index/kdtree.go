// Package index provides exact orthogonal range counting over a dataset.
//
// The simulation loop in this reproduction issues hundreds of thousands of
// "what is the true cardinality of box q" queries — once per training/eval
// query and once per candidate hole during STHoles drilling. A linear scan
// per query is O(n) and dominates the run time on paper-scale datasets
// (1.7M tuples), so the harness uses a k-d tree with subtree counts: nodes
// whose bounding box is fully inside the query contribute their count
// without descending, giving the classic O(n^(1-1/d) + k)-style bound.
package index

import (
	"fmt"
	"math"
	"slices"

	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// ScanCounter answers range counts by scanning the table on every query.
// It is the correctness reference for KDTree and fine for small tables.
type ScanCounter struct {
	tab *dataset.Table
}

// NewScanCounter wraps a non-empty table.
func NewScanCounter(tab *dataset.Table) (*ScanCounter, error) {
	if _, err := tab.Bounds(); err != nil {
		return nil, err
	}
	return &ScanCounter{tab: tab}, nil
}

// Count returns the number of rows inside r (boundaries inclusive).
func (s *ScanCounter) Count(r geom.Rect) int { return s.tab.CountIn(r) }

// KDTree is a static k-d tree over the rows of a table, with per-node
// subtree counts and bounding boxes for fast orthogonal range counting.
//
// It indexes the table in place. It keeps the table's column slices and an
// int32 permutation of the row ids in tree order, so that every node's rows
// are one run of the permutation. The nodes are int32 ranges of it in
// pre-order, and their boxes sit in one []float64.
type KDTree struct {
	cols   [][]float64 // the table's columns, as long as the table was at the build
	perm   []int32     // row ids in tree order
	nodes  []kdNode    // in pre-order: nodes[0] is the root
	boxes  []float64   // node i's box: dims lows from 2*dims*i, then dims highs
	bounds geom.Rect
}

// kdNode covers perm[start:end]. A leaf has right < 0; an internal node's
// left child is the node after it and its right child is nodes[right].
type kdNode struct {
	start, end, right int32
}

// leafSize is the bucket size below which nodes store points directly.
// Chosen so the per-node overhead stays small while leaf scans remain cheap.
const leafSize = 32

// sampleSize is how many of a node's rows choose its split from: the axis
// is the dimension the sample spans widest, the pivot the sample's median.
const sampleSize = 63

// smallSplit is the node size up to which quickselect splits at the exact
// median directly: it costs less there than sorting a sample.
const smallSplit = 4 * sampleSize

// BuildKDTree indexes all rows of tab. The tree reads tab's columns in place
// and copies no values: rows appended to tab afterwards are not indexed, and
// no value of tab may be overwritten while the tree is in use.
func BuildKDTree(tab *dataset.Table) (*KDTree, error) {
	n := tab.Len()
	if n == 0 {
		return nil, fmt.Errorf("index: cannot index an empty table")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d rows exceed the tree's int32 row ids", n)
	}
	dims := tab.Dims()
	t := &KDTree{cols: make([][]float64, dims), perm: make([]int32, n)}
	for d := range t.cols {
		t.cols[d] = tab.Column(d)[:n:n]
	}
	for i := range t.perm {
		t.perm[i] = int32(i)
	}
	// A tree split at exact medians has about 4n/leafSize nodes.
	t.nodes = make([]kdNode, 0, 4*n/leafSize+1)
	t.boxes = make([]float64, 0, cap(t.nodes)*2*dims)
	b := &builder{KDTree: t, rows: make([]int32, sampleSize), sample: make([]float64, sampleSize)}
	b.build(0, n, 0)
	lo, hi := t.box(0)
	t.bounds = geom.Rect{Lo: slices.Clone(lo), Hi: slices.Clone(hi)}
	return t, nil
}

// builder holds the working buffers of one BuildKDTree.
type builder struct {
	*KDTree
	rows   []int32   // split's sampled rows
	sample []float64 // split's sampled axis values
}

// build appends the subtree over positions [start, end) of the permutation
// in pre-order and returns its id. The node's box is filled once its subtree
// is built: from the rows of a leaf, and as the union of an internal node's
// children's boxes.
func (b *builder) build(start, end, depth int) int32 {
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, kdNode{start: int32(start), end: int32(end), right: -1})
	b.boxes = slices.Grow(b.boxes, 2*b.dims())[:len(b.boxes)+2*b.dims()]
	if end-start <= leafSize {
		lo, hi := b.box(id)
		rows := b.perm[start:end]
		for d, c := range b.cols {
			lo[d], hi[d] = c[rows[0]], c[rows[0]]
			for _, r := range rows[1:] {
				lo[d], hi[d] = min(lo[d], c[r]), max(hi[d], c[r])
			}
		}
		return id
	}
	mid := b.split(start, end, depth)
	b.build(start, mid, depth+1)
	right := b.build(mid, end, depth+1)
	b.nodes[id].right = right
	lo, hi := b.box(id)
	llo, lhi := b.box(id + 1)
	rlo, rhi := b.box(right)
	for d := range lo {
		lo[d], hi[d] = min(llo[d], rlo[d]), max(lhi[d], rhi[d])
	}
	return id
}

// split reorders positions [start, end) into two runs of at least a quarter
// of them each, every row of the first at most every row of the second on
// one axis, and returns where the second begins. The axis is the dimension
// a strided sample of the rows spans widest (the depth-cycled one when the
// sample spans none). One partition pass at the sample's median splits the
// rows; quickselect splits them at their exact median instead when either
// side would get under a quarter of them, and on nodes of at most
// smallSplit rows.
func (b *builder) split(start, end, depth int) int {
	n := end - start
	s := min(n, sampleSize)
	rows := b.rows[:s]
	for k := range rows {
		rows[k] = b.perm[start+k*n/s]
	}
	// Tables hold no NaN, and -0 and +0 give the same spread whichever is
	// kept, so plain comparisons find the extremes.
	axis, widest := depth%b.dims(), 0.0
	for d, c := range b.cols {
		lo := c[rows[0]]
		hi := lo
		for _, r := range rows[1:] {
			if v := c[r]; v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		if w := hi - lo; w > widest {
			axis, widest = d, w
		}
	}
	mid := start + n/2
	if n > smallSplit {
		sample, c := b.sample[:s], b.cols[axis]
		for k, r := range rows {
			sample[k] = c[r]
		}
		slices.Sort(sample)
		if m := b.partition(start, end, axis, sample[s/2]); min(m-start, end-m) >= n/4 {
			return m
		}
	}
	b.nthElement(start, end, mid, axis)
	return mid
}

// dims returns the number of indexed columns.
func (t *KDTree) dims() int { return len(t.cols) }

// box returns node id's low and high corners.
func (t *KDTree) box(id int32) (lo, hi []float64) {
	dims := t.dims()
	k := 2 * dims * int(id)
	return t.boxes[k : k+dims : k+dims], t.boxes[k+dims : k+2*dims : k+2*dims]
}

// partition moves the rows of positions [start, end) whose axis value is
// below pivot before the others and returns where the others begin.
func (t *KDTree) partition(start, end, axis int, pivot float64) int {
	c, p := t.cols[axis], t.perm
	i, j := start, end-1
	for {
		for i <= j && c[p[i]] < pivot {
			i++
		}
		for i <= j && !(c[p[j]] < pivot) {
			j--
		}
		if i >= j {
			return i
		}
		p[i], p[j] = p[j], p[i]
		i, j = i+1, j-1
	}
}

// nthElement partially sorts positions [start, end) so that position k
// holds the row with the (k-start)-th smallest axis value, with smaller
// values before it and larger after (quickselect).
func (t *KDTree) nthElement(start, end, k, axis int) {
	c, p := t.cols[axis], t.perm
	at := func(i int) float64 { return c[p[i]] }
	lo, hi := start, end-1
	for lo < hi {
		// Median-of-three pivot for resilience on sorted inputs.
		mid := lo + (hi-lo)/2
		if at(mid) < at(lo) {
			p[mid], p[lo] = p[lo], p[mid]
		}
		if at(hi) < at(lo) {
			p[hi], p[lo] = p[lo], p[hi]
		}
		if at(hi) < at(mid) {
			p[hi], p[mid] = p[mid], p[hi]
		}
		pivot := at(mid)
		i, j := lo, hi
		for i <= j {
			for at(i) < pivot {
				i++
			}
			for at(j) > pivot {
				j--
			}
			if i <= j {
				p[i], p[j] = p[j], p[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Count returns the exact number of indexed points inside r (boundaries
// inclusive); 0 when r's dimensionality differs from the tree's. It does
// not allocate.
func (t *KDTree) Count(r geom.Rect) int {
	if r.Dims() != t.dims() {
		return 0
	}
	return t.count(0, r.Lo, r.Hi)
}

func (t *KDTree) count(id int32, lo, hi []float64) int {
	blo, bhi := t.box(id)
	inside := true
	for d := range blo {
		if hi[d] < blo[d] || lo[d] > bhi[d] {
			return 0
		}
		if lo[d] > blo[d] || hi[d] < bhi[d] {
			inside = false
		}
	}
	n := t.nodes[id]
	if inside {
		return int(n.end - n.start)
	}
	if n.right < 0 {
		c := 0
		// Slicing lo and hi to the column count lets the compiler drop
		// their bounds checks from the scan.
		cols := t.cols
		lo, hi := lo[:len(cols)], hi[:len(cols)]
	rows:
		for _, p := range t.perm[n.start:n.end] {
			for d, col := range cols {
				if v := col[p]; v < lo[d] || v > hi[d] {
					continue rows
				}
			}
			c++
		}
		return c
	}
	return t.count(id+1, lo, hi) + t.count(n.right, lo, hi)
}

// Total returns the number of indexed points.
func (t *KDTree) Total() int { return len(t.perm) }

// Bounds returns the bounding box of the indexed points.
func (t *KDTree) Bounds() geom.Rect { return t.bounds }

// Depth returns the height of the tree (root = 1). Exposed for diagnostics.
func (t *KDTree) Depth() int { return t.depth(0) }

func (t *KDTree) depth(id int32) int {
	n := t.nodes[id]
	if n.right < 0 {
		return 1
	}
	return 1 + max(t.depth(id+1), t.depth(n.right))
}

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
type KDTree struct {
	dims   int
	points []geom.Point // row-major copy of the table, permuted in place
	nodes  []kdNode
	root   int
	bounds geom.Rect
}

type kdNode struct {
	// Leaf nodes hold points[start:end]; internal nodes split on axis at
	// value split with children left/right.
	box         geom.Rect
	start, end  int
	left, right int // -1 for leaves
	axis        int
	split       float64
}

// leafSize is the bucket size below which nodes store points directly.
// Chosen so the per-node overhead stays small while leaf scans remain cheap.
const leafSize = 32

// BuildKDTree indexes all rows of tab. The table contents are copied, so the
// index remains valid if the table grows afterwards (the new rows are simply
// not indexed).
func BuildKDTree(tab *dataset.Table) (*KDTree, error) {
	n := tab.Len()
	if n == 0 {
		return nil, fmt.Errorf("index: cannot index an empty table")
	}
	t := &KDTree{dims: tab.Dims(), points: make([]geom.Point, n)}
	flat := make([]float64, n*t.dims)
	for i := 0; i < n; i++ {
		p := flat[i*t.dims : (i+1)*t.dims]
		tab.Row(i, p)
		t.points[i] = p
	}
	t.nodes = make([]kdNode, 0, 2*n/leafSize+1)
	t.root = t.build(0, n, 0)
	t.bounds = t.nodes[t.root].box
	return t, nil
}

// build constructs the subtree over points[start:end) and returns its node id.
func (t *KDTree) build(start, end, depth int) int {
	box, _ := geom.BoundingRect(t.points[start:end])
	id := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{box: box, start: start, end: end, left: -1, right: -1})
	if end-start <= leafSize {
		return id
	}
	// Split on the widest dimension of the node's box; fall back to the
	// depth-cycled axis when the box is degenerate.
	axis := 0
	widest := -1.0
	for d := 0; d < t.dims; d++ {
		if s := box.Side(d); s > widest {
			widest, axis = s, d
		}
	}
	if widest == 0 {
		axis = depth % t.dims
	}
	mid := (start + end) / 2
	nthElement(t.points[start:end], mid-start, axis)
	split := t.points[mid][axis]
	left := t.build(start, mid, depth+1)
	right := t.build(mid, end, depth+1)
	n := &t.nodes[id]
	n.left, n.right = left, right
	n.axis, n.split = axis, split
	return id
}

// nthElement partially sorts pts so that pts[k] is the k-th smallest by the
// given axis, with smaller elements before it and larger after (quickselect).
func nthElement(pts []geom.Point, k, axis int) {
	lo, hi := 0, len(pts)-1
	for lo < hi {
		// Median-of-three pivot for resilience on sorted inputs.
		mid := lo + (hi-lo)/2
		if pts[mid][axis] < pts[lo][axis] {
			pts[mid], pts[lo] = pts[lo], pts[mid]
		}
		if pts[hi][axis] < pts[lo][axis] {
			pts[hi], pts[lo] = pts[lo], pts[hi]
		}
		if pts[hi][axis] < pts[mid][axis] {
			pts[hi], pts[mid] = pts[mid], pts[hi]
		}
		pivot := pts[mid][axis]
		i, j := lo, hi
		for i <= j {
			for pts[i][axis] < pivot {
				i++
			}
			for pts[j][axis] > pivot {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
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
// inclusive); 0 when r's dimensionality differs from the tree's.
func (t *KDTree) Count(r geom.Rect) int {
	if r.Dims() != t.dims {
		return 0
	}
	return t.count(t.root, r)
}

func (t *KDTree) count(id int, r geom.Rect) int {
	n := &t.nodes[id]
	if !r.Intersects(n.box) {
		return 0
	}
	if r.Contains(n.box) {
		return n.end - n.start
	}
	if n.left < 0 {
		c := 0
		for _, p := range t.points[n.start:n.end] {
			if r.ContainsPoint(p) {
				c++
			}
		}
		return c
	}
	return t.count(n.left, r) + t.count(n.right, r)
}

// Total returns the number of indexed points.
func (t *KDTree) Total() int { return len(t.points) }

// Bounds returns the bounding box of the indexed points.
func (t *KDTree) Bounds() geom.Rect { return t.bounds }

// Collect returns the indexed points inside r. Used by the clustering
// pipeline to materialize cluster contents; the returned points alias the
// tree's storage and must not be modified.
func (t *KDTree) Collect(r geom.Rect) []geom.Point {
	var out []geom.Point
	t.collect(t.root, r, &out)
	return out
}

func (t *KDTree) collect(id int, r geom.Rect, out *[]geom.Point) {
	n := &t.nodes[id]
	if !r.Intersects(n.box) {
		return
	}
	if r.Contains(n.box) {
		*out = append(*out, t.points[n.start:n.end]...)
		return
	}
	if n.left < 0 {
		for _, p := range t.points[n.start:n.end] {
			if r.ContainsPoint(p) {
				*out = append(*out, p)
			}
		}
		return
	}
	t.collect(n.left, r, out)
	t.collect(n.right, r, out)
}

// Depth returns the height of the tree (root = 1). Exposed for diagnostics.
func (t *KDTree) Depth() int { return t.depth(t.root) }

func (t *KDTree) depth(id int) int {
	n := &t.nodes[id]
	if n.left < 0 {
		return 1
	}
	l, r := t.depth(n.left), t.depth(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// verifyPartition reports whether quickselect left the k-th point correctly
// positioned along axis; used by the package tests.
func verifyPartition(pts []geom.Point, k, axis int) bool {
	for i := 0; i < k; i++ {
		if pts[i][axis] > pts[k][axis] {
			return false
		}
	}
	for i := k + 1; i < len(pts); i++ {
		if pts[i][axis] < pts[k][axis] {
			return false
		}
	}
	return true
}

// Package sthole implements the STHoles multidimensional self-tuning
// histogram of Bruno, Chaudhuri and Gravano (SIGMOD 2001), the data
// structure the paper under reproduction builds on.
//
// An STHoles histogram partitions the data space into a tree of rectangular
// buckets. Each bucket b carries a frequency n(b): the number of tuples that
// fall into b's box but not into any of its children ("holes"). Cardinality
// estimation uses the uniformity assumption within each bucket's own region
// (Eq. 1 of the paper). The histogram refines itself from query feedback by
// drilling new holes (drill.go) and stays within its bucket budget by
// merging similar buckets (merge.go).
//
// Budget convention: following the paper ("when we say that the bucket limit
// is one bucket we mean it is one bucket plus this root"), MaxBuckets counts
// non-root buckets; the root that spans the whole data space is always
// present and free.
package sthole

import (
	"fmt"
	"math"

	"sthist/internal/geom"
)

// Bucket is a node of the STHoles bucket tree.
type Bucket struct {
	box      geom.Rect
	freq     float64 // tuples in box excluding children ("own" tuples)
	parent   *Bucket
	children []*Bucket
	seq      uint64 // creation order, tie-breaker for merge scheduling
	gen      uint64 // child-set generation: bumped by every change to children
}

// Box returns the bucket's bounding box.
func (b *Bucket) Box() geom.Rect { return b.box }

// Freq returns the bucket's own tuple count (excluding children).
func (b *Bucket) Freq() float64 { return b.freq }

// Parent returns the bucket's parent, or nil for the root.
func (b *Bucket) Parent() *Bucket { return b.parent }

// Children returns the bucket's children. The slice must not be modified.
func (b *Bucket) Children() []*Bucket { return b.children }

// ownVolume returns the volume of the bucket's own region: its box minus the
// boxes of its children.
func (b *Bucket) ownVolume() float64 {
	v := b.box.Volume()
	for _, c := range b.children {
		v -= c.box.Volume()
	}
	if v < 0 {
		// Guard against floating-point drift; children are disjoint and
		// contained, so own volume is mathematically >= 0.
		v = 0
	}
	return v
}

// subtreeFreq returns the total tuples stored in b's subtree.
func (b *Bucket) subtreeFreq() float64 {
	total := b.freq
	for _, c := range b.children {
		total += c.subtreeFreq()
	}
	return total
}

// subtreeSize returns the number of buckets in b's subtree, including b.
func (b *Bucket) subtreeSize() int {
	n := 1
	for _, c := range b.children {
		n += c.subtreeSize()
	}
	return n
}

// detach removes child c from b.children. It panics if c is not a child —
// that would mean the tree is corrupted.
func (b *Bucket) detach(c *Bucket) {
	for i, ch := range b.children {
		if ch == c {
			b.children = append(b.children[:i], b.children[i+1:]...)
			b.gen++
			c.parent = nil
			return
		}
	}
	panic("sthole: detach of non-child bucket")
}

// attach adds c as a child of b.
func (b *Bucket) attach(c *Bucket) {
	c.parent = b
	b.children = append(b.children, c)
	b.gen++
}

// Histogram is an STHoles histogram.
type Histogram struct {
	root       *Bucket
	maxBuckets int // budget, excluding the root
	count      int // live non-root buckets
	dims       int
	frozen     bool // when true, Drill is a no-op (Fig. 17 experiment)

	// merge bookkeeping (merge.go): cached penalties, the per-parent sibling
	// pair geometry behind them, the buckets whose entries must be
	// recomputed before the next merge selection, the lazy-deletion
	// candidate heap over the cache entries, and the bucket creation counter
	// behind the deterministic tie-break order.
	mergeCache map[*Bucket]*parentMergeEntry
	sibCache   map[*Bucket]*siblingMergeEntry
	geomCache  map[*Bucket]*sibGeom
	dirty      map[*Bucket]struct{}
	merges     candidateHeap
	seqCounter uint64

	// crossCheck makes performBestMerge verify every heap-scheduled merge
	// selection against the naive full-scan reference (slow.go); the first
	// divergence is recorded in crossCheckErr. Used by the equivalence tests.
	crossCheck    bool
	crossCheckErr error

	// scratch is reused by Drill for its pre-drill snapshot to avoid one
	// O(buckets) allocation per query. qcScratch and candScratch are the
	// reusable rectangles of the drill hot path; boxScratch and partScratch
	// back the sibling-merge box extension (merge.go).
	scratch       []*Bucket
	qcScratch     geom.Rect
	candScratch   geom.Rect
	boxScratch    geom.Rect
	partScratch   []*Bucket
	centerScratch []float64 // flat k×dims center buffer for appendSiblingPairs
	volScratch    []float64 // children's own volumes in bestSiblingMerge

	// Flattened per-parent child geometry (per-dim intervals and box
	// volumes), shared by every pair evaluation over one parent so the
	// sibling scan reads contiguous arrays instead of chasing bucket
	// pointers. The arrays are valid iff they were built for the same
	// parent at its current child-set generation (Bucket.gen).
	sibArrParent   *Bucket
	sibArrGen      uint64
	sibLo, sibHi   []float64 // dims×k, per-dim contiguous: sibLo[d*k+i]
	sibVol         []float64
	partIdxScratch []int

	// mergeObs, when non-nil, receives one callback per executed merge
	// (merge.go). Not copied by Clone and not serialized.
	mergeObs MergeObserver

	// Stats accumulates maintenance counters for the experiments.
	Stats Stats
}

// Stats counts maintenance events for diagnostics and the experiments in
// §5.3 (e.g. how many merges a subspace bucket survives).
type Stats struct {
	Queries            int // feedback queries processed
	Drills             int // holes drilled
	ParentChildMerges  int
	SiblingMerges      int
	SkippedExactDrills int // candidates skipped because the estimate was already exact
}

// New creates an empty histogram over the given domain with the given budget
// of non-root buckets. The root bucket spans the domain and initially holds
// totalTuples tuples (pass 0 if unknown; the first feedback query that spans
// the domain will correct it).
func New(domain geom.Rect, maxBuckets int, totalTuples float64) (*Histogram, error) {
	if maxBuckets < 1 {
		return nil, fmt.Errorf("sthole: bucket budget must be >= 1, got %d", maxBuckets)
	}
	if totalTuples < 0 || math.IsNaN(totalTuples) {
		return nil, fmt.Errorf("sthole: invalid total tuple count %g", totalTuples)
	}
	for d := range domain.Lo {
		if math.IsInf(domain.Lo[d], 0) || math.IsInf(domain.Hi[d], 0) {
			return nil, fmt.Errorf("sthole: domain %v has an infinite bound on dimension %d", domain, d)
		}
	}
	// Finite bounds can still span a volume that overflows float64; every
	// estimate would then divide by +Inf or NaN.
	switch v := domain.Volume(); {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return nil, fmt.Errorf("sthole: domain %v has volume %g, which is not finite", domain, v)
	case v <= 0:
		return nil, fmt.Errorf("sthole: domain %v has zero volume", domain)
	}
	h := &Histogram{
		root:       &Bucket{box: domain.Clone(), freq: totalTuples}, // seq 0
		maxBuckets: maxBuckets,
		dims:       domain.Dims(),
		seqCounter: 1,
	}
	h.resetMergeState()
	return h, nil
}

// nextSeq returns a fresh bucket sequence number.
func (h *Histogram) nextSeq() uint64 {
	s := h.seqCounter
	h.seqCounter++
	return s
}

// resetMergeState rebuilds the merge scheduling state from the bucket tree:
// fresh caches, an empty candidate heap, and every bucket marked dirty so the
// next merge selection recomputes all candidates. Called when a tree is
// (re)built wholesale (New, Clone, UnmarshalJSON) or a snapshot is first
// drilled. Sequence numbers are part of the tree and survive: Clone,
// Snapshot and the JSON form carry them, so a copy breaks equal-penalty ties
// exactly as the tree it was taken from.
func (h *Histogram) resetMergeState() {
	h.mergeCache = make(map[*Bucket]*parentMergeEntry)
	h.sibCache = make(map[*Bucket]*siblingMergeEntry)
	h.geomCache = make(map[*Bucket]*sibGeom)
	h.dirty = make(map[*Bucket]struct{})
	h.merges = h.merges[:0]
	h.sibArrParent = nil // flattened sibling arrays may describe a stale tree
	var walk func(b *Bucket)
	walk = func(b *Bucket) {
		h.dirty[b] = struct{}{}
		for _, c := range b.children {
			walk(c)
		}
	}
	walk(h.root)
}

// MustNew is New that panics on error, for tests and generators.
func MustNew(domain geom.Rect, maxBuckets int, totalTuples float64) *Histogram {
	h, err := New(domain, maxBuckets, totalTuples)
	if err != nil {
		panic(err)
	}
	return h
}

// Root returns the root bucket.
func (h *Histogram) Root() *Bucket { return h.root }

// Dims returns the dimensionality of the histogram.
func (h *Histogram) Dims() int { return h.dims }

// BucketCount returns the number of non-root buckets currently held.
func (h *Histogram) BucketCount() int { return h.count }

// MaxBuckets returns the non-root bucket budget.
func (h *Histogram) MaxBuckets() int { return h.maxBuckets }

// TotalTuples returns the tuple count currently stored across all buckets.
func (h *Histogram) TotalTuples() float64 { return h.root.subtreeFreq() }

// Depth returns the maximum depth of the bucket tree (0 for a bare root).
// Tree depth bounds both the estimation descent and the drill candidate
// scan, so it is the structural health number the telemetry plane exports.
func (h *Histogram) Depth() int { return subtreeDepth(h.root) }

func subtreeDepth(b *Bucket) int {
	max := 0
	for _, c := range b.children {
		if d := subtreeDepth(c) + 1; d > max {
			max = d
		}
	}
	return max
}

// SetFrozen stops (true) or resumes (false) self-tuning: while frozen, Drill
// records nothing. Used by the Fig. 17 experiment, which cuts off learning
// after the training workload.
func (h *Histogram) SetFrozen(frozen bool) { h.frozen = frozen }

// Frozen reports whether self-tuning is disabled.
func (h *Histogram) Frozen() bool { return h.frozen }

// Estimate returns the estimated number of tuples in query rectangle q using
// the uniformity assumption (Eq. 1):
//
//	est(q) = sum over buckets b of n(b) * vol(q ∩ own(b)) / vol(own(b))
//
// Buckets with zero own volume contribute their full frequency when q covers
// their box (point-mass semantics) and nothing otherwise. Estimate does not
// allocate (TestEstimateZeroAllocs pins this).
func (h *Histogram) Estimate(q geom.Rect) float64 {
	if q.Dims() != h.dims {
		return 0
	}
	return estimateBucket(h.root, q)
}

// estimateBucket evaluates Eq. 1 over b's subtree by recursive descent.
// Child boxes are contained in their parent's box, so a subtree whose root
// box misses the query contributes nothing and is pruned without visiting
// it: on a trained tree the descent touches only the buckets overlapping q
// instead of all B buckets. The pruned terms are exact zeros, so the result
// is bit-identical to the naive full walk (estimateSlow in slow.go). It
// does not allocate (TestEstimateZeroAllocs pins this).
func estimateBucket(b *Bucket, q geom.Rect) float64 {
	interBox := b.box.IntersectionVolume(q)
	if interBox <= 0 {
		// q misses the whole subtree.
		if b.box.Intersects(q) {
			// Zero-volume overlap (shared boundary) or degenerate bucket box.
			if q.Contains(b.box) {
				return b.subtreeFreq()
			}
		}
		return 0
	}
	est := 0.0
	interOwn := interBox
	ownVol := b.box.Volume()
	for _, c := range b.children {
		ownVol -= c.box.Volume()
		iv := c.box.IntersectionVolume(q)
		if iv > 0 {
			interOwn -= iv
			est += estimateBucket(c, q)
		} else if c.box.Intersects(q) {
			// Zero-volume overlap: only the point-mass case inside the child
			// can contribute.
			est += estimateBucket(c, q)
		}
	}
	if interOwn < 0 {
		interOwn = 0
	}
	if ownVol > 0 {
		est += b.freq * interOwn / ownVol
	} else if q.Contains(b.box) {
		est += b.freq
	}
	return est
}

// Buckets returns all buckets in depth-first pre-order, root first. The
// returned slice is a snapshot; later drills/merges do not affect it.
func (h *Histogram) Buckets() []*Bucket {
	return h.appendBuckets(make([]*Bucket, 0, h.count+1))
}

// appendBuckets appends the pre-order bucket walk to dst.
func (h *Histogram) appendBuckets(dst []*Bucket) []*Bucket {
	return appendSubtree(dst, h.root)
}

// appendSubtree appends b's subtree to dst in pre-order. A plain recursive
// function (no closure) so the drill hot path stays allocation-free.
func appendSubtree(dst []*Bucket, b *Bucket) []*Bucket {
	dst = append(dst, b)
	for _, c := range b.children {
		dst = appendSubtree(dst, c)
	}
	return dst
}

// appendIntersecting appends, in pre-order, the buckets of b's subtree whose
// boxes share positive volume with q. Because every child box is contained
// in its parent's box, a subtree whose root misses q contains no bucket that
// intersects q and is pruned wholesale — this is what makes Drill's
// candidate collection near-logarithmic on trained trees instead of O(B).
func appendIntersecting(dst []*Bucket, b *Bucket, q geom.Rect) []*Bucket {
	if !b.box.IntersectsOpen(q) {
		return dst
	}
	dst = append(dst, b)
	for _, c := range b.children {
		dst = appendIntersecting(dst, c, q)
	}
	return dst
}

// inTree reports whether b is still reachable from the root. Drilling uses
// this to skip buckets that a concurrent merge removed.
func (h *Histogram) inTree(b *Bucket) bool {
	for x := b; x != nil; x = x.parent {
		if x == h.root {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants of the bucket tree and returns
// an error describing the first violation found:
//
//   - every child box is contained in its parent's box,
//   - sibling boxes have pairwise disjoint interiors,
//   - frequencies are non-negative and finite,
//   - the cached bucket count matches the tree,
//   - the budget is respected,
//   - the merge scheduling state covers the tree: every bucket that needs a
//     merge-candidate entry either has a cached one backed by a live heap
//     item, or is queued in the dirty set for recomputation.
func (h *Histogram) Validate() error {
	seen := 0
	var walk func(b *Bucket) error
	walk = func(b *Bucket) error {
		if b != h.root {
			seen++
		}
		if b.freq < 0 || math.IsNaN(b.freq) || math.IsInf(b.freq, 0) {
			return fmt.Errorf("sthole: bucket %v has invalid frequency %g", b.box, b.freq)
		}
		for i, c := range b.children {
			if c.parent != b {
				return fmt.Errorf("sthole: bucket %v has broken parent pointer", c.box)
			}
			if !b.box.Contains(c.box) {
				return fmt.Errorf("sthole: child %v escapes parent %v", c.box, b.box)
			}
			for _, d := range b.children[i+1:] {
				if c.box.IntersectsOpen(d.box) {
					return fmt.Errorf("sthole: siblings %v and %v overlap", c.box, d.box)
				}
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(h.root); err != nil {
		return err
	}
	if seen != h.count {
		return fmt.Errorf("sthole: bucket count cache %d != tree count %d", h.count, seen)
	}
	if h.count > h.maxBuckets {
		return fmt.Errorf("sthole: bucket count %d exceeds budget %d", h.count, h.maxBuckets)
	}
	return h.validateMergeState()
}

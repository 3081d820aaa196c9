package sthole

import (
	"math"
	"math/rand"
	"testing"

	"sthist/internal/geom"
)

// density returns the histogram's density function at point p: the frequency
// of the deepest bucket containing p divided by that bucket's own volume.
// This is the integrand of the merge penalty (Eq. 2) and of the absolute
// error metric (Eq. 4).
func density(h *Histogram, p geom.Point) float64 {
	b := h.root
	if !b.box.ContainsPoint(p) {
		return 0
	}
descend:
	for {
		for _, c := range b.children {
			if c.box.ContainsPoint(p) {
				b = c
				continue descend
			}
		}
		break
	}
	v := b.ownVolume()
	if v <= 0 {
		return 0
	}
	return b.freq / v
}

// mcPenalty Monte-Carlo-integrates |density_before - density_after| over the
// domain: samples points before the merge, records densities, applies the
// merge via apply, then compares.
func mcPenalty(h *Histogram, samples int, seed int64, apply func()) float64 {
	rng := rand.New(rand.NewSource(seed))
	dom := h.root.box
	pts := make([]geom.Point, samples)
	before := make([]float64, samples)
	for i := range pts {
		p := make(geom.Point, dom.Dims())
		for d := range p {
			p[d] = dom.Lo[d] + rng.Float64()*dom.Side(d)
		}
		pts[i] = p
		before[i] = density(h, p)
	}
	apply()
	sum := 0.0
	for i, p := range pts {
		sum += math.Abs(before[i] - density(h, p))
	}
	return sum / float64(samples) * dom.Volume()
}

func TestParentChildPenaltyMatchesIntegral(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 10, 60)
	c := h.addChild(h.root, rect2(2, 2, 6, 6), 40)
	want := parentChildPenalty(h.root, c)
	got := mcPenalty(h, 200000, 1, func() { h.mergeParentChild(h.root, c) })
	if rel := math.Abs(got-want) / want; rel > 0.05 {
		t.Errorf("parent-child penalty: closed form %g vs MC %g (rel %g)", want, got, rel)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParentChildMergePromotesGrandchildren(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 10, 50)
	c := h.addChild(h.root, rect2(1, 1, 8, 8), 30)
	gc := h.addChild(c, rect2(2, 2, 4, 4), 20)
	total := h.TotalTuples()
	h.mergeParentChild(h.root, c)
	if gc.parent != h.root {
		t.Error("grandchild not promoted to root")
	}
	if h.BucketCount() != 1 {
		t.Errorf("BucketCount = %d, want 1", h.BucketCount())
	}
	if math.Abs(h.TotalTuples()-total) > 1e-9 {
		t.Errorf("merge changed total tuples: %g -> %g", total, h.TotalTuples())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSiblingPenaltyMatchesIntegral(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 10, 50)
	b1 := h.addChild(h.root, rect2(1, 1, 3, 3), 30)
	b2 := h.addChild(h.root, rect2(4, 1, 6, 3), 5)
	want := h.siblingPenalty(h.root, b1, b2)
	got := mcPenalty(h, 300000, 2, func() { h.mergeSiblings(h.root, b1, b2) })
	if rel := math.Abs(got-want) / math.Max(want, 1e-9); rel > 0.07 {
		t.Errorf("sibling penalty: closed form %g vs MC %g (rel %g)", want, got, rel)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSiblingMergeExtension(t *testing.T) {
	// Fig. 3: merging b1 and b2 whose enclosing box partially intersects b3
	// must extend the box to swallow b3, which stays as a child of the new
	// bucket.
	h := MustNew(rect2(0, 0, 20, 20), 10, 100)
	b1 := h.addChild(h.root, rect2(1, 1, 4, 4), 10)
	b2 := h.addChild(h.root, rect2(8, 1, 11, 4), 10)
	b3 := h.addChild(h.root, rect2(5, 2, 7, 6), 10) // sticks out above the b1-b2 box
	box, parts := h.extendedSiblingBox(h.root, b1, b2)
	if !box.Contains(b3.box) {
		t.Fatalf("extended box %v does not include b3", box)
	}
	if len(parts) != 3 {
		t.Fatalf("participants = %d, want 3", len(parts))
	}
	total := h.TotalTuples()
	h.mergeSiblings(h.root, b1, b2)
	if h.BucketCount() != 2 { // b123 + b3
		t.Errorf("BucketCount = %d, want 2", h.BucketCount())
	}
	if b3.parent == h.root || b3.parent == nil {
		t.Error("b3 should have been re-parented under the merged bucket")
	}
	if math.Abs(h.TotalTuples()-total) > 1e-9 {
		t.Errorf("merge changed total tuples: %g -> %g", total, h.TotalTuples())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSiblingMergeAdoptsChildrenOfMerged(t *testing.T) {
	h := MustNew(rect2(0, 0, 20, 20), 10, 100)
	b1 := h.addChild(h.root, rect2(1, 1, 4, 4), 10)
	b2 := h.addChild(h.root, rect2(5, 1, 8, 4), 10)
	gc := h.addChild(b1, rect2(2, 2, 3, 3), 5)
	h.mergeSiblings(h.root, b1, b2)
	if gc.parent == nil || gc.parent == h.root {
		t.Error("grandchild of merged sibling lost")
	}
	if !gc.parent.box.Contains(gc.box) {
		t.Error("grandchild escapes adopted parent")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEnforceBudgetPrefersCheapMerge(t *testing.T) {
	// Two buckets with identical density as the root (penalty ~0) and one
	// with wildly different density: the cheap ones must merge first.
	h := MustNew(rect2(0, 0, 10, 10), 2, 92)
	// Root density = 92/(100-4-1-1) ≈ 0.9787.
	dense := h.addChild(h.root, rect2(6, 6, 8, 8), 500) // density 125
	sameA := h.addChild(h.root, rect2(1, 1, 2, 2), 1)   // density 1
	sameB := h.addChild(h.root, rect2(3, 3, 4, 4), 1)   // density 1
	h.enforceBudget()
	if h.BucketCount() != 2 {
		t.Fatalf("BucketCount = %d, want 2", h.BucketCount())
	}
	if !h.inTree(dense) {
		t.Error("the informative dense bucket was merged away")
	}
	_ = sameA
	_ = sameB
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergePreservesTotalTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		h := MustNew(rect2(0, 0, 100, 100), 50, rng.Float64()*1000)
		// Random non-overlapping children via drilling idealized feedback.
		for i := 0; i < 20; i++ {
			c := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
			q := geom.CubeAt(c, 5+rng.Float64()*20, h.root.box)
			h.Drill(q, func(r geom.Rect) float64 { return rng.Float64() * 100 })
		}
		total := h.TotalTuples()
		for h.BucketCount() > 1 {
			h.performBestMerge()
			if err := h.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if math.Abs(h.TotalTuples()-total) > 1e-6*math.Max(1, total) {
			t.Fatalf("trial %d: merges changed totals %g -> %g", trial, total, h.TotalTuples())
		}
	}
}

func TestNearestNeighborSiblingPath(t *testing.T) {
	// More children than exhaustivePairLimit exercises the nearest-neighbor
	// candidate path.
	h := MustNew(rect2(0, 0, 1000, 1000), 100, 1000)
	for i := 0; i < exhaustivePairLimit+8; i++ {
		x := float64(i%8)*120 + 10
		y := float64(i/8)*120 + 10
		h.addChild(h.root, rect2(x, y, x+50, y+50), 10)
	}
	e := h.bestSiblingMerge(h.root)
	if e.b1 == nil {
		t.Fatal("no sibling merge found on the nearest-neighbor path")
	}
	h.mergeSiblings(h.root, e.b1, e.b2)
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

// TestMergeCacheCoherence: every cached merge penalty must equal the freshly
// computed one after arbitrary drill/merge sequences — stale cache entries
// would silently pick wrong merges.
func TestMergeCacheCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dom := rect2(0, 0, 100, 100)
	for trial := 0; trial < 15; trial++ {
		h := MustNew(dom, 6, 1000)
		cl := rect2(rng.Float64()*40, rng.Float64()*40, 60+rng.Float64()*40, 60+rng.Float64()*40)
		count := uniformCluster(cl, 1000)
		for i := 0; i < 60; i++ {
			c := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
			h.Drill(geom.CubeAt(c, 3+rng.Float64()*25, dom), count)
		}
		for _, b := range h.Buckets() {
			if b != h.root {
				if e, ok := h.mergeCache[b]; ok {
					fresh := parentChildPenalty(b.parent, b)
					if math.Abs(e.penalty-fresh) > 1e-9*math.Max(1, fresh) {
						t.Fatalf("trial %d: stale parent-child cache %g vs fresh %g", trial, e.penalty, fresh)
					}
				}
			}
			if e, ok := h.sibCache[b]; ok && e.b1 != nil {
				fresh := h.bestSiblingMergeSlow(b)
				if fresh.b1 == nil || math.Abs(e.penalty-fresh.penalty) > 1e-9*math.Max(1, fresh.penalty) {
					t.Fatalf("trial %d: stale sibling cache %g vs fresh %g", trial, e.penalty, fresh.penalty)
				}
			}
		}
	}
}

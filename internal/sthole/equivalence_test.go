package sthole

import (
	"fmt"
	"math/rand"
	"testing"

	"sthist/internal/geom"
)

// These tests pin the optimized maintenance path (pruned Estimate descent,
// heap-scheduled merge selection, scratch-rectangle drill geometry) to the
// naive reference implementations in slow.go: estimates must be
// bit-identical and the merge schedule must be exactly the same, workload by
// workload.

// randomDomain returns [0,100]^dims.
func randomDomain(dims int) geom.Rect {
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	for d := range hi {
		hi[d] = 100
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// randomQuery returns a random cube inside dom.
func randomQuery(rng *rand.Rand, dom geom.Rect, minSide, maxSide float64) geom.Rect {
	c := make(geom.Point, dom.Dims())
	for d := range c {
		c[d] = dom.Lo[d] + rng.Float64()*dom.Side(d)
	}
	return geom.CubeAt(c, minSide+rng.Float64()*(maxSide-minSide), dom)
}

// randomClusterCount returns idealized uniform-cluster feedback over a
// random sub-box of dom.
func randomClusterCount(rng *rand.Rand, dom geom.Rect) CountFunc {
	lo := make(geom.Point, dom.Dims())
	hi := make(geom.Point, dom.Dims())
	for d := range lo {
		a := rng.Float64() * 60
		lo[d] = a
		hi[d] = a + 10 + rng.Float64()*30
	}
	cl := geom.Rect{Lo: lo, Hi: hi}
	freq := 100 + rng.Float64()*2000
	return uniformCluster(cl, freq)
}

// TestEquivalenceRandomWorkloads drives 500 random drill workloads (2–5
// dims, fixed seed) with merge cross-checking enabled: every heap-scheduled
// merge selection is compared against the full-scan reference as it happens,
// and after each workload the optimized Estimate must agree bit-for-bit
// with the unpruned reference walk on a batch of random queries.
func TestEquivalenceRandomWorkloads(t *testing.T) {
	const workloads = 500
	rng := rand.New(rand.NewSource(2026))
	for w := 0; w < workloads; w++ {
		dims := 2 + w%4 // cycle 2..5 dims deterministically
		dom := randomDomain(dims)
		budget := 2 + rng.Intn(9)
		h := MustNew(dom, budget, 500+rng.Float64()*1000)
		h.crossCheck = true
		count := randomClusterCount(rng, dom)
		queries := 15 + rng.Intn(25)
		for i := 0; i < queries; i++ {
			h.Drill(randomQuery(rng, dom, 5, 50), count)
			if h.crossCheckErr != nil {
				t.Fatalf("workload %d (dims=%d budget=%d) query %d: %v", w, dims, budget, i, h.crossCheckErr)
			}
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("workload %d: %v", w, err)
		}
		for i := 0; i < 20; i++ {
			q := randomQuery(rng, dom, 1, 70)
			fast := h.Estimate(q)
			slow := h.estimateSlow(q)
			if fast != slow {
				t.Fatalf("workload %d query %v: pruned estimate %v != reference %v", w, q, fast, slow)
			}
		}
	}
}

// TestEquivalenceMergeToOneBucket cross-checks the merge schedule while
// collapsing drilled histograms all the way down to a single bucket — the
// regime where every selection matters and the candidate heap churns most.
func TestEquivalenceMergeToOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		dims := 2 + trial%4
		dom := randomDomain(dims)
		h := MustNew(dom, 60, 1000)
		h.crossCheck = true
		count := randomClusterCount(rng, dom)
		for i := 0; i < 30; i++ {
			h.Drill(randomQuery(rng, dom, 5, 40), count)
		}
		for h.BucketCount() > 1 {
			h.performBestMerge()
			if h.crossCheckErr != nil {
				t.Fatalf("trial %d: %v", trial, h.crossCheckErr)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestEquivalenceWideParents cross-checks every merge selection where the
// sibling geometry cache does its work: parents with more than
// exhaustivePairLimit children (the nearest-neighbour pair path), drills
// that land inside a child (its own volume changes, the parent's child set
// and cached geometry stay), and drills at the parent's level, whose child
// filter takes children under the new hole.
func TestEquivalenceWideParents(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	var wide, inside int
	for w := 0; w < 12; w++ {
		dims := 2 + w%2
		dom := randomDomain(dims)
		h := MustNew(dom, 2*exhaustivePairLimit+8, 100000)
		h.crossCheck = true
		count := randomClusterCount(rng, dom)
		for i := 0; i < 300; i++ {
			q := randomQuery(rng, dom, 2, 9)
			if bs := h.Buckets(); i%3 == 2 && len(bs) > 1 {
				q = insideQuery(rng, bs[1+rng.Intn(len(bs)-1)].box)
				inside++
			}
			h.Drill(q, count)
			if h.crossCheckErr != nil {
				t.Fatalf("workload %d (dims=%d) query %d: %v", w, dims, i, h.crossCheckErr)
			}
			if len(h.root.children) > exhaustivePairLimit {
				wide++
			}
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("workload %d: %v", w, err)
		}
	}
	t.Logf("%d rounds with a root over the pair limit, %d drills inside a bucket", wide, inside)
	if wide == 0 {
		t.Fatal("the root never had more than exhaustivePairLimit children; the nearest-neighbour path went untested")
	}
}

// insideQuery returns a random rectangle inside box.
func insideQuery(rng *rand.Rand, box geom.Rect) geom.Rect {
	q := box.Clone()
	for d := range q.Lo {
		a, b := box.Lo[d]+rng.Float64()*box.Side(d), box.Lo[d]+rng.Float64()*box.Side(d)
		q.Lo[d], q.Hi[d] = min(a, b), max(a, b)
	}
	return q
}

// TestDrillSteadyStateZeroAllocs asserts the allocation-free invariant of
// the feedback round: when the feedback source agrees with the histogram
// (every candidate drill is skipped), Drill performs zero heap allocations.
func TestDrillSteadyStateZeroAllocs(t *testing.T) {
	h, dom, _ := trained(100, 400)
	steady := func(r geom.Rect) float64 { return h.Estimate(r) }
	qs := benchQueries(dom, 64, 9)
	for _, q := range qs { // warm up the scratch buffers
		h.Drill(q, steady)
	}
	drills := h.Stats.Drills
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		h.Drill(qs[i%len(qs)], steady)
		i++
	})
	if h.Stats.Drills != drills {
		t.Fatalf("feedback rounds drilled %d new holes; not a steady state", h.Stats.Drills-drills)
	}
	if allocs != 0 {
		t.Errorf("steady-state Drill allocates %g times per round, want 0", allocs)
	}
}

// TestEstimateZeroAllocs asserts the optimizer-facing path never allocates.
func TestEstimateZeroAllocs(t *testing.T) {
	h, dom, _ := trained(100, 400)
	qs := benchQueries(dom, 64, 10)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		h.Estimate(qs[i%len(qs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("Estimate allocates %g times per call, want 0", allocs)
	}
}

// TestHeapStaysCompact guards the lazy-deletion heap against unbounded
// growth: after heavy drill/merge churn the heap must stay within a small
// factor of the live candidate count.
func TestHeapStaysCompact(t *testing.T) {
	h, dom, count := trained(50, 400)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		h.Drill(randomQuery(rng, dom, 30, 130), count)
	}
	live := len(h.mergeCache) + len(h.sibCache)
	if max := 2*live + 64 + live; len(h.merges) > max {
		t.Errorf("candidate heap holds %d items for %d live candidates", len(h.merges), live)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

// TestEstimatePrunesDisjointSubtrees is the regression test for the
// unconditional child recursion: a query overlapping only one child must
// not descend into the disjoint siblings' subtrees.
func TestEstimatePrunesDisjointSubtrees(t *testing.T) {
	h := MustNew(rect2(0, 0, 100, 100), 20, 1000)
	left := h.addChild(h.root, rect2(0, 0, 40, 100), 200)
	right := h.addChild(h.root, rect2(60, 0, 100, 100), 300)
	for i := 0; i < 4; i++ {
		x := float64(i * 10)
		h.addChild(left, rect2(x, 10, x+5, 20), 10)
		h.addChild(right, rect2(62+x, 10, 66+x, 20), 10)
	}
	q := rect2(1, 1, 30, 90) // overlaps left's subtree only
	if fast, slow := h.Estimate(q), h.estimateSlow(q); fast != slow {
		t.Fatalf("pruned estimate %v != reference %v", fast, slow)
	}
	// A query on the shared boundary of a degenerate bucket still sees its
	// point mass.
	hd := MustNew(rect2(0, 0, 10, 10), 5, 0)
	hd.addChild(hd.root, rect2(3, 3, 3, 7), 40)
	for _, q := range []geom.Rect{rect2(0, 0, 10, 10), rect2(3, 0, 10, 10), rect2(0, 0, 3, 10), rect2(4, 0, 10, 10)} {
		if fast, slow := hd.Estimate(q), hd.estimateSlow(q); fast != slow {
			t.Fatalf("degenerate case %v: pruned %v != reference %v", q, fast, slow)
		}
	}
}

// TestMergeScheduleGolden pins one concrete merge schedule end to end, so a
// change in tie-breaking or invalidation is caught even if it is internally
// consistent between the fast and slow paths.
func TestMergeScheduleGolden(t *testing.T) {
	h := MustNew(rect2(0, 0, 100, 100), 50, 1000)
	count := uniformCluster(rect2(20, 20, 60, 60), 1000)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 25; i++ {
		h.Drill(randomQuery(rng, h.Root().Box(), 5, 35), count)
	}
	var schedule []string
	for h.BucketCount() > 0 {
		c := h.selectBestMerge()
		if c.kind == kindParentChild {
			schedule = append(schedule, fmt.Sprintf("pc:%v", c.c.box))
			h.mergeParentChild(c.p, c.c)
		} else {
			schedule = append(schedule, fmt.Sprintf("sib:%v+%v", c.s1.box, c.s2.box))
			h.mergeSiblings(c.p, c.s1, c.s2)
		}
	}
	if len(schedule) == 0 {
		t.Fatal("no merges recorded")
	}
	// Replay the same workload and collapse via the reference selector: the
	// schedules must be identical.
	h2 := MustNew(rect2(0, 0, 100, 100), 50, 1000)
	rng2 := rand.New(rand.NewSource(13))
	for i := 0; i < 25; i++ {
		h2.Drill(randomQuery(rng2, h2.Root().Box(), 5, 35), count)
	}
	for i := 0; h2.BucketCount() > 0; i++ {
		c := h2.bestMergeSlow()
		var step string
		if c.kind == kindParentChild {
			step = fmt.Sprintf("pc:%v", c.c.box)
			h2.mergeParentChild(c.p, c.c)
		} else {
			step = fmt.Sprintf("sib:%v+%v", c.s1.box, c.s2.box)
			h2.mergeSiblings(c.p, c.s1, c.s2)
		}
		if i >= len(schedule) || schedule[i] != step {
			t.Fatalf("merge %d: heap schedule %q, reference %q", i, schedule[i:], step)
		}
	}
}

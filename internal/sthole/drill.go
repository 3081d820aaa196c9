package sthole

import (
	"math"

	"sthist/internal/geom"
)

// CountFunc supplies the exact number of tuples inside a rectangle. During
// simulation this is backed by the range-count index (the stand-in for "the
// query execution engine streamed the result and we counted per-bucket
// intersections", which is how STHoles gathers feedback in a real DBMS).
//
// The rectangle passed to a CountFunc is a scratch buffer that the drill
// loop reuses across calls; implementations must not retain it (Clone it if
// it has to outlive the call).
type CountFunc func(geom.Rect) float64

// Drill refines the histogram with the feedback of one executed query q.
// For every bucket whose box intersects q it computes the candidate hole
// (the intersection, shrunk until it no longer partially overlaps any child
// bucket), asks count for the true tuple count inside the candidate, and
// drills a new hole when the current estimate is off. Afterwards the bucket
// budget is re-established by merging (merge.go).
//
// The pre-drill snapshot is collected by recursive descent that prunes any
// subtree whose box misses q (child boxes are contained in their parent's
// box), and the candidate geometry runs on reusable scratch rectangles: a
// feedback round that drills nothing performs zero heap allocations
// (TestDrillSteadyStateZeroAllocs pins this).
//
// Drill is a no-op while the histogram is frozen.
func (h *Histogram) Drill(q geom.Rect, count CountFunc) {
	if h.frozen || q.Dims() != h.dims {
		return
	}
	if h.mergeCache == nil {
		// Snapshot() copies trees without merge scheduling state; build it on
		// the first drill instead of on every publication.
		h.resetMergeState()
	}
	if !q.IntersectInto(h.root.box, &h.qcScratch) || h.qcScratch.Volume() <= 0 {
		return
	}
	qc := h.qcScratch
	h.Stats.Queries++
	// Work over a pre-drill snapshot: buckets created by this query's own
	// drills must not be drilled again, and buckets removed by merges are
	// skipped via inTree. The scratch buffer is reused across queries, and
	// only subtrees overlapping qc are visited.
	h.scratch = appendIntersecting(h.scratch[:0], h.root, qc)
	for _, b := range h.scratch {
		if !h.inTree(b) {
			continue
		}
		h.drillBucket(b, qc, count)
	}
	// Do not retain bucket pointers beyond the call (they pin merged-away
	// subtrees otherwise).
	for i := range h.scratch {
		h.scratch[i] = nil
	}
	h.enforceBudget()
}

// DrillScalar drills q with scalar feedback: only the count actual of the
// whole query is known, so each candidate hole r is credited the uniform
// share actual · vol(q∩r)/vol(q∩root). Every candidate lies inside the root
// box, so a q reaching past the domain still credits all of actual to the
// part of it the histogram covers. For q inside the root box the divisor is
// vol(q), the same product in the same order. Drill calls count only when
// q∩root has volume, so the divisor is positive. This is the one scalar
// split: the served feedback path, its replay and the drift candidate all
// drill through it.
func (h *Histogram) DrillScalar(q geom.Rect, actual float64) {
	vol := q.IntersectionVolume(h.root.box)
	h.Drill(q, func(r geom.Rect) float64 {
		return actual * q.IntersectionVolume(r) / vol
	})
}

// drillBucket processes the candidate hole of one bucket for query q.
func (h *Histogram) drillBucket(b *Bucket, q geom.Rect, count CountFunc) {
	if !b.box.IntersectInto(q, &h.candScratch) || h.candScratch.Volume() <= 0 {
		return
	}
	cand := h.candScratch
	// Shrink the candidate until no child partially intersects it (children
	// fully inside the candidate are fine: they become children of the new
	// hole). A child that covers the candidate collapses it to zero volume,
	// meaning q's overlap with b lies entirely inside that child and the
	// child's own drill handles it.
	for {
		shrunk := false
		for _, c := range b.children {
			if cand.IntersectsOpen(c.box) && !cand.Contains(c.box) {
				cand.ShrinkInto(c.box, &cand)
				if cand.Volume() <= 0 {
					return
				}
				shrunk = true
			}
		}
		if !shrunk {
			break
		}
	}

	actual := count(cand)
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		// A broken feedback source must not poison the tree; ignore the
		// candidate entirely.
		return
	}
	if actual < 0 {
		actual = 0
	}
	// Skip the drill when the histogram already estimates the candidate to
	// within half a tuple: drilling would spend a bucket without information
	// gain. The candidate lies inside box(b) and sibling interiors are
	// disjoint, so only b's subtree contributes to its estimate — no need to
	// walk the whole tree.
	if est := estimateBucket(b, cand); est-actual < 0.5 && actual-est < 0.5 {
		h.Stats.SkippedExactDrills++
		return
	}
	h.Stats.Drills++

	if cand.Equal(b.box) {
		// The candidate covers the whole bucket: refresh its frequency with
		// exact feedback instead of adding a redundant child.
		childFreq := 0.0
		for _, c := range b.children {
			childFreq += c.subtreeFreq()
		}
		b.freq = actual - childFreq
		if b.freq < 0 {
			b.freq = 0
		}
		h.touch(b)
		return
	}

	// Drill a new hole: move the children of b that lie inside the candidate
	// under the new bucket, then split the frequencies. b's child set is
	// rewritten in place, the kept children and then the hole, instead of
	// by a detach per moved child, so this filter bumps b's generation
	// itself. The candidate is a scratch rectangle, so the new bucket
	// clones it.
	bn := &Bucket{box: cand.Clone(), parent: b, seq: h.nextSeq()}
	movedFreq := 0.0
	kept := b.children[:0]
	for _, c := range b.children {
		if cand.Contains(c.box) {
			movedFreq += c.subtreeFreq()
			bn.attach(c)
		} else {
			kept = append(kept, c)
		}
	}
	b.children = append(kept, bn)
	b.gen++
	bn.freq = actual - movedFreq
	if bn.freq < 0 {
		bn.freq = 0
	}
	b.freq -= bn.freq
	if b.freq < 0 {
		b.freq = 0
	}
	h.count++
	h.touch(b)
	h.touch(bn)
}

package sthole

import (
	"math"

	"sthist/internal/geom"
)

// This file keeps the naive O(B) reference implementations of the two
// maintenance-path decisions that histogram.go/merge.go optimize with
// subtree pruning and the candidate heap. They exist so the equivalence
// tests (and performBestMerge's crossCheck mode) can assert that the fast
// paths are observationally identical — bit-identical estimates, identical
// merge schedules — to the straightforward implementations.

// estimateSlow evaluates Eq. 1 by walking every bucket of the tree,
// recursing into children unconditionally. estimateBucket prunes subtrees
// whose boxes miss the query; the pruned terms are exact zeros, so both
// walks must agree bit-for-bit.
func (h *Histogram) estimateSlow(q geom.Rect) float64 {
	if q.Dims() != h.dims {
		return 0
	}
	return estimateBucketSlow(h.root, q)
}

func estimateBucketSlow(b *Bucket, q geom.Rect) float64 {
	interBox := b.box.IntersectionVolume(q)
	if interBox <= 0 {
		if b.box.Intersects(q) {
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
		interOwn -= c.box.IntersectionVolume(q)
		ownVol -= c.box.Volume()
		est += estimateBucketSlow(c, q)
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

// bestMergeSlow selects the cheapest merge by a full fresh scan: every
// non-root bucket's parent-child penalty and every parent's best sibling
// merge are recomputed from scratch, no caches, pair geometry or heap
// involved, and the minimum is taken under the same strict total order
// (penalty, creation sequence, kind) the heap uses. performBestMerge's
// crossCheck mode compares its heap-scheduled selection against this on
// every merge.
func (h *Histogram) bestMergeSlow() mergeChoice {
	best := mergeChoice{penalty: math.Inf(1)}
	found := false
	better := func(cand mergeChoice) bool {
		if !found {
			return true
		}
		if cand.penalty != best.penalty {
			return cand.penalty < best.penalty
		}
		if cand.seq != best.seq {
			return cand.seq < best.seq
		}
		return cand.kind < best.kind
	}
	var walk func(b *Bucket)
	walk = func(b *Bucket) {
		if b != h.root {
			cand := mergeChoice{kind: kindParentChild, penalty: parentChildPenalty(b.parent, b), seq: b.seq, p: b.parent, c: b}
			if better(cand) {
				best, found = cand, true
			}
		}
		if len(b.children) >= 2 {
			if e := h.bestSiblingMergeSlow(b); e.b1 != nil {
				cand := mergeChoice{kind: kindSibling, penalty: e.penalty, seq: b.seq, p: b, s1: e.b1, s2: e.b2}
				if better(cand) {
					best, found = cand, true
				}
			}
		}
		for _, c := range b.children {
			walk(c)
		}
	}
	walk(h.root)
	if !found {
		panic("sthole: no merge candidate in reference scan")
	}
	return best
}

// bestSiblingMergeSlow is bestSiblingMerge without the geometry cache: it
// lists p's candidate pairs afresh and evaluates each with siblingPenalty.
// The flattened sibling arrays are rebuilt first, so no generation-keyed
// state feeds it: a cache that misses a child-set change diverges from it.
func (h *Histogram) bestSiblingMergeSlow(p *Bucket) *siblingMergeEntry {
	h.sibArrParent = nil
	entry := &siblingMergeEntry{penalty: math.Inf(1)}
	for _, pr := range h.appendSiblingPairs(nil, p) {
		b1, b2 := p.children[pr.i], p.children[pr.j]
		if pen := h.siblingPenalty(p, b1, b2); pen < entry.penalty {
			entry.b1, entry.b2, entry.penalty = b1, b2, pen
		}
	}
	return entry
}

// siblingPenalty evaluates the closed-form penalty of merging siblings b1
// and b2 under parent p from scratch, including the box extension of
// Fig. 3.
func (h *Histogram) siblingPenalty(p, b1, b2 *Bucket) float64 {
	return pairPenalty(p.freq, p.ownVolume(), h.absorbedVolume(p, b1, b2), b1.freq, b1.ownVolume(), b2.freq, b2.ownVolume())
}

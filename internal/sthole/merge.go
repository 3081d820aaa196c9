package sthole

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"sthist/internal/geom"
)

// This file implements STHoles bucket merging (§2.3 of the paper, §4.2.2 of
// Bruno et al.). When drilling pushes the histogram over its budget, the
// merge with the lowest penalty (Eq. 2, evaluated in closed form under the
// uniformity assumption) is applied repeatedly until the budget holds.
//
// Two merge kinds exist:
//
//   - parent-child: the child's tuples are absorbed into the parent and the
//     child's children are promoted.
//   - sibling-sibling: two children of the same parent are replaced by a new
//     bucket covering the minimal rectangle that encloses both, extended
//     until it does not partially intersect any other sibling (Fig. 3);
//     enclosed siblings become children of the new bucket.
//
// Finding the cheapest merge naively costs O(B^2) penalty evaluations per
// merge; even with per-bucket penalty caches a flat rescan costs O(B) per
// merge. The histogram instead schedules candidates on a lazy-deletion
// min-heap:
//
//   - mergeCache caches, per non-root bucket, the penalty of merging it into
//     its parent; sibCache caches, per parent, the best sibling merge among
//     its children. Every computed entry is pushed onto the heap.
//   - geomCache keeps, per parent, the box geometry behind its sibling
//     candidates, keyed by the parent's child-set generation (Bucket.gen),
//     so recomputing a sibCache entry after a frequency change skips the
//     Fig. 3 box extension.
//   - drills and merges invalidate only the entries they affect (touch),
//     deleting them from the caches and queueing the owning buckets in the
//     dirty set. Heap items whose entry pointer no longer matches the cache
//     are stale and discarded on pop — the caches double as the heap's
//     liveness check.
//   - selecting the cheapest merge drains the dirty set (recomputing and
//     re-pushing only the invalidated entries, O(affected) not O(B)) and
//     pops the heap until a live item surfaces: O(log B) amortized.
//
// Ties are broken deterministically by (penalty, bucket creation sequence,
// kind) so the heap schedule is reproducible and bit-identical to the naive
// full-scan reference (slow.go). For parents with very many children the
// sibling search is restricted to each child's nearest sibling by box-center
// distance — with hundreds of siblings the exhaustive pair scan is
// prohibitively slow, and distant pairs produce huge extended boxes whose
// penalties never win anyway.

// parentMergeEntry caches the penalty of merging the key bucket into its
// parent.
type parentMergeEntry struct {
	penalty float64
}

// siblingMergeEntry caches the best sibling-sibling merge among the key
// bucket's children. b1 == nil means no feasible sibling merge exists.
type siblingMergeEntry struct {
	b1, b2  *Bucket
	penalty float64
}

// Merge candidate kinds, in tie-break order.
const (
	kindParentChild = iota
	kindSibling
)

// MergeKind identifies the merge type in observer callbacks.
type MergeKind int

// The two STHoles merge kinds (§2.3).
const (
	MergeParentChild MergeKind = kindParentChild
	MergeSibling     MergeKind = kindSibling
)

// String names the kind for logs and metric labels.
func (k MergeKind) String() string {
	if k == MergeParentChild {
		return "parent-child"
	}
	return "sibling"
}

// MergeObserver receives one callback per executed merge: the kind, the
// penalty (Eq. 2) of the selected candidate, and when applying the merge
// started and how long it took. Callbacks run synchronously inside budget enforcement — on the drill
// path, under whatever lock the caller holds around Drill — so
// implementations must be fast and must not re-enter the histogram. A nil
// observer (the default) adds no work and no allocations to the merge path.
type MergeObserver interface {
	ObserveMerge(kind MergeKind, penalty float64, start time.Time, d time.Duration)
}

// SetMergeObserver installs (or, with nil, removes) the merge observer.
func (h *Histogram) SetMergeObserver(o MergeObserver) { h.mergeObs = o }

// mergeItem is one scheduled candidate on the lazy-deletion heap. bucket is
// the child for parent-child candidates and the parent for sibling
// candidates. pc/sib pin the cache entry the item was created for: the item
// is live iff the cache still holds that exact entry.
type mergeItem struct {
	penalty float64
	seq     uint64
	kind    int
	bucket  *Bucket
	pc      *parentMergeEntry
	sib     *siblingMergeEntry
}

// less orders candidates by (penalty, creation sequence, kind) — a strict
// total order, since a bucket contributes at most one candidate per kind.
func (a mergeItem) less(b mergeItem) bool {
	if a.penalty != b.penalty {
		return a.penalty < b.penalty
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.kind < b.kind
}

// candidateHeap is a container/heap min-heap of merge candidates.
type candidateHeap []mergeItem

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].less(h[j]) }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = mergeItem{} // do not pin buckets/entries via the spare slot
	*h = old[:n-1]
	return it
}

// exhaustivePairLimit is the child count up to which all sibling pairs are
// evaluated; above it, only nearest-neighbor pairs are considered.
const exhaustivePairLimit = 32

// markDirty queues b for candidate recomputation before the next merge
// selection.
func (h *Histogram) markDirty(b *Bucket) {
	h.dirty[b] = struct{}{}
}

// touch invalidates every cached merge penalty that depends on b's frequency
// or children, and queues the affected buckets for recomputation.
func (h *Histogram) touch(b *Bucket) {
	delete(h.mergeCache, b)
	delete(h.sibCache, b)
	h.markDirty(b)
	for _, c := range b.children {
		delete(h.mergeCache, c)
		h.markDirty(c)
	}
	if b.parent != nil {
		delete(h.sibCache, b.parent)
		h.markDirty(b.parent)
		// The parent-child penalties of b's siblings depend on the parent's
		// own volume and frequency, which b's change may have altered
		// (structure changes go through touch(parent) as well), but a pure
		// frequency change of b does not affect them.
	}
}

// forget drops all merge-scheduling state for a bucket leaving the tree.
// Stale heap items are discarded lazily on pop.
func (h *Histogram) forget(b *Bucket) {
	delete(h.mergeCache, b)
	delete(h.sibCache, b)
	delete(h.geomCache, b)
	delete(h.dirty, b)
}

// enforceBudget merges lowest-penalty pairs until the bucket count is within
// budget.
func (h *Histogram) enforceBudget() {
	if h.mergeCache == nil && h.count > h.maxBuckets {
		h.resetMergeState() // snapshot drilled or re-budgeted before any Drill
	}
	for h.count > h.maxBuckets {
		h.performBestMerge()
	}
}

// drainDirty recomputes the missing cache entries of the queued buckets and
// pushes the fresh candidates onto the heap. Entries that survived
// invalidation (still cached) are not recomputed: their heap items are still
// live. Afterwards the heap is compacted if lazy deletion has bloated it.
func (h *Histogram) drainDirty() {
	for b := range h.dirty {
		delete(h.dirty, b)
		//sthlint:ignore determinism inTree only walks parent pointers; no mutation
		if !h.inTree(b) {
			continue
		}
		if b != h.root {
			if _, ok := h.mergeCache[b]; !ok {
				e := &parentMergeEntry{penalty: parentChildPenalty(b.parent, b)}
				h.mergeCache[b] = e
				heap.Push(&h.merges, mergeItem{penalty: e.penalty, seq: b.seq, kind: kindParentChild, bucket: b, pc: e})
			}
		}
		if len(b.children) >= 2 {
			if _, ok := h.sibCache[b]; !ok {
				//sthlint:ignore determinism order-independent: candidates land in a heap whose Less is a strict total order over (penalty, seq, kind)
				e := h.bestSiblingMerge(b)
				h.sibCache[b] = e
				if e.b1 != nil {
					heap.Push(&h.merges, mergeItem{penalty: e.penalty, seq: b.seq, kind: kindSibling, bucket: b, sib: e})
				}
			}
		}
	}
	if live := len(h.mergeCache) + len(h.sibCache); len(h.merges) > 2*live+64 {
		h.compactHeap()
	}
}

// compactHeap drops stale items so lazy deletion cannot grow the heap beyond
// a constant factor of the live candidate count.
func (h *Histogram) compactHeap() {
	kept := h.merges[:0]
	for _, it := range h.merges {
		if h.itemLive(it) {
			kept = append(kept, it)
		}
	}
	for i := len(kept); i < len(h.merges); i++ {
		h.merges[i] = mergeItem{}
	}
	h.merges = kept
	heap.Init(&h.merges)
}

// itemLive reports whether a heap item still represents a cached candidate.
func (h *Histogram) itemLive(it mergeItem) bool {
	switch it.kind {
	case kindParentChild:
		e, ok := h.mergeCache[it.bucket]
		return ok && e == it.pc
	case kindSibling:
		e, ok := h.sibCache[it.bucket]
		return ok && e == it.sib
	}
	return false
}

// mergeChoice describes one selected merge.
type mergeChoice struct {
	kind    int
	penalty float64
	seq     uint64
	p, c    *Bucket // parent-child: merge c into p
	s1, s2  *Bucket // sibling: merge s1 and s2 under p
}

func (a mergeChoice) equal(b mergeChoice) bool {
	return a.kind == b.kind && a.penalty == b.penalty &&
		a.p == b.p && a.c == b.c && a.s1 == b.s1 && a.s2 == b.s2
}

// selectBestMerge returns the cheapest live candidate: drain the dirty set,
// then pop stale items until a live one surfaces. The histogram always has
// at least one candidate while count > 0 (any non-root bucket can merge into
// its parent), so this cannot fail when over budget.
func (h *Histogram) selectBestMerge() mergeChoice {
	h.drainDirty()
	for h.merges.Len() > 0 {
		it := heap.Pop(&h.merges).(mergeItem)
		if !h.itemLive(it) {
			continue
		}
		if it.kind == kindParentChild {
			return mergeChoice{kind: kindParentChild, penalty: it.penalty, seq: it.seq, p: it.bucket.parent, c: it.bucket}
		}
		return mergeChoice{kind: kindSibling, penalty: it.penalty, seq: it.seq, p: it.bucket, s1: it.sib.b1, s2: it.sib.b2}
	}
	panic("sthole: no merge candidate although over budget")
}

// performBestMerge finds and applies the single cheapest merge.
func (h *Histogram) performBestMerge() {
	choice := h.selectBestMerge()
	if h.crossCheck && h.crossCheckErr == nil {
		if slow := h.bestMergeSlow(); !choice.equal(slow) {
			h.crossCheckErr = fmt.Errorf(
				"sthole: heap merge selection (kind=%d penalty=%g seq=%d) diverges from reference (kind=%d penalty=%g seq=%d)",
				choice.kind, choice.penalty, choice.seq, slow.kind, slow.penalty, slow.seq)
		}
	}
	var start time.Time
	if h.mergeObs != nil {
		//sthlint:ignore determinism telemetry timing only; never feeds histogram state
		start = time.Now()
	}
	if choice.kind == kindParentChild {
		h.mergeParentChild(choice.p, choice.c)
	} else {
		h.mergeSiblings(choice.p, choice.s1, choice.s2)
	}
	if h.mergeObs != nil {
		//sthlint:ignore determinism telemetry timing only; never feeds histogram state
		h.mergeObs.ObserveMerge(MergeKind(choice.kind), choice.penalty, start, time.Since(start))
	}
}

// validateMergeState checks that the merge scheduling state covers the tree:
// every non-root bucket has a cached parent-child candidate backed by a live
// heap item or sits in the dirty set, and likewise for the sibling candidate
// of every parent with >= 2 children. A coverage hole would silently exclude
// a candidate from budget enforcement.
func (h *Histogram) validateMergeState() error {
	if h.mergeCache == nil {
		// A Snapshot() carries no merge state at all; it is rebuilt from the
		// tree on the first drill, so there is no coverage to check yet.
		return nil
	}
	onHeap := make(map[*parentMergeEntry]bool)
	sibOnHeap := make(map[*siblingMergeEntry]bool)
	for _, it := range h.merges {
		if it.pc != nil {
			onHeap[it.pc] = true
		}
		if it.sib != nil {
			sibOnHeap[it.sib] = true
		}
	}
	var walk func(b *Bucket) error
	walk = func(b *Bucket) error {
		_, dirty := h.dirty[b]
		if b != h.root {
			if e, ok := h.mergeCache[b]; ok {
				if !onHeap[e] {
					return fmt.Errorf("sthole: cached parent-child candidate of %v missing from heap", b.box)
				}
			} else if !dirty {
				return fmt.Errorf("sthole: bucket %v has neither cached parent-child candidate nor dirty mark", b.box)
			}
		}
		if len(b.children) >= 2 {
			if e, ok := h.sibCache[b]; ok {
				if e.b1 != nil && !sibOnHeap[e] {
					return fmt.Errorf("sthole: cached sibling candidate of %v missing from heap", b.box)
				}
			} else if !dirty {
				return fmt.Errorf("sthole: parent %v has neither cached sibling candidate nor dirty mark", b.box)
			}
		}
		for _, c := range b.children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(h.root)
}

// parentChildPenalty evaluates the closed form of Eq. 2 for merging child c
// into parent p: both own regions adopt the pooled density, so the penalty
// is the absolute redistribution of tuples over the two regions.
func parentChildPenalty(p, c *Bucket) float64 {
	vp, vc := p.ownVolume(), c.ownVolume()
	fp, fc := p.freq, c.freq
	vn := vp + vc
	if vn <= 0 {
		return 0
	}
	dn := (fp + fc) / vn
	return math.Abs(fp-dn*vp) + math.Abs(fc-dn*vc)
}

// sibGeom is the geometry bestSiblingMerge reads for one parent: the sibling
// pairs it considers, in its order, each with the volume of the parent's own
// region the merged bucket would absorb, and the parent's own volume. All of
// it follows from the boxes of the parent and its children, so it holds
// while the child set is unchanged (gen equals the parent's gen). A change
// of a frequency, or below a child, leaves it valid: frequencies and the
// children's own volumes enter only the per-call arithmetic.
type sibGeom struct {
	gen    uint64
	ownVol float64
	pairs  []sibPair
}

// sibPair is one candidate sibling pair: indices into the parent's children
// and the parent-own volume their extended box absorbs (filled in by
// siblingGeometry; appendSiblingPairs leaves it 0).
type sibPair struct {
	i, j int
	vold float64
}

// bestSiblingMerge evaluates sibling pairs among p's children and returns
// the cheapest plan as a cache entry. The pair geometry comes from the
// per-parent cache, so unless p's child set changed this is O(pairs)
// arithmetic plus one own-volume sum per child.
func (h *Histogram) bestSiblingMerge(p *Bucket) *siblingMergeEntry {
	g := h.siblingGeometry(p)
	vols := h.volScratch[:0]
	for _, c := range p.children {
		vols = append(vols, c.ownVolume())
	}
	h.volScratch = vols
	entry := &siblingMergeEntry{penalty: math.Inf(1)}
	for _, pr := range g.pairs {
		b1, b2 := p.children[pr.i], p.children[pr.j]
		if pen := pairPenalty(p.freq, g.ownVol, pr.vold, b1.freq, vols[pr.i], b2.freq, vols[pr.j]); pen < entry.penalty {
			entry.b1, entry.b2, entry.penalty = b1, b2, pen
		}
	}
	return entry
}

// siblingGeometry returns p's cached pair geometry, recomputing it when p's
// child set changed since it was built.
func (h *Histogram) siblingGeometry(p *Bucket) *sibGeom {
	g := h.geomCache[p]
	if g != nil && g.gen == p.gen {
		return g
	}
	if g == nil {
		g = &sibGeom{}
		h.geomCache[p] = g
	}
	g.gen, g.ownVol = p.gen, p.ownVolume()
	g.pairs = h.appendSiblingPairs(g.pairs[:0], p)
	for x := range g.pairs {
		pr := &g.pairs[x]
		pr.vold = h.absorbedVolume(p, p.children[pr.i], p.children[pr.j])
	}
	return g
}

// appendSiblingPairs appends the sibling pairs of p that merge selection
// considers: every pair while p has at most exhaustivePairLimit children,
// otherwise each child with its nearest sibling by box-center distance.
func (h *Histogram) appendSiblingPairs(dst []sibPair, p *Bucket) []sibPair {
	k := len(p.children)
	if k <= exhaustivePairLimit {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				dst = append(dst, sibPair{i: i, j: j})
			}
		}
		return dst
	}
	// Centers go in one flat reusable buffer so the scan is allocation-free
	// and cache-friendly.
	dims := p.box.Dims()
	if cap(h.centerScratch) < k*dims {
		h.centerScratch = make([]float64, k*dims)
	}
	centers := h.centerScratch[:k*dims]
	for i, c := range p.children {
		for t := 0; t < dims; t++ {
			centers[i*dims+t] = (c.box.Lo[t] + c.box.Hi[t]) / 2
		}
	}
	for i := 0; i < k; i++ {
		best := -1
		bestDist := math.Inf(1)
		ci := centers[i*dims : (i+1)*dims]
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			d := 0.0
			cj := centers[j*dims : (j+1)*dims]
			for t := range ci {
				diff := ci[t] - cj[t]
				d += diff * diff
			}
			if d < bestDist {
				bestDist, best = d, j
			}
		}
		// A mutual nearest pair is listed twice; the second copy cannot win
		// (selection keeps the first of equal penalties).
		if best > i {
			dst = append(dst, sibPair{i: i, j: best})
		} else if best >= 0 && best < i {
			dst = append(dst, sibPair{i: best, j: i})
		}
	}
	return dst
}

// absorbedVolume returns the volume of p's own region that merging siblings
// b1 and b2 absorbs: their extended box (Fig. 3) minus the siblings inside
// it. The participants' volumes come from the flattened arrays the box
// extension just built — same values as part.box.Volume(), without the
// pointer chase.
func (h *Histogram) absorbedVolume(p, b1, b2 *Bucket) float64 {
	box, _ := h.extendedSiblingBox(p, b1, b2)
	vold := box.Volume()
	for _, i := range h.partIdxScratch {
		vold -= h.sibVol[i]
	}
	if vold < 0 {
		vold = 0
	}
	return vold
}

// pairPenalty is the closed form of Eq. 2 for merging siblings of frequency
// f1, f2 and own volume v1, v2 into one bucket that also absorbs vold of
// their parent's own region (frequency fp, volume vp).
func pairPenalty(fp, vp, vold, f1, v1, f2, v2 float64) float64 {
	absorbed := 0.0
	if vp > 0 {
		absorbed = fp * vold / vp
	}
	vn := vold + v1 + v2
	fn := f1 + f2 + absorbed
	if vn <= 0 {
		return 0
	}
	dn := fn / vn
	return math.Abs(f1-dn*v1) + math.Abs(f2-dn*v2) + math.Abs(absorbed-dn*vold)
}

// extendedSiblingBox computes the minimal rectangle enclosing b1 and b2,
// repeatedly extended to fully include any sibling it partially intersects
// (Fig. 3), and returns it with the siblings it fully contains. The returned
// rectangle and slice are scratch buffers reused by the next call; callers
// that retain them must copy.
func (h *Histogram) extendedSiblingBox(p, b1, b2 *Bucket) (geom.Rect, []*Bucket) {
	h.buildSibArrays(p)
	children := p.children
	k := len(children)
	dims := p.box.Dims()
	b1.box.EncloseInto(b2.box, &h.boxScratch)
	box := h.boxScratch
	// Each pass classifies every sibling against the current box, growing it
	// on partial overlap; the pass that causes no growth has classified every
	// sibling against the final box, so it doubles as the participant sweep.
	// Classification runs entirely on the flattened per-dim arrays — the
	// same comparisons as Rect.Contains / Rect.IntersectsOpen, without
	// loading the sibling's bucket — and most siblings are rejected by the
	// dim-0 interval test alone (it is implied by both predicates).
	for {
		h.partScratch = h.partScratch[:0]
		h.partIdxScratch = h.partIdxScratch[:0]
		changed := false
		lo0, hi0 := box.Lo[0], box.Hi[0]
		for i := 0; i < k; i++ {
			slo, shi := h.sibLo[i], h.sibHi[i]
			if slo > hi0 || shi < lo0 {
				continue
			}
			contained := slo >= lo0 && shi <= hi0
			iopen := slo < hi0 && shi > lo0
			for d := 1; d < dims && (contained || iopen); d++ {
				slo, shi = h.sibLo[d*k+i], h.sibHi[d*k+i]
				if slo < box.Lo[d] || shi > box.Hi[d] {
					contained = false
				}
				if shi <= box.Lo[d] || slo >= box.Hi[d] {
					iopen = false
				}
			}
			if contained {
				h.partScratch = append(h.partScratch, children[i])
				h.partIdxScratch = append(h.partIdxScratch, i)
			} else if iopen {
				box.EncloseInto(children[i].box, &box)
				lo0, hi0 = box.Lo[0], box.Hi[0]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return box, h.partScratch
}

// buildSibArrays flattens p's children geometry into the histogram's sibling
// scan arrays. The arrays stay valid for repeated pair evaluations over the
// same parent until its child set changes (p.gen).
func (h *Histogram) buildSibArrays(p *Bucket) {
	if h.sibArrParent == p && h.sibArrGen == p.gen {
		return
	}
	k := len(p.children)
	dims := p.box.Dims()
	if cap(h.sibLo) < k*dims {
		h.sibLo = make([]float64, k*dims)
		h.sibHi = make([]float64, k*dims)
	}
	if cap(h.sibVol) < k {
		h.sibVol = make([]float64, k)
	}
	h.sibLo, h.sibHi, h.sibVol = h.sibLo[:k*dims], h.sibHi[:k*dims], h.sibVol[:k]
	for i, s := range p.children {
		for d := 0; d < dims; d++ {
			h.sibLo[d*k+i] = s.box.Lo[d]
			h.sibHi[d*k+i] = s.box.Hi[d]
		}
		h.sibVol[i] = s.box.Volume()
	}
	h.sibArrParent, h.sibArrGen = p, p.gen
}

// mergeParentChild absorbs child c into its parent p: c's tuples join p's
// own region and c's children are promoted.
func (h *Histogram) mergeParentChild(p, c *Bucket) {
	h.Stats.ParentChildMerges++
	p.detach(c)
	for _, gc := range c.children {
		gc.parent = nil // attach resets it; clear to keep invariants obvious
		p.attach(gc)
	}
	c.children = nil
	p.freq += c.freq
	h.count--
	h.forget(c)
	h.touch(p)
}

// mergeSiblings replaces siblings b1 and b2 (children of p) with a new
// bucket covering their extended enclosing box. Siblings fully inside the
// box become children of the new bucket; b1's and b2's children are adopted
// directly.
func (h *Histogram) mergeSiblings(p, b1, b2 *Bucket) {
	h.Stats.SiblingMerges++
	box, participants := h.extendedSiblingBox(p, b1, b2)
	vold := box.Volume()
	for _, part := range participants {
		vold -= part.box.Volume()
	}
	if vold < 0 {
		vold = 0
	}
	vp := p.ownVolume()
	absorbed := 0.0
	if vp > 0 {
		absorbed = p.freq * vold / vp
		if absorbed > p.freq {
			absorbed = p.freq
		}
	}

	bn := &Bucket{box: box.Clone(), freq: b1.freq + b2.freq + absorbed, seq: h.nextSeq()}
	for _, part := range participants {
		p.detach(part)
		if part == b1 || part == b2 {
			for _, gc := range part.children {
				gc.parent = nil
				bn.attach(gc)
			}
			part.children = nil
			h.forget(part)
		} else {
			bn.attach(part)
		}
	}
	p.freq -= absorbed
	if p.freq < 0 {
		p.freq = 0
	}
	p.attach(bn)
	h.count-- // -b1 -b2 +bn
	h.touch(p)
	h.touch(bn)
}

package sthole

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"sthist/internal/geom"
)

// This file provides the introspection the §5.3 experiments need (dumping
// the histogram structure and looking for subspace buckets) plus JSON
// serialization so histograms can be stored and reloaded.

// subspaceTol is the relative tolerance for "spans the full domain": a
// bucket side counts as full-span when it covers at least this fraction of
// the root's extent on that dimension.
const subspaceTol = 0.999

// SubspaceDims returns the 0-based dimensions on which bucket b spans
// (almost) the full domain, i.e. the dimensions the bucket does not use. A
// non-root bucket with at least one such dimension is a subspace bucket.
func (h *Histogram) SubspaceDims(b *Bucket) []int {
	var dims []int
	for d := 0; d < h.dims; d++ {
		rootSide := h.root.box.Side(d)
		if rootSide <= 0 {
			continue
		}
		if b.box.Side(d) >= subspaceTol*rootSide {
			dims = append(dims, d)
		}
	}
	return dims
}

// SubspaceBuckets returns the non-root buckets that span the full domain on
// at least one (but not every) dimension — the "subspace buckets" whose
// survival §5.3 tracks.
func (h *Histogram) SubspaceBuckets() []*Bucket {
	var out []*Bucket
	for _, b := range h.Buckets() {
		if b == h.root {
			continue
		}
		if n := len(h.SubspaceDims(b)); n >= 1 && n < h.dims {
			out = append(out, b)
		}
	}
	return out
}

// Dump writes a human-readable rendering of the bucket tree to w.
func (h *Histogram) Dump(w io.Writer) {
	var walk func(b *Bucket, depth int)
	walk = func(b *Bucket, depth int) {
		fmt.Fprintf(w, "%s%s freq=%.1f\n", strings.Repeat("  ", depth), b.box, b.freq)
		for _, c := range b.children {
			walk(c, depth+1)
		}
	}
	walk(h.root, 0)
}

// bucketJSON is the serialized form of one bucket. Seq is the merge
// tie-break order; histograms saved before it was serialized omit it.
type bucketJSON struct {
	Lo       []float64    `json:"lo"`
	Hi       []float64    `json:"hi"`
	Freq     float64      `json:"freq"`
	Seq      *uint64      `json:"seq,omitempty"`
	Children []bucketJSON `json:"children,omitempty"`
}

// histogramJSON is the serialized form of a histogram.
type histogramJSON struct {
	MaxBuckets int        `json:"max_buckets"`
	Root       bucketJSON `json:"root"`
}

func toJSON(b *Bucket) bucketJSON {
	j := bucketJSON{Lo: b.box.Lo, Hi: b.box.Hi, Freq: b.freq, Seq: &b.seq}
	for _, c := range b.children {
		j.Children = append(j.Children, toJSON(c))
	}
	return j
}

// MarshalJSON serializes the histogram structure.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{MaxBuckets: h.maxBuckets, Root: toJSON(h.root)})
}

// UnmarshalJSON reconstructs a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.MaxBuckets < 1 {
		return fmt.Errorf("sthole: serialized budget %d invalid", j.MaxBuckets)
	}
	withSeq := 0
	root, n, err := fromJSON(j.Root, &withSeq)
	if err != nil {
		return err
	}
	h.root = root
	h.maxBuckets = j.MaxBuckets
	h.count = n - 1
	h.dims = root.box.Dims()
	h.frozen = false
	if err := h.numberBuckets(withSeq); err != nil {
		return err
	}
	h.resetMergeState()
	h.Stats = Stats{}
	return h.Validate()
}

// fromJSON rebuilds a serialized subtree, counting the buckets that carry a
// seq into withSeq.
func fromJSON(j bucketJSON, withSeq *int) (*Bucket, int, error) {
	box, err := geom.NewRect(j.Lo, j.Hi)
	if err != nil {
		return nil, 0, fmt.Errorf("sthole: deserializing bucket: %w", err)
	}
	b := &Bucket{box: box, freq: j.Freq}
	if j.Seq != nil {
		b.seq = *j.Seq
		*withSeq++
	}
	n := 1
	for _, cj := range j.Children {
		c, cn, err := fromJSON(cj, withSeq)
		if err != nil {
			return nil, 0, err
		}
		b.attach(c)
		n += cn
	}
	return b, n, nil
}

// numberBuckets settles the sequence numbers of a deserialized tree in which
// withSeq buckets carried one. A tree saved before seq was serialized
// carries none and is numbered in pre-order, as every load numbered trees
// then. Otherwise every bucket must carry a distinct seq, and new buckets
// are numbered after the largest.
func (h *Histogram) numberBuckets(withSeq int) error {
	buckets := h.Buckets()
	switch withSeq {
	case 0:
		for i, b := range buckets {
			b.seq = uint64(i)
		}
		h.seqCounter = uint64(len(buckets))
		return nil
	case len(buckets):
	default:
		return fmt.Errorf("sthole: %d of %d serialized buckets lack a seq", len(buckets)-withSeq, len(buckets))
	}
	seen := make(map[uint64]bool, len(buckets))
	h.seqCounter = 0
	for _, b := range buckets {
		if seen[b.seq] || b.seq == math.MaxUint64 {
			return fmt.Errorf("sthole: serialized bucket seq %d is duplicated or out of range", b.seq)
		}
		seen[b.seq] = true
		h.seqCounter = max(h.seqCounter, b.seq+1)
	}
	return nil
}

// copySubtree deep-copies b's subtree: fresh boxes, fresh child slices,
// frequencies and sequence numbers preserved.
func copySubtree(b *Bucket) *Bucket {
	nb := &Bucket{box: b.box.Clone(), freq: b.freq, seq: b.seq}
	for _, c := range b.children {
		nb.attach(copySubtree(c))
	}
	return nb
}

// Clone returns a deep copy of the histogram (structure, frequencies and
// merge tie-break order; stats and caches start fresh). Used by experiments
// that train one histogram several ways from the same starting point.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		root:       copySubtree(h.root),
		maxBuckets: h.maxBuckets,
		count:      h.count,
		dims:       h.dims,
		frozen:     h.frozen,
		seqCounter: h.seqCounter,
	}
	c.resetMergeState()
	return c
}

// Snapshot returns a deep copy of the histogram intended for read-only
// publication: the bucket tree, budget, and Stats counters are copied, but
// the merge scheduling caches are left unbuilt, which makes a snapshot
// roughly half the cost of Clone. Estimate, Validate, TotalTuples, and the
// inspection accessors all work on a snapshot; if the copy is ever drilled,
// the merge state is rebuilt lazily on first use.
func (h *Histogram) Snapshot() *Histogram {
	return &Histogram{
		root:       copySubtree(h.root),
		maxBuckets: h.maxBuckets,
		count:      h.count,
		dims:       h.dims,
		frozen:     h.frozen,
		seqCounter: h.seqCounter,
		Stats:      h.Stats,
	}
}

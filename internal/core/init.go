// Package core implements the paper's primary contribution: initializing a
// self-tuning STHoles histogram from subspace clusters (§4).
//
// The pipeline is: run MineClus over the dataset, turn each cluster into an
// extended bounding rectangle (Definition 8: tight on the cluster's relevant
// dimensions, full domain span on the rest), and feed these rectangles with
// their tuple counts to the histogram as synthetic query feedback in
// descending cluster-importance order (Definition 9, §5.3). Self-tuning then
// refines this top-level structure instead of having to discover it.
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"sthist/internal/geom"
	"sthist/internal/mineclus"
	"sthist/internal/sthole"
)

// BoxMode selects how a cluster becomes a bucket box.
type BoxMode int

const (
	// ExtendedBR uses Definition 8: tight bounds on the cluster's relevant
	// dimensions, full domain span on its unused dimensions. This preserves
	// subspace information and is the paper's choice.
	ExtendedBR BoxMode = iota
	// PlainMBR uses the minimal bounding rectangle of the cluster's points
	// on every dimension. Kept for the ablation of Fig. 6's discussion:
	// MBRs silently raise the dimensionality of subspace clusters.
	PlainMBR
)

// Order selects the sequence in which clusters are fed to the histogram.
type Order int

const (
	// ByImportance feeds clusters in descending MineClus score order — the
	// paper found this ordering clearly better (§5.3, Fig. 13).
	ByImportance Order = iota
	// Reversed feeds clusters in ascending score order (the "Initialized
	// (Reversed)" series of Fig. 13).
	Reversed
	// Shuffled feeds clusters in random order (ablation).
	Shuffled
)

// Options configures Initialize.
type Options struct {
	Box   BoxMode
	Order Order
	// Seed drives Shuffled order.
	Seed int64
	// Count optionally supplies exact tuple counts for arbitrary boxes
	// (e.g. index.KDTree-backed). When nil, counts are derived from the
	// cluster sizes under the uniformity assumption, which is all the
	// clustering output provides — the paper's setting.
	Count sthole.CountFunc
	// CountScale multiplies the synthetic cluster-model counts used when
	// Count is nil (0 means 1, i.e. cluster sizes are tuple counts). The
	// drift re-seeder clusters a synthetic point cloud whose size is not the
	// relation's cardinality, so it maps point mass back to tuple mass with
	// totalTuples / cloudPoints here. Ignored when Count is set.
	CountScale float64
}

// ClusterBox returns the bucket box for a cluster under the given mode.
func ClusterBox(c *mineclus.Cluster, domain geom.Rect, mode BoxMode) geom.Rect {
	if mode == PlainMBR {
		return c.Box.Clone()
	}
	box := c.Box.Clone()
	for _, d := range c.UnusedDims(domain.Dims()) {
		box.Lo[d] = domain.Lo[d]
		box.Hi[d] = domain.Hi[d]
	}
	return box
}

// Initialize seeds the histogram with the clusters, feeding each cluster box
// and tuple count as query feedback (Definition 9). The histogram should be
// freshly created with the dataset's total tuple count; its budget applies,
// so with more clusters than budget only the most important survive.
func Initialize(h *sthole.Histogram, clusters []mineclus.Cluster, domain geom.Rect, opts Options) error {
	if h.Dims() != domain.Dims() {
		return fmt.Errorf("core: histogram dimensionality %d != domain %d", h.Dims(), domain.Dims())
	}
	ordered := make([]*mineclus.Cluster, len(clusters))
	for i := range clusters {
		ordered[i] = &clusters[i]
	}
	switch opts.Order {
	case ByImportance:
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Score > ordered[j].Score })
	case Reversed:
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Score < ordered[j].Score })
	case Shuffled:
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })
	default:
		return fmt.Errorf("core: unknown order %d", opts.Order)
	}
	// Without exact counts, feedback is synthesized from the clustering
	// output alone: every cluster fed so far contributes its tuples under
	// the uniformity assumption. The model must be CUMULATIVE — a cluster's
	// box may enclose previously fed buckets (a subspace cluster's extended
	// BR often contains a smaller dense cluster), and drilling refreshes
	// those buckets' frequencies from the count callback; a single-cluster
	// model would wrongly zero them out.
	model := newClusterModel()
	scale := opts.CountScale
	if scale == 0 {
		scale = 1
	}
	for _, c := range ordered {
		box := ClusterBox(c, domain, opts.Box)
		inflateDegenerateSides(&box, domain)
		if box.Volume() <= 0 {
			// Still degenerate (domain itself has a zero side): skip.
			continue
		}
		count := opts.Count
		if count == nil {
			model.add(box, scale*float64(len(c.Rows)))
			count = model.count
		}
		h.Drill(box, count)
	}
	return nil
}

// inflateDegenerateSides gives zero-extent box sides a sliver of width
// (0.1% of the domain extent) so the bucket has drillable volume. Clusters
// over integer-coded categorical attributes routinely bound a dimension to a
// single value (e.g. color = 1 exactly); without volume they could not
// become buckets at all. The sliver extends upward when possible so that
// equality predicates written as [v, v+1) fully contain the bucket and
// receive its whole mass.
func inflateDegenerateSides(box *geom.Rect, domain geom.Rect) {
	for d := range box.Lo {
		if box.Hi[d] > box.Lo[d] {
			continue
		}
		eps := 1e-3 * domain.Side(d)
		if eps <= 0 {
			continue
		}
		if box.Lo[d]+eps <= domain.Hi[d] {
			box.Hi[d] = box.Lo[d] + eps
		} else {
			box.Lo[d] = box.Hi[d] - eps
		}
	}
}

// clusterModel is the synthetic density model used when initializing without
// data access: the superposition of all fed clusters, each uniform over its
// box.
type clusterModel struct {
	boxes  []geom.Rect
	tuples []float64
}

func newClusterModel() *clusterModel { return &clusterModel{} }

func (m *clusterModel) add(box geom.Rect, tuples float64) {
	m.boxes = append(m.boxes, box)
	m.tuples = append(m.tuples, tuples)
}

func (m *clusterModel) count(r geom.Rect) float64 {
	sum := 0.0
	for i, box := range m.boxes {
		sum += m.tuples[i] * box.IntersectionVolume(r) / box.Volume()
	}
	return sum
}

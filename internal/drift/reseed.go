package drift

import (
	"fmt"
	"math"
	"math/rand"

	"sthist/internal/core"
	"sthist/internal/dataset"
	"sthist/internal/geom"
	"sthist/internal/mineclus"
	"sthist/internal/sthole"
)

// Observation is one retained feedback round: the executed range predicate
// and its observed true cardinality. The reservoir the embedder maintains
// holds these.
type Observation struct {
	Query  geom.Rect
	Actual float64
}

// Candidate is the output of a re-seed build: a fresh cluster-initialized
// histogram plus provenance for logging and /stats.
type Candidate struct {
	Hist *sthole.Histogram
	// Clusters is how many subspace clusters MineClus mined from the cloud.
	Clusters int
	// Points is the size of the synthesized point cloud.
	Points int
	// Records is how many reservoir observations carried mass into the cloud.
	Records int
}

// BuildCandidate re-runs the paper's initialization recipe over retained
// feedback instead of base data. The estimator has no access to the shifted
// relation — only to what queries reported — so the builder synthesizes a
// point cloud from the reservoir: each observation contributes points
// proportional to its reported cardinality, placed uniformly inside its
// query rectangle (the same uniformity assumption scalar feedback already
// makes when drilling). MineClus then mines subspace clusters from the
// cloud, the cluster-seeded histogram is initialized with counts rescaled
// from point mass to tuple mass, and finally the reservoir feedback itself
// is replayed into the candidate so its frequencies reflect observed counts
// rather than the cloud's uniform smear.
//
// Deterministic given (obs order, seed). Returns an error when the reservoir
// holds too little usable mass to cluster.
func BuildCandidate(obs []Observation, domain geom.Rect, maxBuckets int, totalTuples float64, cfg Config, seed int64) (*Candidate, error) {
	if err := cfg.Sanitize(); err != nil {
		return nil, err
	}
	dims := domain.Dims()
	if dims == 0 {
		return nil, fmt.Errorf("drift: empty domain")
	}
	if maxBuckets < 1 {
		return nil, fmt.Errorf("drift: bucket budget must be >= 1, got %d", maxBuckets)
	}
	if totalTuples <= 0 || math.IsNaN(totalTuples) || math.IsInf(totalTuples, 0) {
		return nil, fmt.Errorf("drift: total tuples %g not positive and finite", totalTuples)
	}

	// Clamp each observation to the domain and collect its weight.
	type clamped struct {
		box    geom.Rect
		weight float64
	}
	usable := make([]clamped, 0, len(obs))
	totalWeight := 0.0
	for _, o := range obs {
		if o.Query.Dims() != dims || o.Actual <= 0 || math.IsNaN(o.Actual) || math.IsInf(o.Actual, 0) {
			continue
		}
		box := o.Query.Clone()
		ok := true
		for d := 0; d < dims; d++ {
			if box.Lo[d] < domain.Lo[d] {
				box.Lo[d] = domain.Lo[d]
			}
			if box.Hi[d] > domain.Hi[d] {
				box.Hi[d] = domain.Hi[d]
			}
			if box.Hi[d] < box.Lo[d] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		usable = append(usable, clamped{box: box, weight: o.Actual})
		totalWeight += o.Actual
	}
	if len(usable) < cfg.MinReservoir {
		return nil, fmt.Errorf("drift: only %d usable reservoir observations, need %d", len(usable), cfg.MinReservoir)
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("drift: reservoir carries no mass")
	}

	// Synthesize the cloud: points per observation proportional to reported
	// cardinality, at least one per observation so rare-but-real regions are
	// represented.
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.MustNew(dataset.GenericNames(dims)...)
	tuple := make([]float64, dims)
	points := 0
	for _, c := range usable {
		n := int(math.Round(float64(cfg.SyntheticPoints) * c.weight / totalWeight))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			for d := 0; d < dims; d++ {
				side := c.box.Hi[d] - c.box.Lo[d]
				tuple[d] = c.box.Lo[d] + rng.Float64()*side
			}
			tab.MustAppend(tuple)
		}
		points += n
	}

	// Mine subspace clusters with per-dimension medoid widths at the
	// configured fraction of the domain extent.
	mcfg := mineclus.DefaultConfig()
	mcfg.Width = 0
	mcfg.Widths = make([]float64, dims)
	for d := 0; d < dims; d++ {
		mcfg.Widths[d] = cfg.ClusterWidthFrac * domain.Side(d)
	}
	mcfg.Seed = seed
	mcfg.MaxClusters = maxBuckets
	clusters, err := mineclus.Run(tab, mcfg)
	if err != nil {
		return nil, fmt.Errorf("drift: re-clustering: %w", err)
	}

	h, err := sthole.New(domain, maxBuckets, totalTuples)
	if err != nil {
		return nil, fmt.Errorf("drift: candidate histogram: %w", err)
	}
	// No exact-count index exists for the drifted data, so initialization
	// falls back to the cumulative cluster model; CountScale maps the
	// cloud's point mass back to tuple mass.
	iopts := core.Options{
		Box:        core.ExtendedBR,
		Order:      core.ByImportance,
		CountScale: totalTuples / float64(points),
	}
	if err := core.Initialize(h, clusters, domain, iopts); err != nil {
		return nil, fmt.Errorf("drift: candidate initialization: %w", err)
	}

	// Replay the retained feedback so the candidate's frequencies reflect
	// the observed counts, not just the cloud's uniformity smear. Same
	// scalar split the live Feedback path uses.
	for _, c := range usable {
		h.DrillScalar(c.box, c.weight)
	}
	if err := h.Validate(); err != nil {
		return nil, fmt.Errorf("drift: candidate failed validation: %w", err)
	}
	return &Candidate{Hist: h, Clusters: len(clusters), Points: points, Records: len(usable)}, nil
}

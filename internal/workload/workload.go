// Package workload generates the query workloads of §5.1: range queries of a
// fixed volume fraction whose centers are drawn either uniformly over the
// domain or from the data distribution, plus workload permutations for the
// sensitivity experiments of §3.1.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// CenterMode selects how query centers are drawn.
type CenterMode int

const (
	// UniformCenters draws centers uniformly from the domain — the paper's
	// default ("random centers, fixed-volume queries").
	UniformCenters CenterMode = iota
	// DataCenters samples centers from the dataset, so the workload follows
	// the data distribution.
	DataCenters
)

// Config describes a workload.
type Config struct {
	// VolumeFraction is the query volume as a fraction of the domain volume
	// (the paper's Cross[1%] notation means 0.01).
	VolumeFraction float64
	// Centers selects the center distribution.
	Centers CenterMode
	// N is the number of queries.
	N int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate produces a workload over the domain. tab is required for
// DataCenters and ignored otherwise.
func Generate(domain geom.Rect, cfg Config, tab *dataset.Table) ([]geom.Rect, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: query count must be positive, got %d", cfg.N)
	}
	if cfg.VolumeFraction <= 0 || cfg.VolumeFraction > 1 {
		return nil, fmt.Errorf("workload: volume fraction must be in (0,1], got %g", cfg.VolumeFraction)
	}
	if cfg.Centers == DataCenters && (tab == nil || tab.Len() == 0) {
		return nil, fmt.Errorf("workload: data-following centers need a non-empty table")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sides := geom.SideForVolumeFraction(domain, cfg.VolumeFraction)
	queries := make([]geom.Rect, cfg.N)
	center := make(geom.Point, domain.Dims())
	for i := 0; i < cfg.N; i++ {
		switch cfg.Centers {
		case UniformCenters:
			for d := range center {
				center[d] = domain.Lo[d] + rng.Float64()*domain.Side(d)
			}
		case DataCenters:
			tab.Row(rng.Intn(tab.Len()), center)
		default:
			return nil, fmt.Errorf("workload: unknown center mode %d", cfg.Centers)
		}
		queries[i] = geom.BoxAt(center, sides, domain)
	}
	return queries, nil
}

// MustGenerate is Generate that panics on error; for benchmarks with
// known-good configs.
func MustGenerate(domain geom.Rect, cfg Config, tab *dataset.Table) []geom.Rect {
	qs, err := Generate(domain, cfg, tab)
	if err != nil {
		panic(err)
	}
	return qs
}

// Permute returns a permuted copy of the workload (the pi(W) of
// Definition 1). The input is unchanged.
func Permute(queries []geom.Rect, seed int64) []geom.Rect {
	out := make([]geom.Rect, len(queries))
	copy(out, queries)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// savedQuery is the JSON form of one query rectangle.
type savedQuery struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// Save writes a workload as JSON so experiment runs can be replayed
// byte-for-byte across machines and versions.
func Save(w io.Writer, queries []geom.Rect) error {
	out := make([]savedQuery, len(queries))
	for i, q := range queries {
		out[i] = savedQuery{Lo: q.Lo, Hi: q.Hi}
	}
	return json.NewEncoder(w).Encode(out)
}

// Load reads a workload saved by Save, validating every rectangle.
func Load(r io.Reader) ([]geom.Rect, error) {
	var in []savedQuery
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: decoding: %w", err)
	}
	out := make([]geom.Rect, len(in))
	for i, sq := range in {
		q, err := geom.NewRect(sq.Lo, sq.Hi)
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

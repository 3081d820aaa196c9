// Package metrics implements the histogram quality measures of §5.1: the
// mean absolute error E(H,W) over a workload (Eq. 9) and the normalized
// absolute error NAE (Eq. 10), which divides by the error of the trivial
// single-bucket histogram so numbers are comparable across datasets.
package metrics

import (
	"fmt"
	"math"

	"sthist/internal/geom"
)

// Estimator is anything that can estimate the cardinality of a range query;
// sthole.Histogram and baseline histograms implement it.
type Estimator interface {
	Estimate(q geom.Rect) float64
}

// TrueCounter returns the exact cardinality of a query.
type TrueCounter func(q geom.Rect) float64

// MeanAbsoluteError computes E(H,W) = (1/|W|) * sum |est(q) - real(q)|.
func MeanAbsoluteError(h Estimator, queries []geom.Rect, real TrueCounter) (float64, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("metrics: empty workload")
	}
	sum := 0.0
	for _, q := range queries {
		sum += math.Abs(h.Estimate(q) - real(q))
	}
	return sum / float64(len(queries)), nil
}

// TrivialEstimator is the 1-bucket reference histogram H0 of Eq. 10: it
// knows only the total tuple count and assumes uniformity over the domain.
type TrivialEstimator struct {
	Domain geom.Rect
	Total  float64
}

// Estimate implements Estimator under global uniformity.
func (t TrivialEstimator) Estimate(q geom.Rect) float64 {
	return t.Total * t.Domain.IntersectionVolume(q) / t.Domain.Volume()
}

// NormalizedAbsoluteError computes NAE(H,W) = E(H,W) / E(H0,W) where H0 is
// the trivial histogram over the domain with the given total tuple count.
func NormalizedAbsoluteError(h Estimator, queries []geom.Rect, real TrueCounter, domain geom.Rect, total float64) (float64, error) {
	e, err := MeanAbsoluteError(h, queries, real)
	if err != nil {
		return 0, err
	}
	e0, err := MeanAbsoluteError(TrivialEstimator{Domain: domain, Total: total}, queries, real)
	if err != nil {
		return 0, err
	}
	if e0 == 0 {
		if e == 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("metrics: trivial histogram has zero error but H does not; NAE undefined")
	}
	return e / e0, nil
}

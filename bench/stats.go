package bench

import (
	"math"
	"sort"
)

// Metric is one reported number.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // observations behind the value, where it summarizes several
}

var inf = math.Inf(1)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func minOf(xs []float64) float64 {
	m := inf
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read the same here as in any script that checks
// them. It needs at least two values; with fewer, every cut point is the
// single value (or 0).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle cut point of Quartiles.
func median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}

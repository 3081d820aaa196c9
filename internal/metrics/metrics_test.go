package metrics

import (
	"math"
	"math/rand"
	"testing"

	"sthist/internal/geom"
)

type constEstimator float64

func (c constEstimator) Estimate(geom.Rect) float64 { return float64(c) }

func dom() geom.Rect { return geom.MustRect([]float64{0, 0}, []float64{10, 10}) }

func TestMeanAbsoluteError(t *testing.T) {
	qs := []geom.Rect{
		geom.MustRect([]float64{0, 0}, []float64{1, 1}),
		geom.MustRect([]float64{1, 1}, []float64{2, 2}),
	}
	real := func(q geom.Rect) float64 { return 10 }
	got, err := MeanAbsoluteError(constEstimator(7), qs, real)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("MAE = %g, want 3", got)
	}
	if _, err := MeanAbsoluteError(constEstimator(0), nil, real); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestTrivialEstimator(t *testing.T) {
	h := TrivialEstimator{Domain: dom(), Total: 400}
	if got := h.Estimate(geom.MustRect([]float64{0, 0}, []float64{5, 5})); got != 100 {
		t.Errorf("trivial estimate = %g, want 100", got)
	}
	if got := h.Estimate(geom.MustRect([]float64{20, 20}, []float64{30, 30})); got != 0 {
		t.Errorf("outside estimate = %g, want 0", got)
	}
}

func TestNAETrivialIsOne(t *testing.T) {
	// NAE of the trivial histogram itself must be exactly 1 whenever it has
	// non-zero error (DESIGN.md invariant).
	rng := rand.New(rand.NewSource(1))
	real := func(q geom.Rect) float64 { return 100 * q.Volume() / 100 * (1 + 0.5*math.Sin(q.Lo[0])) }
	var qs []geom.Rect
	for i := 0; i < 50; i++ {
		c := geom.Point{rng.Float64() * 10, rng.Float64() * 10}
		qs = append(qs, geom.CubeAt(c, 2, dom()))
	}
	h := TrivialEstimator{Domain: dom(), Total: 100}
	nae, err := NormalizedAbsoluteError(h, qs, real, dom(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nae-1) > 1e-12 {
		t.Errorf("NAE of trivial histogram = %g, want 1", nae)
	}
}

func TestNAEPerfectEstimatorIsZero(t *testing.T) {
	real := func(q geom.Rect) float64 { return 42 }
	qs := []geom.Rect{geom.MustRect([]float64{0, 0}, []float64{1, 1})}
	nae, err := NormalizedAbsoluteError(constEstimator(42), qs, real, dom(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if nae != 0 {
		t.Errorf("NAE of perfect estimator = %g, want 0", nae)
	}
}

func TestNAEUndefined(t *testing.T) {
	// Trivial histogram exact but H wrong: NAE undefined.
	real := TrivialEstimator{Domain: dom(), Total: 100}.Estimate
	qs := []geom.Rect{geom.MustRect([]float64{0, 0}, []float64{5, 5})}
	if _, err := NormalizedAbsoluteError(constEstimator(999), qs, TrueCounter(real), dom(), 100); err == nil {
		t.Error("undefined NAE accepted")
	}
}

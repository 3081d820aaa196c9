package optimizer

import (
	"math"
	"testing"

	"sthist/internal/geom"
)

// fixedEst returns preset estimates: full-dimension restrictions (index
// lookups) get perDim, the original query gets rows.
type funcEst func(q geom.Rect) float64

func (f funcEst) Estimate(q geom.Rect) float64 { return f(q) }

func table(est Estimator) Table {
	return Table{
		Name:        "t",
		Tuples:      10000,
		Domain:      geom.MustRect([]float64{0, 0}, []float64{100, 100}),
		IndexedDims: []int{0, 1},
		Est:         est,
	}
}

func TestChooseScanPrefersIndexForSelectivePredicate(t *testing.T) {
	// 50 matching rows on dim 0: index cost 50 + 50*4 = 250 << 10000 seq.
	est := funcEst(func(q geom.Rect) float64 {
		if q.Side(1) < 100 { // the full query
			return 10
		}
		return 50 // dim-0 restriction
	})
	plan := ChooseScan(table(est), geom.MustRect([]float64{10, 10}, []float64{12, 12}))
	if plan.Path != IndexScan {
		t.Fatalf("plan = %v, want IndexScan", plan)
	}
	if plan.EstCost >= 10000 {
		t.Errorf("index cost %g not below seq cost", plan.EstCost)
	}
}

func TestChooseScanPrefersSeqForWidePredicate(t *testing.T) {
	est := funcEst(func(q geom.Rect) float64 { return 9000 })
	plan := ChooseScan(table(est), geom.MustRect([]float64{0, 0}, []float64{90, 90}))
	if plan.Path != SeqScan {
		t.Fatalf("plan = %v, want SeqScan", plan)
	}
}

func TestScanRegretPerfectEstimatorIsOne(t *testing.T) {
	truth := funcEst(func(q geom.Rect) float64 {
		// 100 tuples per unit of dim-0 extent: selective dim-0 ranges pay
		// off, wide ones do not.
		return q.Side(0) * 100
	})
	tab := table(truth)
	for _, q := range []geom.Rect{
		geom.MustRect([]float64{10, 10}, []float64{11, 12}),
		geom.MustRect([]float64{0, 0}, []float64{95, 95}),
	} {
		if r := ScanRegret(tab, q, truth); math.Abs(r-1) > 1e-9 {
			t.Errorf("perfect estimator regret = %g on %v", r, q)
		}
	}
}

func TestScanRegretBadEstimatorPaysForIt(t *testing.T) {
	truth := funcEst(func(q geom.Rect) float64 { return q.Side(0) * 100 })
	// An estimator claiming everything is tiny: always picks the index,
	// even for the wide query where seq is optimal.
	liar := funcEst(func(q geom.Rect) float64 { return 1 })
	tab := table(liar)
	wide := geom.MustRect([]float64{0, 0}, []float64{95, 95})
	if r := ScanRegret(tab, wide, truth); r <= 1.5 {
		t.Errorf("lying estimator regret = %g, expected a clear penalty", r)
	}
}

func TestTrueScanCostMatchesModel(t *testing.T) {
	truth := funcEst(func(q geom.Rect) float64 { return 100 })
	tab := table(truth)
	q := geom.MustRect([]float64{0, 0}, []float64{10, 10})
	seq := TrueScanCost(tab, q, ScanPlan{Path: SeqScan}, truth)
	if seq != tab.Tuples*CostSeqTuple {
		t.Errorf("seq cost = %g", seq)
	}
	idx := TrueScanCost(tab, q, ScanPlan{Path: IndexScan, IndexDim: 0}, truth)
	if idx != CostProbe+100*CostRandTuple {
		t.Errorf("index cost = %g", idx)
	}
}

func TestStringRendering(t *testing.T) {
	p := ScanPlan{Path: IndexScan, IndexDim: 2, EstRows: 10, EstCost: 90}
	if p.String() == "" || SeqScan.String() != "SeqScan" || IndexScan.String() != "IndexScan" {
		t.Error("plan rendering broken")
	}
}

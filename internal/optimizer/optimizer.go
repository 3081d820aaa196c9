// Package optimizer implements the slice of a cost-based query optimizer
// that selectivity estimates feed ([4] in the paper): access-path selection
// (sequential scan vs secondary-index range scan) for single-table
// conjunctive range queries. Plan quality is measured as REGRET: the true
// execution cost of the plan an estimator picks, divided by the true cost of
// the best plan — the quantity a better histogram actually improves.
package optimizer

import (
	"fmt"

	"sthist/internal/geom"
)

// Cost model (abstract units per tuple). Sequential access is cheap;
// index-driven random access pays a penalty per fetched tuple; the fixed
// probe cost covers index traversal.
const (
	CostSeqTuple  = 1.0
	CostRandTuple = 4.0
	CostProbe     = 50.0
)

// Estimator supplies cardinality estimates for one table.
type Estimator interface {
	Estimate(q geom.Rect) float64
}

// Table describes one relation to the optimizer.
type Table struct {
	Name   string
	Tuples float64
	Domain geom.Rect
	// IndexedDims are the dimensions with secondary range indexes.
	IndexedDims []int
	// Est estimates the cardinality of a range predicate.
	Est Estimator
}

// AccessPath identifies a single-table plan.
type AccessPath int

const (
	SeqScan AccessPath = iota
	IndexScan
)

// String names the path.
func (p AccessPath) String() string {
	if p == IndexScan {
		return "IndexScan"
	}
	return "SeqScan"
}

// ScanPlan is a chosen single-table plan.
type ScanPlan struct {
	Path     AccessPath
	IndexDim int // meaningful when Path == IndexScan
	EstRows  float64
	EstCost  float64
}

// String renders the plan.
func (p ScanPlan) String() string {
	if p.Path == IndexScan {
		return fmt.Sprintf("IndexScan(dim=%d, rows≈%.0f, cost≈%.0f)", p.IndexDim, p.EstRows, p.EstCost)
	}
	return fmt.Sprintf("SeqScan(rows≈%.0f, cost≈%.0f)", p.EstRows, p.EstCost)
}

// dimRestriction returns the query restricted to a single dimension of the
// table's domain — what a secondary index on that dimension can retrieve.
func dimRestriction(t Table, q geom.Rect, d int) geom.Rect {
	r := t.Domain.Clone()
	if q.Lo[d] > r.Lo[d] {
		r.Lo[d] = q.Lo[d]
	}
	if q.Hi[d] < r.Hi[d] {
		r.Hi[d] = q.Hi[d]
	}
	if r.Lo[d] > r.Hi[d] {
		r.Lo[d] = r.Hi[d]
	}
	return r
}

// ChooseScan picks the cheapest access path for predicate q under the
// table's estimator.
func ChooseScan(t Table, q geom.Rect) ScanPlan {
	rows := t.Est.Estimate(q)
	best := ScanPlan{Path: SeqScan, EstRows: rows, EstCost: t.Tuples * CostSeqTuple}
	for _, d := range t.IndexedDims {
		idxRows := t.Est.Estimate(dimRestriction(t, q, d))
		cost := CostProbe + idxRows*CostRandTuple
		if cost < best.EstCost {
			best = ScanPlan{Path: IndexScan, IndexDim: d, EstRows: rows, EstCost: cost}
		}
	}
	return best
}

// TrueScanCost returns the actual execution cost of a plan given exact
// cardinalities (truth plays the role of the executor).
func TrueScanCost(t Table, q geom.Rect, plan ScanPlan, truth Estimator) float64 {
	if plan.Path == SeqScan {
		return t.Tuples * CostSeqTuple
	}
	idxRows := truth.Estimate(dimRestriction(t, q, plan.IndexDim))
	return CostProbe + idxRows*CostRandTuple
}

// OptimalScanCost returns the cheapest true cost across all paths.
func OptimalScanCost(t Table, q geom.Rect, truth Estimator) float64 {
	best := t.Tuples * CostSeqTuple
	for _, d := range t.IndexedDims {
		idxRows := truth.Estimate(dimRestriction(t, q, d))
		if c := CostProbe + idxRows*CostRandTuple; c < best {
			best = c
		}
	}
	return best
}

// ScanRegret returns trueCost(chosen)/trueCost(optimal) >= 1 for the plan
// the estimator picks on q.
func ScanRegret(t Table, q geom.Rect, truth Estimator) float64 {
	plan := ChooseScan(t, q)
	chosen := TrueScanCost(t, q, plan, truth)
	opt := OptimalScanCost(t, q, truth)
	if opt <= 0 {
		return 1
	}
	return chosen / opt
}

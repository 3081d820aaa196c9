//go:build go1.24

package sthist

import (
	"runtime"
	"testing"
	"weak"
)

// TestOpenKeepsNoRows pins that a served estimator holds none of its
// table: once the caller drops the table, its columns are collected while
// the estimator lives, with and without clustering.
func TestOpenKeepsNoRows(t *testing.T) {
	for _, skip := range []bool{false, true} {
		est, col := openAndDrop(t, skip)
		runtime.GC()
		if col.Value() != nil {
			t.Errorf("SkipInitialization %v: the table's first column is still reachable from the estimator", skip)
		}
		if got := est.Estimate(est.Domain()); got != 2200 {
			t.Errorf("SkipInitialization %v: Estimate(domain) = %g, want 2200", skip, got)
		}
	}
}

// openAndDrop opens an estimator over clusteredTable and returns it with a
// weak pointer to the table's first column, keeping no strong reference to
// the table.
func openAndDrop(t *testing.T, skip bool) (*Estimator, weak.Pointer[float64]) {
	tab := clusteredTable(t)
	est, err := Open(tab, Options{Buckets: 20, Seed: 1, SkipInitialization: skip})
	if err != nil {
		t.Fatal(err)
	}
	return est, weak.Make(&tab.Column(0)[0])
}

//go:build go1.24

package sthist

import (
	"runtime"
	"testing"
	"weak"

	"sthist/internal/mineclus"
)

// TestOpenKeepsNoRows pins that a served estimator holds none of its
// table: once the caller drops the table, its columns are collected while
// the estimator lives, with and without clustering. Nor does it keep the
// clusters' member row lists: each kept cluster has nil Rows and the Size
// of the list MineClus returned.
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
	tab := clusteredTable(t)
	ccfg := DefaultClusterConfig()
	ccfg.Seed = 1
	est, err := Open(tab, Options{Buckets: 20, Seed: 1, Clustering: ccfg})
	if err != nil {
		t.Fatal(err)
	}
	got := est.Clusters()
	want, err := mineclus.Run(tab, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("Open kept %d clusters, MineClus returns %d", len(got), len(want))
	}
	for i, c := range got {
		if c.Rows != nil {
			t.Errorf("cluster %d keeps %d member rows", i, len(c.Rows))
		}
		if c.Size != len(want[i].Rows) {
			t.Errorf("cluster %d: Size %d, MineClus returns %d rows", i, c.Size, len(want[i].Rows))
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

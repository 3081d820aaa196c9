package sthist

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// degradeTable builds a small clustered table.
func degradeTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		tab.MustAppend([]float64{100 + rng.Float64()*50, 300 + rng.Float64()*50})
	}
	for i := 0; i < 300; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	return tab
}

func TestFeedbackRejectsInvalidInput(t *testing.T) {
	tab := degradeTable(t)
	est, err := Open(tab, Options{Buckets: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := MustRect([]float64{100, 300}, []float64{150, 350})
	cases := []struct {
		name   string
		q      Rect
		actual float64
	}{
		{"nan", q, math.NaN()},
		{"inf", q, math.Inf(1)},
		{"neg-inf", q, math.Inf(-1)},
		{"negative", q, -3},
		{"dim-mismatch", MustRect([]float64{0}, []float64{1}), 5},
		{"out-of-domain", MustRect([]float64{5000, 5000}, []float64{6000, 6000}), 5},
	}
	for _, c := range cases {
		if err := est.Feedback(c.q, c.actual); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if err := est.ValidateFeedback(c.q, c.actual); err == nil {
			t.Errorf("%s: ValidateFeedback accepted", c.name)
		}
	}
	if err := est.FeedbackWith(q, nil); err == nil {
		t.Error("FeedbackWith without a count function accepted")
	}
	if err := est.Feedback(q, exactCounts(t, tab)(q)); err != nil {
		t.Errorf("valid feedback rejected: %v", err)
	}
	if h := est.Health(); h.State != "ok" || h.Quarantines != 0 {
		t.Errorf("health after valid traffic = %+v", h)
	}
}

// MustRect builds a Rect or fails the test at build time.
func MustRect(lo, hi []float64) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// corruptChildBox breaks a structural invariant of the working histogram the
// way an internal bug can: a child box is moved outside its parent. The
// published snapshot is immune to Box() writers now (Histogram() returns a
// copy), so the corruption is injected directly into the writer-side tree.
func corruptChildBox(t *testing.T, est *Estimator) {
	t.Helper()
	est.wmu.Lock()
	defer est.wmu.Unlock()
	root := est.work.Root()
	if len(root.Children()) == 0 {
		t.Fatal("histogram has no child buckets to corrupt")
	}
	child := root.Children()[0]
	child.Box().Lo[0] = root.Box().Lo[0] - 1e6
	if est.work.Validate() == nil {
		t.Fatal("corruption did not break an invariant")
	}
}

func TestQuarantineOnInvariantViolation(t *testing.T) {
	tab := degradeTable(t)
	est, err := Open(tab, Options{Buckets: 30, Seed: 1, ValidateEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	truth := exactCounts(t, tab)
	q := MustRect([]float64{100, 300}, []float64{150, 350})
	if err := est.Feedback(q, truth(q)); err != nil {
		t.Fatal(err)
	}
	goodEstimate := est.Estimate(q)

	corruptChildBox(t, est)
	// The next drill triggers the amortized check, which quarantines.
	q2 := MustRect([]float64{120, 310}, []float64{170, 360})
	if err := est.Feedback(q2, truth(q2)); err != nil {
		t.Fatalf("feedback errored instead of quarantining: %v", err)
	}
	h := est.Health()
	if h.State != "degraded" || h.Quarantines != 1 || h.LastError == "" {
		t.Fatalf("health after corruption = %+v", h)
	}
	// Serving continues from the restored snapshot: valid tree, sane numbers.
	if err := est.Histogram().Validate(); err != nil {
		t.Fatalf("restored histogram invalid: %v", err)
	}
	got := est.Estimate(q)
	if math.IsNaN(got) || got < 0 {
		t.Fatalf("estimate after quarantine = %g", got)
	}
	_ = goodEstimate // the restored estimate may predate q's feedback; only sanity is required

	// Clean traffic re-validates and clears the degradation.
	if err := est.Feedback(q, truth(q)); err != nil {
		t.Fatal(err)
	}
	if h := est.Health(); h.State != "ok" || h.Quarantines != 1 {
		t.Errorf("health after recovery = %+v", h)
	}
}

func TestQuarantineMethodForcesFallback(t *testing.T) {
	est, err := Open(degradeTable(t), Options{Buckets: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	corruptChildBox(t, est)
	est.Quarantine(errDummy)
	if err := est.Histogram().Validate(); err != nil {
		t.Fatalf("histogram invalid after explicit quarantine: %v", err)
	}
	if h := est.Health(); h.State != "degraded" || h.Quarantines != 1 {
		t.Errorf("health = %+v", h)
	}
}

var errDummy = errInj{}

type errInj struct{}

func (errInj) Error() string { return "injected" }

func TestLoadHistogramRejectsInvalidTrees(t *testing.T) {
	est, err := Open(degradeTable(t), Options{Buckets: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"negative-frequency": `{"max_buckets":10,"root":{"lo":[0,0],"hi":[10,10],"freq":-5}}`,
		"child-escapes-parent": `{"max_buckets":10,"root":{"lo":[0,0],"hi":[10,10],"freq":5,
			"children":[{"lo":[-5,0],"hi":[1,1],"freq":1}]}}`,
		"overlapping-siblings": `{"max_buckets":10,"root":{"lo":[0,0],"hi":[10,10],"freq":5,
			"children":[{"lo":[0,0],"hi":[5,5],"freq":1},{"lo":[4,4],"hi":[6,6],"freq":1}]}}`,
		"inverted-corner": `{"max_buckets":10,"root":{"lo":[5,0],"hi":[1,10],"freq":5}}`,
		"over-budget":     `{"max_buckets":1,"root":{"lo":[0,0],"hi":[10,10],"freq":5,"children":[{"lo":[1,1],"hi":[2,2],"freq":1},{"lo":[3,3],"hi":[4,4],"freq":1}]}}`,
		"dims-mismatch":   `{"max_buckets":10,"root":{"lo":[0],"hi":[10],"freq":5}}`,
		"not-histograms":  `[1,2,3]`,
	}
	for name, js := range cases {
		if err := est.LoadHistogram(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A valid save/load round trip still works and resets degradation.
	est.Quarantine(errDummy)
	var buf bytes.Buffer
	if err := est.SaveHistogram(&buf); err != nil {
		t.Fatal(err)
	}
	if err := est.LoadHistogram(&buf); err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if h := est.Health(); h.State != "ok" {
		t.Errorf("health after load = %+v", h)
	}
}

func TestSelectivityEmptyIndexIsZeroNotNaN(t *testing.T) {
	// Open rejects empty tables, so build the degenerate estimator by hand —
	// the guard protects any future path that yields a zero-tuple index.
	tab := degradeTable(t)
	est, err := Open(tab, Options{Buckets: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := MustRect([]float64{0, 0}, []float64{1000, 1000})
	if s := est.Selectivity(q); math.IsNaN(s) || s <= 0 {
		t.Errorf("selectivity = %g", s)
	}
	if _, err := est.NormalizedError([]Rect{q}, exactCounts(t, tab)); err != nil {
		t.Errorf("normalized error on populated table: %v", err)
	}
}

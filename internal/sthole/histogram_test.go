package sthole

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"sthist/internal/geom"
)

func rect2(x0, y0, x1, y1 float64) geom.Rect {
	return geom.MustRect([]float64{x0, y0}, []float64{x1, y1})
}

// addChild is a test helper that grafts a bucket into the tree directly,
// bypassing Drill.
func (h *Histogram) addChild(parent *Bucket, box geom.Rect, freq float64) *Bucket {
	b := &Bucket{box: box, freq: freq, seq: h.nextSeq()}
	parent.attach(b)
	h.count++
	h.touch(parent)
	return b
}

func TestNewValidation(t *testing.T) {
	dom := rect2(0, 0, 10, 10)
	if _, err := New(dom, 0, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(dom, 5, -1); err == nil {
		t.Error("negative total accepted")
	}
	if _, err := New(dom, 5, math.NaN()); err == nil {
		t.Error("NaN total accepted")
	}
	if _, err := New(rect2(0, 0, 0, 10), 5, 0); err == nil {
		t.Error("zero-volume domain accepted")
	}
	// Finite bounds whose volume overflows: 2e200 · 2e200 is +Inf, and a
	// zero side times an overflowed one is NaN.
	for _, dom := range []geom.Rect{rect2(-1e200, -1e200, 1e200, 1e200), rect2(0, -math.MaxFloat64, 0, math.MaxFloat64)} {
		if _, err := New(dom, 5, 0); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("domain %v of volume %g: err = %v, want a volume that is not finite", dom, dom.Volume(), err)
		}
	}
	h, err := New(dom, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if h.BucketCount() != 0 || h.MaxBuckets() != 5 || h.Dims() != 2 {
		t.Errorf("fresh histogram count=%d max=%d dims=%d", h.BucketCount(), h.MaxBuckets(), h.Dims())
	}
	if h.TotalTuples() != 100 {
		t.Errorf("TotalTuples = %g", h.TotalTuples())
	}
}

func TestEstimateTrivial(t *testing.T) {
	// A single root bucket with 100 tuples over [0,10]^2: a query covering a
	// quarter of the domain estimates 25 tuples.
	h := MustNew(rect2(0, 0, 10, 10), 5, 100)
	if got := h.Estimate(rect2(0, 0, 5, 5)); math.Abs(got-25) > 1e-9 {
		t.Errorf("Estimate(quarter) = %g, want 25", got)
	}
	if got := h.Estimate(rect2(0, 0, 10, 10)); math.Abs(got-100) > 1e-9 {
		t.Errorf("Estimate(domain) = %g, want 100", got)
	}
	if got := h.Estimate(rect2(20, 20, 30, 30)); got != 0 {
		t.Errorf("Estimate(outside) = %g, want 0", got)
	}
	if got := h.Estimate(geom.MustRect([]float64{0}, []float64{1})); got != 0 {
		t.Errorf("Estimate(wrong dims) = %g, want 0", got)
	}
}

func TestEstimateWithHole(t *testing.T) {
	// Root holds 90 tuples over [0,10]^2 minus a hole [0,5]x[0,5] that holds
	// 10. Own volume of root = 75, hole volume = 25.
	h := MustNew(rect2(0, 0, 10, 10), 5, 90)
	h.addChild(h.root, rect2(0, 0, 5, 5), 10)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Query = hole box exactly: estimates the hole's 10 tuples.
	if got := h.Estimate(rect2(0, 0, 5, 5)); math.Abs(got-10) > 1e-9 {
		t.Errorf("Estimate(hole) = %g, want 10", got)
	}
	// Query covering everything returns all 100 tuples.
	if got := h.Estimate(rect2(0, 0, 10, 10)); math.Abs(got-100) > 1e-9 {
		t.Errorf("Estimate(all) = %g, want 100", got)
	}
	// Query [5,10]x[5,10] lies entirely in root's own region: 90 * 25/75.
	if got, want := h.Estimate(rect2(5, 5, 10, 10)), 30.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Estimate(own region part) = %g, want %g", got, want)
	}
	// Query [0,5]x[0,10]: half the hole is wrong — full hole (10) plus root
	// own overlap ([0,5]x[5,10] = 25) => 10 + 90*25/75 = 40.
	if got, want := h.Estimate(rect2(0, 0, 5, 10)), 40.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Estimate(mixed) = %g, want %g", got, want)
	}
}

func TestEstimateNestedAndDegenerate(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 50)
	mid := h.addChild(h.root, rect2(2, 2, 8, 8), 20)
	h.addChild(mid, rect2(4, 4, 6, 6), 30)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.Estimate(rect2(0, 0, 10, 10)); math.Abs(got-100) > 1e-9 {
		t.Errorf("Estimate(all) = %g, want 100", got)
	}
	if got := h.Estimate(rect2(4, 4, 6, 6)); math.Abs(got-30) > 1e-9 {
		t.Errorf("Estimate(inner) = %g, want 30", got)
	}
	// A degenerate bucket (zero volume) acts as a point mass.
	h2 := MustNew(rect2(0, 0, 10, 10), 5, 0)
	h2.addChild(h2.root, rect2(3, 3, 3, 7), 40)
	if got := h2.Estimate(rect2(0, 0, 10, 10)); math.Abs(got-40) > 1e-9 {
		t.Errorf("Estimate over point-mass bucket = %g, want 40", got)
	}
	if got := h2.Estimate(rect2(5, 0, 10, 10)); got != 0 {
		t.Errorf("Estimate missing point-mass = %g, want 0", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 10)
	b := h.addChild(h.root, rect2(1, 1, 4, 4), 5)
	if err := h.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Overlapping sibling.
	h.addChild(h.root, rect2(3, 3, 6, 6), 5)
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping siblings not detected: %v", err)
	}
	h.root.children = h.root.children[:1]
	h.count = 1
	// Negative frequency.
	b.freq = -1
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "frequency") {
		t.Errorf("negative frequency not detected: %v", err)
	}
	b.freq = 5
	// Child escaping parent.
	b.box = rect2(5, 5, 11, 11)
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Errorf("escaping child not detected: %v", err)
	}
	b.box = rect2(1, 1, 4, 4)
	// Count mismatch.
	h.count = 7
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("count mismatch not detected: %v", err)
	}
}

func TestSubspaceBuckets(t *testing.T) {
	dom := geom.MustRect([]float64{0, 0, 0}, []float64{10, 10, 10})
	h := MustNew(dom, 10, 100)
	// Full-span on dim 0 and 2, constrained on dim 1: a subspace bucket.
	sub := h.addChild(h.root, geom.MustRect([]float64{0, 4, 0}, []float64{10, 6, 10}), 10)
	// Constrained on all dims: not a subspace bucket.
	h.addChild(h.root, geom.MustRect([]float64{1, 7, 1}, []float64{2, 8, 2}), 5)
	got := h.SubspaceBuckets()
	if len(got) != 1 || got[0] != sub {
		t.Fatalf("SubspaceBuckets = %d buckets", len(got))
	}
	dims := h.SubspaceDims(sub)
	if len(dims) != 2 || dims[0] != 0 || dims[1] != 2 {
		t.Errorf("SubspaceDims = %v, want [0 2]", dims)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 50)
	mid := h.addChild(h.root, rect2(2, 2, 8, 8), 20)
	h.addChild(mid, rect2(4, 4, 6, 6), 30)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BucketCount() != 2 || back.MaxBuckets() != 5 {
		t.Errorf("round trip count=%d max=%d", back.BucketCount(), back.MaxBuckets())
	}
	for _, q := range []geom.Rect{rect2(0, 0, 10, 10), rect2(1, 1, 5, 5), rect2(4, 4, 6, 6)} {
		if a, b := h.Estimate(q), back.Estimate(q); math.Abs(a-b) > 1e-9 {
			t.Errorf("estimate mismatch after round trip on %v: %g vs %g", q, a, b)
		}
	}
	if err := back.Validate(); err != nil {
		t.Errorf("deserialized histogram invalid: %v", err)
	}
	// Corrupted input is rejected.
	var bad Histogram
	if err := json.Unmarshal([]byte(`{"max_buckets":0,"root":{"lo":[0],"hi":[1],"freq":1}}`), &bad); err == nil {
		t.Error("invalid budget accepted")
	}
	if err := json.Unmarshal([]byte(`{"max_buckets":5,"root":{"lo":[1],"hi":[0],"freq":1}}`), &bad); err == nil {
		t.Error("inverted box accepted")
	}
}

// TestJSONCarriesSeq pins that the merge tie-break order survives JSON,
// Clone and Snapshot, that a histogram saved before seq was serialized still
// loads with pre-order numbers, and that duplicate numbers are rejected.
func TestJSONCarriesSeq(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 50)
	h.nextSeq() // a merged-away bucket: creation order has gaps
	late := h.addChild(h.root, rect2(6, 6, 8, 8), 30)
	early := h.addChild(h.root, rect2(2, 2, 4, 4), 20)
	h.root.children[0], h.root.children[1] = early, late // pre-order != creation order
	seqs := func(h *Histogram) []uint64 {
		var out []uint64
		for _, b := range h.Buckets() {
			out = append(out, b.seq)
		}
		return append(out, h.seqCounter)
	}
	want := seqs(h) // root, early, late, next
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]uint64{
		"json": seqs(&back), "clone": seqs(h.Clone()), "snapshot": seqs(h.Snapshot()),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s seqs = %v, want %v", name, got, want)
		}
	}

	legacy := `{"max_buckets":5,"root":{"lo":[0,0],"hi":[10,10],"freq":50,"children":[` +
		`{"lo":[2,2],"hi":[4,4],"freq":20},{"lo":[6,6],"hi":[8,8],"freq":30}]}}`
	var old Histogram
	if err := json.Unmarshal([]byte(legacy), &old); err != nil {
		t.Fatalf("seq-less histogram rejected: %v", err)
	}
	if got := seqs(&old); got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Errorf("seq-less histogram numbered %v, want pre-order 0 1 2 and next 3", got)
	}

	var bad Histogram
	dup := strings.Replace(strings.Replace(legacy, `"freq":20}`, `"freq":20,"seq":4}`, 1), `"freq":30}`, `"freq":30,"seq":4}`, 1)
	dup = strings.Replace(dup, `"freq":50,`, `"freq":50,"seq":0,`, 1)
	if err := json.Unmarshal([]byte(dup), &bad); err == nil {
		t.Error("duplicate seq accepted")
	}
	partial := strings.Replace(legacy, `"freq":20}`, `"freq":20,"seq":4}`, 1)
	if err := json.Unmarshal([]byte(partial), &bad); err == nil {
		t.Error("seq on some buckets only accepted")
	}
}

func TestClone(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 50)
	h.addChild(h.root, rect2(2, 2, 8, 8), 20)
	c := h.Clone()
	if c.BucketCount() != h.BucketCount() {
		t.Fatal("clone count mismatch")
	}
	// Mutating the clone must not affect the original.
	c.root.children[0].freq = 999
	if h.root.children[0].freq != 20 {
		t.Error("clone shares bucket storage with original")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDump(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 50)
	h.addChild(h.root, rect2(2, 2, 8, 8), 20)
	var buf bytes.Buffer
	h.Dump(&buf)
	out := buf.String()
	if !strings.Contains(out, "freq=50.0") || !strings.Contains(out, "freq=20.0") {
		t.Errorf("Dump output missing frequencies:\n%s", out)
	}
}

func TestFrozen(t *testing.T) {
	h := MustNew(rect2(0, 0, 10, 10), 5, 0)
	h.SetFrozen(true)
	if !h.Frozen() {
		t.Error("Frozen() = false after SetFrozen(true)")
	}
	h.Drill(rect2(0, 0, 5, 5), func(geom.Rect) float64 { return 10 })
	if h.BucketCount() != 0 || h.Stats.Queries != 0 {
		t.Error("frozen histogram still learned")
	}
	h.SetFrozen(false)
	h.Drill(rect2(0, 0, 5, 5), func(geom.Rect) float64 { return 10 })
	if h.BucketCount() != 1 {
		t.Error("unfrozen histogram did not learn")
	}
}

func TestUnmarshalRejectsCorruptTree(t *testing.T) {
	// Overlapping children and a child escaping its parent must be rejected
	// by the Validate pass inside UnmarshalJSON.
	var h Histogram
	overlapping := `{"max_buckets":5,"root":{"lo":[0,0],"hi":[10,10],"freq":1,
		"children":[
			{"lo":[1,1],"hi":[5,5],"freq":1},
			{"lo":[4,4],"hi":[8,8],"freq":1}
		]}}`
	if err := json.Unmarshal([]byte(overlapping), &h); err == nil {
		t.Error("overlapping children accepted")
	}
	escaping := `{"max_buckets":5,"root":{"lo":[0,0],"hi":[10,10],"freq":1,
		"children":[{"lo":[5,5],"hi":[11,11],"freq":1}]}}`
	if err := json.Unmarshal([]byte(escaping), &h); err == nil {
		t.Error("escaping child accepted")
	}
	negative := `{"max_buckets":5,"root":{"lo":[0,0],"hi":[10,10],"freq":-3}}`
	if err := json.Unmarshal([]byte(negative), &h); err == nil {
		t.Error("negative frequency accepted")
	}
	overBudget := `{"max_buckets":1,"root":{"lo":[0,0],"hi":[10,10],"freq":1,
		"children":[
			{"lo":[1,1],"hi":[2,2],"freq":1},
			{"lo":[3,3],"hi":[4,4],"freq":1}
		]}}`
	if err := json.Unmarshal([]byte(overBudget), &h); err == nil {
		t.Error("over-budget tree accepted")
	}
}

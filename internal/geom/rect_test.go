package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rect2(x0, y0, x1, y1 float64) Rect {
	return MustRect([]float64{x0, y0}, []float64{x1, y1})
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
	if _, err := NewRect(nil, nil); err == nil {
		t.Error("zero-dimensional rectangle accepted")
	}
	if _, err := NewRect([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, err := NewRect([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN corner accepted")
	}
	if _, err := NewRect([]float64{0, 0}, []float64{1, 1}); err != nil {
		t.Errorf("valid rectangle rejected: %v", err)
	}
	if _, err := NewRect([]float64{1, 1}, []float64{1, 1}); err != nil {
		t.Errorf("degenerate rectangle rejected: %v", err)
	}
}

func TestMustRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRect did not panic on invalid input")
		}
	}()
	MustRect([]float64{1}, []float64{0})
}

func TestVolume(t *testing.T) {
	cases := []struct {
		r    Rect
		want float64
	}{
		{rect2(0, 0, 1, 1), 1},
		{rect2(0, 0, 2, 3), 6},
		{rect2(0, 0, 0, 5), 0},
		{rect2(-1, -1, 1, 1), 4},
		{MustRect([]float64{0, 0, 0}, []float64{2, 2, 2}), 8},
	}
	for _, c := range cases {
		if got := c.r.Volume(); got != c.want {
			t.Errorf("Volume(%v) = %g, want %g", c.r, got, c.want)
		}
	}
}

func TestContainsPoint(t *testing.T) {
	r := rect2(0, 0, 2, 2)
	for _, p := range []Point{{0, 0}, {2, 2}, {1, 1}, {0, 2}} {
		if !r.ContainsPoint(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{{-0.1, 1}, {1, 2.1}, {3, 3}} {
		if r.ContainsPoint(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
	if r.ContainsPoint(Point{1}) {
		t.Error("dimension-mismatched point reported contained")
	}
}

func TestContainsRect(t *testing.T) {
	outer := rect2(0, 0, 10, 10)
	if !outer.Contains(rect2(1, 1, 9, 9)) {
		t.Error("strict subset not contained")
	}
	if !outer.Contains(outer) {
		t.Error("rect must contain itself")
	}
	if outer.Contains(rect2(5, 5, 11, 9)) {
		t.Error("overflowing rect reported contained")
	}
	if outer.Contains(MustRect([]float64{0}, []float64{1})) {
		t.Error("dimension mismatch reported contained")
	}
}

func TestIntersect(t *testing.T) {
	a := rect2(0, 0, 4, 4)
	b := rect2(2, 2, 6, 6)
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(rect2(2, 2, 4, 4)) {
		t.Errorf("Intersect = %v, %v; want [2,4]x[2,4]", got, ok)
	}
	if _, ok := a.Intersect(rect2(5, 5, 6, 6)); ok {
		t.Error("disjoint rectangles reported intersecting")
	}
	// Touching boundary: closed intersection non-empty, open intersection empty.
	c := rect2(4, 0, 8, 4)
	if !a.Intersects(c) {
		t.Error("touching rectangles should intersect (closed)")
	}
	if a.IntersectsOpen(c) {
		t.Error("touching rectangles must not intersect (open)")
	}
	if v := a.IntersectionVolume(c); v != 0 {
		t.Errorf("touching intersection volume = %g, want 0", v)
	}
	if v := a.IntersectionVolume(b); v != 4 {
		t.Errorf("intersection volume = %g, want 4", v)
	}
}

func TestEnclose(t *testing.T) {
	a := rect2(0, 0, 1, 1)
	b := rect2(3, -2, 4, 0.5)
	got := a.Enclose(b)
	if !got.Equal(rect2(0, -2, 4, 1)) {
		t.Errorf("Enclose = %v", got)
	}
}

func TestShrinkBasic(t *testing.T) {
	// Candidate [0,4]x[0,4]; cutter overlaps the right side. Best cut keeps
	// [0,3]x[0,4] (volume 12) over cutting vertically.
	cand := rect2(0, 0, 4, 4)
	cutter := rect2(3, 1, 5, 3)
	got := cand.Shrink(cutter)
	if !got.Equal(rect2(0, 0, 3, 4)) {
		t.Errorf("Shrink = %v, want [0,3]x[0,4]", got)
	}
	// Disjoint cutter leaves the candidate unchanged.
	got = cand.Shrink(rect2(10, 10, 12, 12))
	if !got.Equal(cand) {
		t.Errorf("Shrink with disjoint cutter = %v", got)
	}
	// Cutter covering the candidate entirely yields a degenerate rectangle.
	got = cand.Shrink(rect2(-1, -1, 5, 5))
	if got.Volume() != 0 {
		t.Errorf("Shrink with covering cutter has volume %g, want 0", got.Volume())
	}
	// Cutter strictly inside: the cut must remove the overlap along one axis.
	got = cand.Shrink(rect2(1, 1, 2, 2))
	if got.IntersectsOpen(rect2(1, 1, 2, 2)) {
		t.Errorf("Shrink result %v still overlaps interior cutter", got)
	}
	if got.Volume() != 8 { // best cut keeps [2,4]x[0,4] or [0,4]x[2,4]
		t.Errorf("Shrink interior volume = %g, want 8", got.Volume())
	}
}

func TestCubeAtClamping(t *testing.T) {
	dom := rect2(0, 0, 10, 10)
	q := CubeAt(Point{0.1, 5}, 2, dom)
	if math.Abs(q.Volume()-4) > 1e-12 {
		t.Errorf("clamped cube volume = %g, want 4", q.Volume())
	}
	if !dom.Contains(q) {
		t.Errorf("clamped cube %v escapes domain", q)
	}
	// Oversized side falls back to the domain extent.
	q = CubeAt(Point{5, 5}, 100, dom)
	if !q.Equal(dom) {
		t.Errorf("oversized cube = %v, want the domain", q)
	}
}

func TestSideForVolumeFraction(t *testing.T) {
	dom := MustRect([]float64{0, 0, 0}, []float64{10, 10, 10})
	sides := SideForVolumeFraction(dom, 0.01)
	want := math.Pow(0.01, 1.0/3) * 10
	for d, s := range sides {
		if math.Abs(s-want) > 1e-12 {
			t.Errorf("side[%d] = %g, want %g", d, s, want)
		}
	}
	// Product of fractional sides equals the requested volume fraction.
	q := BoxAt(Point{5, 5, 5}, sides, dom)
	if math.Abs(q.Volume()/dom.Volume()-0.01) > 1e-9 {
		t.Errorf("volume fraction = %g, want 0.01", q.Volume()/dom.Volume())
	}
}

// --- property-based tests -------------------------------------------------

// randRect draws a random rectangle with the given dimensionality inside
// [-50, 50]^dims.
func randRect(rng *rand.Rand, dims int) Rect {
	lo := make(Point, dims)
	hi := make(Point, dims)
	for d := 0; d < dims; d++ {
		a := rng.Float64()*100 - 50
		b := rng.Float64()*100 - 50
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return Rect{Lo: lo, Hi: hi}
}

func TestQuickIntersectionVolumeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		dims := 1 + rng.Intn(5)
		a := randRect(rng, dims)
		b := randRect(rng, dims)
		iv := a.IntersectionVolume(b)
		return iv <= a.Volume()+1e-9 && iv <= b.Volume()+1e-9 && iv >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		dims := 1 + rng.Intn(5)
		a := randRect(rng, dims)
		b := randRect(rng, dims)
		ab, okAB := a.Intersect(b)
		ba, okBA := b.Intersect(a)
		if okAB != okBA {
			return false
		}
		return !okAB || ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectionContainedInBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		dims := 1 + rng.Intn(5)
		a := randRect(rng, dims)
		b := randRect(rng, dims)
		iv, ok := a.Intersect(b)
		return !ok || (a.Contains(iv) && b.Contains(iv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncloseContainsBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		dims := 1 + rng.Intn(5)
		a := randRect(rng, dims)
		b := randRect(rng, dims)
		e := a.Enclose(b)
		return e.Contains(a) && e.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainmentTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		dims := 1 + rng.Intn(4)
		a := randRect(rng, dims)
		// b inside a, c inside b, by shrinking toward the center.
		b := a.Clone()
		c := a.Clone()
		for d := 0; d < dims; d++ {
			m := (a.Lo[d] + a.Hi[d]) / 2
			b.Lo[d] = (a.Lo[d] + m) / 2
			b.Hi[d] = (a.Hi[d] + m) / 2
			c.Lo[d] = (b.Lo[d] + m) / 2
			c.Hi[d] = (b.Hi[d] + m) / 2
		}
		return a.Contains(b) && b.Contains(c) && a.Contains(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickShrinkProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		dims := 1 + rng.Intn(4)
		r := randRect(rng, dims)
		cutter := randRect(rng, dims)
		s := r.Shrink(cutter)
		// Shrink output stays inside the input and never overlaps the
		// cutter's interior.
		if !r.Contains(s) {
			return false
		}
		if s.Volume() > 0 && s.IntersectsOpen(cutter) {
			return false
		}
		return s.Volume() <= r.Volume()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickShrinkKeepsMaxVolumeCut(t *testing.T) {
	// The shrink result must be at least as large as every single-dimension
	// cut candidate, because it is defined as the best of them.
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		dims := 1 + rng.Intn(3)
		r := randRect(rng, dims)
		cutter := randRect(rng, dims)
		if !r.IntersectsOpen(cutter) {
			return true
		}
		s := r.Shrink(cutter)
		for d := 0; d < dims; d++ {
			if cutter.Lo[d] > r.Lo[d] {
				cand := r.Clone()
				cand.Hi[d] = math.Min(cand.Hi[d], cutter.Lo[d])
				if cand.Volume() > s.Volume()+1e-9 {
					return false
				}
			}
			if cutter.Hi[d] < r.Hi[d] {
				cand := r.Clone()
				cand.Lo[d] = math.Max(cand.Lo[d], cutter.Hi[d])
				if cand.Volume() > s.Volume()+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectString(t *testing.T) {
	r := rect2(0, 1, 2, 3)
	if got, want := r.String(), "[0,2]x[1,3]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

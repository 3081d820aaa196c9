package geom

import (
	"math/rand"
	"testing"
)

// TestIntoVariantsMatchAllocating: the In-place kernels must produce exactly
// the rectangles their allocating counterparts produce, across random pairs
// and dimensionalities (including degenerate and disjoint rectangles).
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var dst Rect
	for trial := 0; trial < 5000; trial++ {
		dims := 1 + rng.Intn(5)
		r := randRect(rng, dims)
		s := randRect(rng, dims)

		want, wantOK := r.Intersect(s)
		gotOK := r.IntersectInto(s, &dst)
		if gotOK != wantOK {
			t.Fatalf("IntersectInto ok=%v, Intersect ok=%v for %v, %v", gotOK, wantOK, r, s)
		}
		if wantOK && !dst.Equal(want) {
			t.Fatalf("IntersectInto %v != Intersect %v", dst, want)
		}

		r.EncloseInto(s, &dst)
		if want := r.Enclose(s); !dst.Equal(want) {
			t.Fatalf("EncloseInto %v != Enclose %v", dst, want)
		}

		r.ShrinkInto(s, &dst)
		if want := r.Shrink(s); !dst.Equal(want) {
			t.Fatalf("ShrinkInto %v != Shrink %v for r=%v cutter=%v", dst, want, r, s)
		}
	}
}

// TestIntoVariantsAliasing: dst may alias the receiver, which is how the
// drill loop shrinks candidates in place.
func TestIntoVariantsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		dims := 1 + rng.Intn(4)
		r := randRect(rng, dims)
		s := randRect(rng, dims)

		want, wantOK := r.Intersect(s)
		got := r.Clone()
		if ok := got.IntersectInto(s, &got); ok != wantOK {
			t.Fatalf("aliased IntersectInto ok=%v want %v", ok, wantOK)
		} else if ok && !got.Equal(want) {
			t.Fatalf("aliased IntersectInto %v != %v", got, want)
		}

		wantEnc := r.Enclose(s)
		got = r.Clone()
		got.EncloseInto(s, &got)
		if !got.Equal(wantEnc) {
			t.Fatalf("aliased EncloseInto %v != %v", got, wantEnc)
		}

		wantShr := r.Shrink(s)
		got = r.Clone()
		got.ShrinkInto(s, &got)
		if !got.Equal(wantShr) {
			t.Fatalf("aliased ShrinkInto %v != %v", got, wantShr)
		}
	}
}

// TestIntoVariantsZeroAlloc: with a warmed destination the kernels must not
// allocate — this is the invariant the sthole drill loop depends on. Every
// kernel the drill and estimate paths call gets its own case, so an
// allocation in any one of them fails this package's tests directly.
func TestIntoVariantsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := randRect(rng, 4)
	s := randRect(rng, 4)
	over := r.Enclose(s) // guaranteed to intersect both
	var dst Rect
	r.CopyInto(&dst) // warm the scratch

	for _, k := range []struct {
		name string
		run  func()
	}{
		{"IntersectInto", func() { over.IntersectInto(s, &dst) }},
		{"EncloseInto", func() { r.EncloseInto(s, &dst) }},
		{"ShrinkInto", func() { over.ShrinkInto(s, &dst) }},
		{"CopyInto", func() { r.CopyInto(&dst) }},
		{"Intersects", func() { over.Intersects(s) }},
		{"IntersectsOpen", func() { over.IntersectsOpen(s) }},
		{"IntersectionVolume", func() { over.IntersectionVolume(s) }},
		{"volumeWithSide", func() { over.volumeWithSide(1, 0.5) }},
	} {
		if allocs := testing.AllocsPerRun(100, k.run); allocs != 0 {
			t.Errorf("%s allocates %g times, want 0", k.name, allocs)
		}
	}
}

// TestShrinkIntoCoveredCollapse: a cutter covering r collapses it to a
// zero-extent slab, matching Shrink.
func TestShrinkIntoCoveredCollapse(t *testing.T) {
	r := MustRect([]float64{2, 2}, []float64{4, 4})
	cutter := MustRect([]float64{0, 0}, []float64{10, 10})
	var dst Rect
	r.ShrinkInto(cutter, &dst)
	if dst.Volume() != 0 {
		t.Errorf("covered ShrinkInto volume = %g, want 0", dst.Volume())
	}
	if want := r.Shrink(cutter); !dst.Equal(want) {
		t.Errorf("covered ShrinkInto %v != Shrink %v", dst, want)
	}
}

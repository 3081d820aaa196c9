package geom

import "testing"

// These tests pin ShrinkInto's behavior on the degenerate geometries the
// drill loop produces at bucket boundaries — zero-volume rectangles, cutters
// that fully contain the candidate, and cuts that collapse a dimension to a
// point — and assert that every one of them stays allocation-free with a
// warmed destination.

// shrinkAllocs runs r.ShrinkInto(cutter, dst) with warmed scratch and
// returns the steady-state allocation count.
func shrinkAllocs(r, cutter Rect, dst *Rect) float64 {
	r.CopyInto(dst) // warm dst to r's dimensionality
	return testing.AllocsPerRun(100, func() { r.ShrinkInto(cutter, dst) })
}

// TestShrinkIntoZeroVolumeReceiver: IntersectsOpen's per-dimension interval
// test cannot distinguish an empty interior from a thin one, so a
// zero-extent candidate whose slab crosses the cutter still gets cut along a
// live dimension. The estimates downstream depend on ShrinkInto being
// bit-identical to Shrink here, so this pins the actual (slab-cutting)
// semantics rather than an idealized no-op.
func TestShrinkIntoZeroVolumeReceiver(t *testing.T) {
	r := MustRect([]float64{2, 3}, []float64{2, 7}) // zero extent in dim 0
	cutter := MustRect([]float64{1, 4}, []float64{3, 6})
	var dst Rect
	r.ShrinkInto(cutter, &dst)
	if want := r.Shrink(cutter); !dst.Equal(want) {
		t.Errorf("ShrinkInto %v != Shrink %v", dst, want)
	}
	if want := MustRect([]float64{2, 3}, []float64{2, 4}); !dst.Equal(want) {
		t.Errorf("degenerate receiver: got %v, want the dim-1 cut %v", dst, want)
	}
	if dst.Volume() != 0 {
		t.Errorf("degenerate receiver must stay zero-volume, got %v", dst)
	}
	if dst.IntersectsOpen(cutter) {
		t.Errorf("shrunk slab %v still openly intersects cutter %v", dst, cutter)
	}
	if allocs := shrinkAllocs(r, cutter, &dst); allocs != 0 {
		t.Errorf("zero-volume ShrinkInto allocates %g times, want 0", allocs)
	}
}

// TestShrinkIntoZeroVolumeCutter: symmetrically, a zero-extent cutter
// crossing the candidate's interior still forces a cut — the candidate is
// sliced at the cutter's slab, matching Shrink bit for bit.
func TestShrinkIntoZeroVolumeCutter(t *testing.T) {
	r := MustRect([]float64{0, 0}, []float64{4, 4})
	cutter := MustRect([]float64{2, 1}, []float64{2, 3}) // zero extent in dim 0
	var dst Rect
	r.ShrinkInto(cutter, &dst)
	if want := r.Shrink(cutter); !dst.Equal(want) {
		t.Errorf("ShrinkInto %v != Shrink %v", dst, want)
	}
	if want := MustRect([]float64{0, 0}, []float64{2, 4}); !dst.Equal(want) {
		t.Errorf("degenerate cutter: got %v, want the dim-0 slice %v", dst, want)
	}
	if allocs := shrinkAllocs(r, cutter, &dst); allocs != 0 {
		t.Errorf("zero-volume-cutter ShrinkInto allocates %g times, want 0", allocs)
	}
}

// TestShrinkIntoFullContainment covers both containment directions: a cutter
// strictly inside r forces a genuine cut (the cheapest face), while a cutter
// containing r collapses it to a zero-volume slab on dimension 0.
func TestShrinkIntoFullContainment(t *testing.T) {
	outer := MustRect([]float64{0, 0, 0}, []float64{10, 8, 6})
	inner := MustRect([]float64{4, 3, 2}, []float64{6, 5, 4})

	var dst Rect
	outer.ShrinkInto(inner, &dst)
	if want := outer.Shrink(inner); !dst.Equal(want) {
		t.Errorf("cutter-inside ShrinkInto %v != Shrink %v", dst, want)
	}
	if dst.IntersectsOpen(inner) {
		t.Errorf("shrunk candidate %v still openly intersects cutter %v", dst, inner)
	}
	if dst.Volume() <= 0 {
		t.Errorf("cutter-inside shrink should keep positive volume, got %v", dst)
	}
	if allocs := shrinkAllocs(outer, inner, &dst); allocs != 0 {
		t.Errorf("cutter-inside ShrinkInto allocates %g times, want 0", allocs)
	}

	inner.ShrinkInto(outer, &dst)
	if dst.Volume() != 0 {
		t.Errorf("candidate covered by cutter must collapse to zero volume, got %v", dst)
	}
	if dst.Lo[0] != dst.Hi[0] {
		t.Errorf("collapse convention is a zero-extent slab on dim 0, got %v", dst)
	}
	if want := inner.Shrink(outer); !dst.Equal(want) {
		t.Errorf("covered ShrinkInto %v != Shrink %v", dst, want)
	}
	if allocs := shrinkAllocs(inner, outer, &dst); allocs != 0 {
		t.Errorf("covered ShrinkInto allocates %g times, want 0", allocs)
	}
}

// TestShrinkIntoOneDCollapse: in one dimension a partially-overlapping
// cutter slices the candidate down to the uncovered interval, and a cutter
// covering the whole interval collapses it to a point.
func TestShrinkIntoOneDCollapse(t *testing.T) {
	r := MustRect([]float64{0}, []float64{10})

	// Partial overlap from the right: keep the low side.
	cutter := MustRect([]float64{6}, []float64{12})
	var dst Rect
	r.ShrinkInto(cutter, &dst)
	if want := MustRect([]float64{0}, []float64{6}); !dst.Equal(want) {
		t.Errorf("1-d right cut: got %v, want %v", dst, want)
	}

	// Partial overlap from the left: keep the high side.
	cutter = MustRect([]float64{-3}, []float64{4})
	r.ShrinkInto(cutter, &dst)
	if want := MustRect([]float64{4}, []float64{10}); !dst.Equal(want) {
		t.Errorf("1-d left cut: got %v, want %v", dst, want)
	}

	// Cutter covering the whole interval: collapse to a point.
	cutter = MustRect([]float64{-1}, []float64{11})
	r.ShrinkInto(cutter, &dst)
	if dst.Volume() != 0 || dst.Lo[0] != dst.Hi[0] {
		t.Errorf("1-d covered cut should collapse to a point, got %v", dst)
	}
	if want := r.Shrink(cutter); !dst.Equal(want) {
		t.Errorf("1-d covered ShrinkInto %v != Shrink %v", dst, want)
	}
	if allocs := shrinkAllocs(r, cutter, &dst); allocs != 0 {
		t.Errorf("1-d ShrinkInto allocates %g times, want 0", allocs)
	}
}

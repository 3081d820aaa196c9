// Package geom provides the n-dimensional axis-parallel geometry primitives
// that every other module in sthist builds on: points, rectangles (boxes),
// volume computation, intersection, containment, enclosure and the
// per-dimension shrinking operation that STHoles uses to turn non-rectangular
// bucket/query intersections into rectangular candidate holes.
//
// All rectangles are closed-open style with respect to containment of points
// on the boundary being permitted on both ends: a point p is inside r when
// Lo[d] <= p[d] <= Hi[d] for every dimension d. Degenerate rectangles (zero
// extent in some dimension) are legal; their volume is zero.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in n-dimensional attribute-value space.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Rect is an axis-parallel n-dimensional rectangle described by its lower and
// upper corners. Lo and Hi must have the same length and satisfy
// Lo[d] <= Hi[d] for every d; use NewRect to have this validated.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from corner slices, validating that they are
// consistent. The slices are not copied; use Clone if the caller retains them.
func NewRect(lo, hi []float64) (Rect, error) {
	if len(lo) != len(hi) {
		return Rect{}, fmt.Errorf("geom: corner dimensionality mismatch %d vs %d", len(lo), len(hi))
	}
	if len(lo) == 0 {
		return Rect{}, fmt.Errorf("geom: zero-dimensional rectangle")
	}
	for d := range lo {
		if math.IsNaN(lo[d]) || math.IsNaN(hi[d]) {
			return Rect{}, fmt.Errorf("geom: NaN corner in dimension %d", d)
		}
		if lo[d] > hi[d] {
			return Rect{}, fmt.Errorf("geom: inverted interval in dimension %d: [%g, %g]", d, lo[d], hi[d])
		}
	}
	return Rect{Lo: lo, Hi: hi}, nil
}

// MustRect is NewRect that panics on invalid input. Intended for literals in
// tests and generators where the input is known-valid.
func MustRect(lo, hi []float64) Rect {
	r, err := NewRect(lo, hi)
	if err != nil {
		panic(err)
	}
	return r
}

// Dims returns the dimensionality of r.
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// Side returns the extent of r along dimension d.
func (r Rect) Side(d int) float64 { return r.Hi[d] - r.Lo[d] }

// Volume returns the n-dimensional volume of r. A degenerate rectangle has
// volume zero.
func (r Rect) Volume() float64 {
	v := 1.0
	for d := range r.Lo {
		v *= r.Hi[d] - r.Lo[d]
	}
	return v
}

// ContainsPoint reports whether p lies inside r (boundaries inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	if len(p) != len(r.Lo) {
		return false
	}
	for d := range p {
		if p[d] < r.Lo[d] || p[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Contains reports whether s lies entirely inside r (boundaries inclusive).
func (r Rect) Contains(s Rect) bool {
	if s.Dims() != r.Dims() {
		return false
	}
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] || s.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Equal reports whether r and s describe the same rectangle.
func (r Rect) Equal(s Rect) bool {
	if r.Dims() != s.Dims() {
		return false
	}
	for d := range r.Lo {
		if r.Lo[d] != s.Lo[d] || r.Hi[d] != s.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share any volume or touch. Rectangles
// that only share a boundary intersect with zero-volume overlap. It does not
// allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) Intersects(s Rect) bool {
	if r.Dims() != s.Dims() {
		return false
	}
	for d := range r.Lo {
		if s.Hi[d] < r.Lo[d] || s.Lo[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// IntersectsOpen reports whether r and s share strictly positive volume,
// i.e. their interiors overlap. It does not allocate
// (TestIntoVariantsZeroAlloc pins this).
func (r Rect) IntersectsOpen(s Rect) bool {
	if r.Dims() != s.Dims() {
		return false
	}
	for d := range r.Lo {
		if s.Hi[d] <= r.Lo[d] || s.Lo[d] >= r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of r and s and whether it is non-empty.
// The result is a fresh rectangle; r and s are unchanged.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	var out Rect
	if !r.IntersectInto(s, &out) {
		return Rect{}, false
	}
	return out, true
}

// setDims resizes r's corner slices to n dimensions, reusing their backing
// arrays when the capacity allows. The slice contents are unspecified after
// the call; callers overwrite every dimension.
func (r *Rect) setDims(n int) {
	if cap(r.Lo) >= n {
		r.Lo = r.Lo[:n]
	} else {
		r.Lo = make(Point, n)
	}
	if cap(r.Hi) >= n {
		r.Hi = r.Hi[:n]
	} else {
		r.Hi = make(Point, n)
	}
}

// CopyInto writes r into dst, reusing dst's corner slices when they have
// sufficient capacity. dst may alias r. With a warmed dst it does not
// allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) CopyInto(dst *Rect) {
	dst.setDims(len(r.Lo))
	copy(dst.Lo, r.Lo)
	copy(dst.Hi, r.Hi)
}

// IntersectInto is the allocation-free variant of Intersect: it writes r ∩ s
// into dst, reusing dst's corner slices when they have sufficient capacity,
// and reports whether the intersection is non-empty (dst is untouched when it
// is empty). dst may alias r or s. With a warmed dst it does not allocate
// (TestIntoVariantsZeroAlloc pins this).
func (r Rect) IntersectInto(s Rect, dst *Rect) bool {
	if !r.Intersects(s) {
		return false
	}
	dst.setDims(len(r.Lo))
	for d := range r.Lo {
		dst.Lo[d] = math.Max(r.Lo[d], s.Lo[d])
		dst.Hi[d] = math.Min(r.Hi[d], s.Hi[d])
	}
	return true
}

// IntersectionVolume returns Volume(r ∩ s), zero if disjoint. It does not
// allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) IntersectionVolume(s Rect) float64 {
	v := 1.0
	for d := range r.Lo {
		lo := math.Max(r.Lo[d], s.Lo[d])
		hi := math.Min(r.Hi[d], s.Hi[d])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Enclose returns the minimal rectangle containing both r and s.
func (r Rect) Enclose(s Rect) Rect {
	var out Rect
	r.EncloseInto(s, &out)
	return out
}

// EncloseInto is the allocation-free variant of Enclose: it writes the
// minimal rectangle containing both r and s into dst, reusing dst's corner
// slices when they have sufficient capacity. dst may alias r or s, so a
// rectangle can be grown in place with r.EncloseInto(s, &r). With a warmed
// dst it does not allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) EncloseInto(s Rect, dst *Rect) {
	dst.setDims(len(r.Lo))
	for d := range r.Lo {
		dst.Lo[d] = math.Min(r.Lo[d], s.Lo[d])
		dst.Hi[d] = math.Max(r.Hi[d], s.Hi[d])
	}
}

// Shrink returns the largest-volume sub-rectangle of r obtained by cutting r
// along a single dimension so that the result no longer overlaps cutter's
// interior. This is the elementary step of STHoles candidate-hole shrinking:
// when a candidate hole partially intersects an existing child bucket, the
// candidate is cut along the dimension/direction that sacrifices the least
// volume. If cutter does not overlap r's interior, r is returned unchanged.
// If cutter fully covers r in every dimension, the result is a degenerate
// (zero-volume) rectangle produced by the least-bad cut.
func (r Rect) Shrink(cutter Rect) Rect {
	var out Rect
	r.ShrinkInto(cutter, &out)
	return out
}

// ShrinkInto is the allocation-free variant of Shrink: it writes the shrunk
// rectangle into dst, reusing dst's corner slices when they have sufficient
// capacity. dst may alias r, so a candidate hole can be shrunk in place with
// r.ShrinkInto(cutter, &r). The cut chosen is bit-identical to Shrink's: the
// candidate volumes are evaluated with the same per-dimension multiplication
// order, just without materializing the candidate rectangles. With a warmed
// dst it does not allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) ShrinkInto(cutter Rect, dst *Rect) {
	if !r.IntersectsOpen(cutter) {
		r.CopyInto(dst)
		return
	}
	bestVol := -1.0
	bestDim := -1
	bestKeepLow := false
	bestBound := 0.0
	for d := range r.Lo {
		// Cut keeping the low side: r.Hi[d] -> cutter.Lo[d].
		if cutter.Lo[d] > r.Lo[d] {
			hi := math.Min(r.Hi[d], cutter.Lo[d])
			if v := r.volumeWithSide(d, hi-r.Lo[d]); v > bestVol {
				bestVol, bestDim, bestKeepLow, bestBound = v, d, true, hi
			}
		}
		// Cut keeping the high side: r.Lo[d] -> cutter.Hi[d].
		if cutter.Hi[d] < r.Hi[d] {
			lo := math.Max(r.Lo[d], cutter.Hi[d])
			if v := r.volumeWithSide(d, r.Hi[d]-lo); v > bestVol {
				bestVol, bestDim, bestKeepLow, bestBound = v, d, false, lo
			}
		}
	}
	r.CopyInto(dst)
	if bestVol < 0 {
		// cutter covers r in every dimension: collapse r to a zero-extent
		// slab on its first dimension so callers see an empty candidate.
		dst.Hi[0] = dst.Lo[0]
		return
	}
	if bestKeepLow {
		dst.Hi[bestDim] = bestBound
	} else {
		dst.Lo[bestDim] = bestBound
	}
}

// volumeWithSide returns r's volume with the extent on dimension d replaced
// by side, multiplying in the same dimension order as Volume so results are
// bit-identical to evaluating Volume on a modified clone. It does not
// allocate (TestIntoVariantsZeroAlloc pins this).
func (r Rect) volumeWithSide(d int, side float64) float64 {
	v := 1.0
	for dd := range r.Lo {
		if dd == d {
			v *= side
		} else {
			v *= r.Hi[dd] - r.Lo[dd]
		}
	}
	return v
}

// String renders r as [lo1,hi1]x[lo2,hi2]x...
func (r Rect) String() string {
	var b strings.Builder
	for d := range r.Lo {
		if d > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%g,%g]", r.Lo[d], r.Hi[d])
	}
	return b.String()
}

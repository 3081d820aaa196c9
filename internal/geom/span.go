package geom

import "math"

// UnitRect returns the d-dimensional rectangle [0,1]^d.
func UnitRect(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := range hi {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// CubeAt returns the axis-parallel cube of the given side length centered at
// c, clamped to stay inside domain. The clamping shifts the cube rather than
// truncating it, so the returned query keeps its full volume whenever the
// side fits inside the domain (the workload generators rely on this to
// produce fixed-volume queries near the domain boundary).
func CubeAt(c Point, side float64, domain Rect) Rect {
	lo := make(Point, len(c))
	hi := make(Point, len(c))
	for d := range c {
		l := c[d] - side/2
		h := c[d] + side/2
		if l < domain.Lo[d] {
			h += domain.Lo[d] - l
			l = domain.Lo[d]
		}
		if h > domain.Hi[d] {
			l -= h - domain.Hi[d]
			h = domain.Hi[d]
		}
		// If the side exceeds the domain extent, fall back to the domain.
		if l < domain.Lo[d] {
			l = domain.Lo[d]
		}
		lo[d] = l
		hi[d] = h
	}
	return Rect{Lo: lo, Hi: hi}
}

// BoxAt is CubeAt with per-dimension side lengths.
func BoxAt(c Point, sides []float64, domain Rect) Rect {
	lo := make(Point, len(c))
	hi := make(Point, len(c))
	for d := range c {
		l := c[d] - sides[d]/2
		h := c[d] + sides[d]/2
		if l < domain.Lo[d] {
			h += domain.Lo[d] - l
			l = domain.Lo[d]
		}
		if h > domain.Hi[d] {
			l -= h - domain.Hi[d]
			h = domain.Hi[d]
		}
		if l < domain.Lo[d] {
			l = domain.Lo[d]
		}
		lo[d] = l
		hi[d] = h
	}
	return Rect{Lo: lo, Hi: hi}
}

// SideForVolumeFraction returns the side length of a cube occupying the given
// fraction of domain's volume, assuming the cube scales uniformly relative to
// the domain's per-dimension extents. For a non-cubic domain the returned
// value is a per-dimension slice: side[d] = frac^(1/dims) * extent(d).
func SideForVolumeFraction(domain Rect, frac float64) []float64 {
	dims := domain.Dims()
	scale := math.Pow(frac, 1/float64(dims))
	sides := make([]float64, dims)
	for d := 0; d < dims; d++ {
		sides[d] = scale * domain.Side(d)
	}
	return sides
}

// Package datagen produces the synthetic datasets of the paper's evaluation
// (§5.1) plus the synthetic stand-ins for datasets we cannot ship:
//
//   - Cross: 2-dimensional, two orthogonal one-dimensional bars crossing in
//     the middle of the domain (Fig. 9), 10,000 tuples per bar plus 2,000
//     noise tuples.
//   - CrossN: the 3/4/5-dimensional variants of Table 3 — n clusters, each
//     (n-1)-dimensional, with constant cluster density across dimensions.
//   - Gauss: 6-dimensional, Gaussian bells drawn in random k-dimensional
//     subspaces (2 <= k <= 5), 100,000 clustered + 10,000 noise tuples.
//   - SkySim: synthetic stand-in for the Sloan Digital Sky Survey dataset
//     (see DESIGN.md, Substitutions) — 7 dimensions, 20 clusters whose
//     unused-dimension signatures mirror Table 4 of the paper.
//   - ParticleSim: 18-dimensional stand-in for the tech report's particle
//     physics dataset.
//
// Every generator takes a deterministic seed and a scale factor; scale 1.0
// reproduces the paper's tuple counts, smaller scales shrink every cluster
// proportionally so the structure (and therefore the qualitative results)
// is preserved while tests stay fast.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// DomainSide is the extent of every attribute: all synthetic datasets live in
// [0, DomainSide]^d like the Cross plot in the paper (Fig. 9).
const DomainSide = 1000.0

// Domain returns the d-dimensional generation domain [0,1000]^d.
func Domain(d int) geom.Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := range hi {
		hi[i] = DomainSide
	}
	return geom.MustRect(lo, hi)
}

// ClusterSpec describes one generated cluster: the box that bounds it, the
// dimensions on which it is constrained (subspace dimensions; the cluster
// spans the full domain on the others), and how many tuples it received.
// Generators return these as ground truth for tests and for the Table 4
// comparison.
type ClusterSpec struct {
	Box        geom.Rect
	UsedDims   []int // dimensions the cluster is constrained on (0-based)
	UnusedDims []int // dimensions the cluster spans fully (0-based)
	Tuples     int
	Gaussian   bool // tuple placement inside the box: Gaussian vs uniform
}

// Dataset bundles a generated table with its ground truth.
type Dataset struct {
	Name     string
	Table    *dataset.Table
	Domain   geom.Rect
	Clusters []ClusterSpec
	Noise    int
}

// scaleCount scales a paper-scale tuple count, keeping at least 1 tuple for
// any positive input so no cluster disappears entirely at small scales.
func scaleCount(n int, scale float64) int {
	if n <= 0 {
		return 0
	}
	s := int(math.Round(float64(n) * scale))
	if s < 1 {
		s = 1
	}
	return s
}

// addNoise appends n uniform tuples over the domain.
func addNoise(tab *dataset.Table, dom geom.Rect, n int, rng *rand.Rand) {
	tab.Grow(n)
	tuple := make([]float64, dom.Dims())
	for i := 0; i < n; i++ {
		for d := range tuple {
			tuple[d] = dom.Lo[d] + rng.Float64()*dom.Side(d)
		}
		tab.MustAppend(tuple)
	}
}

// fillUniform appends n tuples distributed uniformly inside box, spanning the
// full domain on every dimension not in usedDims. usedDims == nil means all
// dimensions are constrained.
func fillUniform(tab *dataset.Table, dom, box geom.Rect, usedDims []int, n int, rng *rand.Rand) {
	used := make([]bool, dom.Dims())
	if usedDims == nil {
		for d := range used {
			used[d] = true
		}
	} else {
		for _, d := range usedDims {
			used[d] = true
		}
	}
	tab.Grow(n)
	tuple := make([]float64, dom.Dims())
	for i := 0; i < n; i++ {
		for d := range tuple {
			if used[d] {
				tuple[d] = box.Lo[d] + rng.Float64()*box.Side(d)
			} else {
				tuple[d] = dom.Lo[d] + rng.Float64()*dom.Side(d)
			}
		}
		tab.MustAppend(tuple)
	}
}

// fillGaussian appends n tuples from a truncated Gaussian centered in box
// (stddev = side/6, resampled until inside) on the used dimensions, uniform
// over the domain on the rest.
func fillGaussian(tab *dataset.Table, dom, box geom.Rect, usedDims []int, n int, rng *rand.Rand) {
	used := make([]bool, dom.Dims())
	if usedDims == nil {
		for d := range used {
			used[d] = true
		}
	} else {
		for _, d := range usedDims {
			used[d] = true
		}
	}
	tab.Grow(n)
	tuple := make([]float64, dom.Dims())
	for i := 0; i < n; i++ {
		for d := range tuple {
			if !used[d] {
				tuple[d] = dom.Lo[d] + rng.Float64()*dom.Side(d)
				continue
			}
			mean := (box.Lo[d] + box.Hi[d]) / 2
			sigma := box.Side(d) / 6
			v := mean + rng.NormFloat64()*sigma
			for v < box.Lo[d] || v > box.Hi[d] {
				v = mean + rng.NormFloat64()*sigma
			}
			tuple[d] = v
		}
		tab.MustAppend(tuple)
	}
}

// complement returns the 0-based dimensions of a d-dimensional space not
// present in used.
func complement(used []int, d int) []int {
	in := make([]bool, d)
	for _, u := range used {
		in[u] = true
	}
	var out []int
	for i := 0; i < d; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// Cross generates the 2-dimensional Cross dataset of Fig. 9: two bars of
// 10,000 tuples each crossing at the domain center, plus 2,000 noise tuples
// (22,000 total at scale 1).
func Cross(scale float64, seed int64) *Dataset {
	return CrossN(2, scale, seed)
}

// crossPaperPerCluster returns the per-cluster tuple count for the
// d-dimensional Cross variant at paper scale (Tables 1 and 3). The paper
// keeps cluster density constant while growing dimensionality, which makes
// the totals explode: 22,000 / 9,000 / 360,000 / 13,500,000 tuples for
// d = 2..5. Noise is sized to keep the clustered:noise ratio of the 2d
// version (10:1).
func crossPaperPerCluster(d int) (perCluster, noise int, err error) {
	switch d {
	case 2:
		return 10000, 2000, nil
	case 3:
		return 2700, 900, nil // 9,000 total
	case 4:
		return 81000, 36000, nil // 360,000 total
	case 5:
		return 2430000, 1350000, nil // 13,500,000 total
	default:
		return 0, 0, fmt.Errorf("datagen: Cross defined for 2..5 dimensions, got %d", d)
	}
}

// CrossN generates the d-dimensional Cross variant: d clusters, cluster i
// being a (d-1)-dimensional bar confined to a band of 5%% of the domain on
// dimension i and spanning the full domain elsewhere.
func CrossN(d int, scale float64, seed int64) *Dataset {
	perCluster, noise, err := crossPaperPerCluster(d)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dom := Domain(d)
	tab := dataset.MustNew(dataset.GenericNames(d)...)
	ds := &Dataset{Name: fmt.Sprintf("Cross%dd", d), Table: tab, Domain: dom}

	const bandFrac = 0.05
	half := DomainSide * bandFrac / 2
	center := DomainSide / 2
	for i := 0; i < d; i++ {
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			if j == i {
				lo[j], hi[j] = center-half, center+half
			} else {
				lo[j], hi[j] = 0, DomainSide
			}
		}
		box := geom.MustRect(lo, hi)
		n := scaleCount(perCluster, scale)
		fillUniform(tab, dom, box, []int{i}, n, rng)
		ds.Clusters = append(ds.Clusters, ClusterSpec{
			Box:        box,
			UsedDims:   []int{i},
			UnusedDims: complement([]int{i}, d),
			Tuples:     n,
		})
	}
	ds.Noise = scaleCount(noise, scale)
	addNoise(tab, dom, ds.Noise, rng)
	return ds
}

// Gauss generates the 6-dimensional Gauss dataset: 10 Gaussian bells, each
// drawn in a random k-dimensional subspace (2 <= k <= 5) and spanning the
// domain on the remaining dimensions; 100,000 clustered tuples plus 10,000
// noise tuples at scale 1.
func Gauss(scale float64, seed int64) *Dataset {
	const (
		dims        = 6
		numClusters = 10
		perCluster  = 10000
		noise       = 10000
	)
	rng := rand.New(rand.NewSource(seed))
	dom := Domain(dims)
	tab := dataset.MustNew(dataset.GenericNames(dims)...)
	ds := &Dataset{Name: "Gauss", Table: tab, Domain: dom}

	for c := 0; c < numClusters; c++ {
		k := 2 + rng.Intn(4) // subspace dimensionality in [2,5]
		used := rng.Perm(dims)[:k]
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for j := 0; j < dims; j++ {
			lo[j], hi[j] = 0, DomainSide
		}
		for _, j := range used {
			side := 60 + rng.Float64()*120 // bell diameter 60..180
			c0 := rng.Float64() * (DomainSide - side)
			lo[j], hi[j] = c0, c0+side
		}
		box := geom.MustRect(lo, hi)
		n := scaleCount(perCluster, scale)
		fillGaussian(tab, dom, box, used, n, rng)
		ds.Clusters = append(ds.Clusters, ClusterSpec{
			Box:        box,
			UsedDims:   append([]int(nil), used...),
			UnusedDims: complement(used, dims),
			Tuples:     n,
			Gaussian:   true,
		})
	}
	ds.Noise = scaleCount(noise, scale)
	addNoise(tab, dom, ds.Noise, rng)
	return ds
}

// skyClusterTemplate mirrors one row of Table 4 in the paper: the dimensions
// the cluster does NOT use (1-based, as printed in the paper) and its tuple
// count at paper scale.
type skyClusterTemplate struct {
	unused1Based []int
	tuples       int
}

// skyTemplates reproduces Table 4: 11 full-dimensional clusters and 9
// subspace clusters over the 7-dimensional Sky schema.
var skyTemplates = []skyClusterTemplate{
	{nil, 207377},                 // C0
	{nil, 178394},                 // C1
	{nil, 153161},                 // C2
	{nil, 121384},                 // C3
	{nil, 114699},                 // C4
	{nil, 83026},                  // C5
	{[]int{1}, 218770},            // C6
	{nil, 54760},                  // C7
	{nil, 50846},                  // C8
	{nil, 40067},                  // C9
	{[]int{1}, 98438},             // C10
	{nil, 21495},                  // C11
	{nil, 17522},                  // C12
	{[]int{1, 2}, 153311},         // C13
	{[]int{1}, 17437},             // C14
	{[]int{1, 2}, 77112},          // C15
	{[]int{1, 2}, 39799},          // C16
	{[]int{1, 2, 7}, 21913},       // C17
	{[]int{1, 2, 3, 7}, 24084},    // C18
	{[]int{1, 2, 3, 5, 6}, 19236}, // C19
}

// SkySimColumns is the schema of the synthetic Sky dataset: two sky
// coordinates followed by five filter magnitudes, like the SDSS extract the
// paper uses.
var SkySimColumns = []string{"ra", "dec", "u", "g", "r", "i", "z"}

// SkySim generates the synthetic stand-in for the paper's SDSS Sky dataset:
// 7 dimensions, 20 clusters whose subspace signatures and relative sizes
// follow Table 4 (≈1.71M tuples at scale 1) plus 2%% background noise.
// Cluster boxes are placed at random; full-dimensional clusters are Gaussian
// (dense sky regions), subspace clusters are uniform inside their bands.
func SkySim(scale float64, seed int64) *Dataset {
	const dims = 7
	rng := rand.New(rand.NewSource(seed))
	dom := Domain(dims)
	tab := dataset.MustNew(SkySimColumns...)
	ds := &Dataset{Name: "Sky", Table: tab, Domain: dom}

	clusteredTotal := 0
	for _, tpl := range skyTemplates {
		unused := make([]int, len(tpl.unused1Based))
		for i, u := range tpl.unused1Based {
			unused[i] = u - 1 // paper prints 1-based dimensions
		}
		used := complement(unused, dims)
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for j := 0; j < dims; j++ {
			lo[j], hi[j] = 0, DomainSide
		}
		for _, j := range used {
			side := 80 + rng.Float64()*160 // cluster extent 80..240 per used dim
			c0 := rng.Float64() * (DomainSide - side)
			lo[j], hi[j] = c0, c0+side
		}
		box := geom.MustRect(lo, hi)
		n := scaleCount(tpl.tuples, scale)
		gaussian := len(unused) == 0
		if gaussian {
			fillGaussian(tab, dom, box, used, n, rng)
		} else {
			fillUniform(tab, dom, box, used, n, rng)
		}
		clusteredTotal += n
		ds.Clusters = append(ds.Clusters, ClusterSpec{
			Box:        box,
			UsedDims:   used,
			UnusedDims: unused,
			Tuples:     n,
			Gaussian:   gaussian,
		})
	}
	ds.Noise = clusteredTotal / 50 // 2% background noise
	addNoise(tab, dom, ds.Noise, rng)
	return ds
}

// ParticleSim generates the 18-dimensional stand-in for the technical
// report's particle physics dataset (5M tuples at scale 1): 25 clusters in
// random 3..8-dimensional subspaces plus 4%% noise.
func ParticleSim(scale float64, seed int64) *Dataset {
	const (
		dims        = 18
		numClusters = 25
		paperTotal  = 5000000
	)
	rng := rand.New(rand.NewSource(seed))
	dom := Domain(dims)
	tab := dataset.MustNew(dataset.GenericNames(dims)...)
	ds := &Dataset{Name: "Particle", Table: tab, Domain: dom}

	perCluster := paperTotal * 96 / 100 / numClusters
	for c := 0; c < numClusters; c++ {
		k := 3 + rng.Intn(6)
		used := rng.Perm(dims)[:k]
		lo := make([]float64, dims)
		hi := make([]float64, dims)
		for j := 0; j < dims; j++ {
			lo[j], hi[j] = 0, DomainSide
		}
		for _, j := range used {
			side := 60 + rng.Float64()*140
			c0 := rng.Float64() * (DomainSide - side)
			lo[j], hi[j] = c0, c0+side
		}
		box := geom.MustRect(lo, hi)
		n := scaleCount(perCluster, scale)
		fillGaussian(tab, dom, box, used, n, rng)
		ds.Clusters = append(ds.Clusters, ClusterSpec{
			Box:        box,
			UsedDims:   append([]int(nil), used...),
			UnusedDims: complement(used, dims),
			Tuples:     n,
			Gaussian:   true,
		})
	}
	ds.Noise = scaleCount(paperTotal*4/100, scale)
	addNoise(tab, dom, ds.Noise, rng)
	return ds
}

// ByName returns the named dataset generator output. Recognized names:
// cross, cross2d, cross3d, cross4d, cross5d, gauss, sky, particle, cars. The
// scale must be finite and positive: the generators keep one tuple per
// cluster however small it is, so a zero or negative scale would yield a
// table of a few tuples instead of an error.
func ByName(name string, scale float64, seed int64) (*Dataset, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("datagen: scale %v is not finite and positive", scale)
	}
	switch name {
	case "cross", "cross2d":
		return Cross(scale, seed), nil
	case "cross3d":
		return CrossN(3, scale, seed), nil
	case "cross4d":
		return CrossN(4, scale, seed), nil
	case "cross5d":
		return CrossN(5, scale, seed), nil
	case "gauss":
		return Gauss(scale, seed), nil
	case "sky":
		return SkySim(scale, seed), nil
	case "particle":
		return ParticleSim(scale, seed), nil
	case "cars":
		return CarsSim(scale, seed), nil
	default:
		return nil, fmt.Errorf("datagen: unknown dataset %q", name)
	}
}

// CarsSimColumns is the schema of the paper's introductory Cars relation
// (§1), with categorical attributes mapped to integers (footnote 1).
var CarsSimColumns = []string{"model", "manufacturer", "year", "color"}

// CarsSim generates the Cars(model, manufacturer, year, color) relation of
// the paper's introduction with its LOCAL correlations: model determines
// manufacturer (model/25), one manufacturer's cars are mostly one color
// ("Ferraris are typically red"), and one model was built only until 2003
// ("the Beetle"). 60,000 tuples at scale 1.
//
// Ground truth lists the two local-correlation clusters: the red-Ferrari
// block (constrained on model, manufacturer and color) and the Beetle block
// (constrained on model, manufacturer and year).
func CarsSim(scale float64, seed int64) *Dataset {
	const (
		paperTuples   = 60000
		ferrariMaker  = 7   // models 175..199
		beetleModel   = 300 // manufacturer 12
		redColor      = 1
		beetleLastYr  = 2003
		modelsPerMake = 25
	)
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.MustNew(CarsSimColumns...)
	dom := geom.MustRect(
		[]float64{0, 0, 1990, 0},
		[]float64{1000, 40, 2025, 12},
	)
	ds := &Dataset{Name: "Cars", Table: tab, Domain: dom}
	n := scaleCount(paperTuples, scale)
	tab.Grow(n)
	ferraris, beetles := 0, 0
	for i := 0; i < n; i++ {
		model := rng.Intn(1000)
		year := 1990 + rng.Float64()*35
		color := float64(rng.Intn(12))
		switch {
		case model/modelsPerMake == ferrariMaker:
			if rng.Float64() < 0.85 {
				color = redColor
				ferraris++
			}
		case model == beetleModel:
			year = 1990 + rng.Float64()*float64(beetleLastYr-1990)
			beetles++
		}
		tab.MustAppend([]float64{float64(model), float64(model / modelsPerMake), year, color})
	}
	ds.Clusters = []ClusterSpec{
		{
			Box: geom.MustRect(
				[]float64{float64(ferrariMaker * modelsPerMake), ferrariMaker, 1990, redColor},
				[]float64{float64((ferrariMaker+1)*modelsPerMake - 1), ferrariMaker, 2025, redColor},
			),
			UsedDims:   []int{0, 1, 3},
			UnusedDims: []int{2},
			Tuples:     ferraris,
		},
		{
			Box: geom.MustRect(
				[]float64{beetleModel, beetleModel / modelsPerMake, 1990, 0},
				[]float64{beetleModel, beetleModel / modelsPerMake, beetleLastYr, 12},
			),
			UsedDims:   []int{0, 1, 2},
			UnusedDims: []int{3},
			Tuples:     beetles,
		},
	}
	return ds
}

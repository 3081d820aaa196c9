package datagen

import (
	"math"
	"testing"

	"sthist/internal/geom"
)

func TestCrossPaperScaleCounts(t *testing.T) {
	// Table 1: Cross has 22,000 tuples (2 x 10,000 + 2,000 noise).
	ds := Cross(1.0, 1)
	if got := ds.Table.Len(); got != 22000 {
		t.Errorf("Cross tuples = %d, want 22000", got)
	}
	if len(ds.Clusters) != 2 {
		t.Fatalf("Cross clusters = %d, want 2", len(ds.Clusters))
	}
	for i, c := range ds.Clusters {
		if c.Tuples != 10000 {
			t.Errorf("cluster %d tuples = %d, want 10000", i, c.Tuples)
		}
		if len(c.UsedDims) != 1 || len(c.UnusedDims) != 1 {
			t.Errorf("cluster %d dims: used=%v unused=%v", i, c.UsedDims, c.UnusedDims)
		}
	}
}

func TestCrossNTable3Counts(t *testing.T) {
	// Table 3 tuple counts at paper scale.
	want := map[int]int{3: 9000, 4: 360000}
	for d, total := range want {
		ds := CrossN(d, 1.0, 1)
		if got := ds.Table.Len(); got != total {
			t.Errorf("Cross%dd tuples = %d, want %d", d, got, total)
		}
		if ds.Table.Dims() != d {
			t.Errorf("Cross%dd dims = %d", d, ds.Table.Dims())
		}
		if len(ds.Clusters) != d {
			t.Errorf("Cross%dd clusters = %d, want %d", d, len(ds.Clusters), d)
		}
	}
	// Cross5d at full scale is 13.5M tuples; verify via arithmetic, not
	// generation.
	per, noise, err := crossPaperPerCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := 5*per + noise; got != 13500000 {
		t.Errorf("Cross5d paper-scale total = %d, want 13500000", got)
	}
	if _, _, err := crossPaperPerCluster(6); err == nil {
		t.Error("Cross6d accepted")
	}
}

func TestCrossClusterMembership(t *testing.T) {
	ds := Cross(0.1, 2)
	// The first 1000 tuples belong to cluster 0 and must lie inside its box.
	box := ds.Clusters[0].Box
	for i := 0; i < ds.Clusters[0].Tuples; i++ {
		if !box.ContainsPoint(ds.Table.Point(i)) {
			t.Fatalf("tuple %d outside cluster 0 box", i)
		}
	}
	// Cluster 0 spans the full domain on its unused dimension.
	unused := ds.Clusters[0].UnusedDims[0]
	if box.Lo[unused] != 0 || box.Hi[unused] != DomainSide {
		t.Errorf("cluster 0 does not span dimension %d fully: %v", unused, box)
	}
	// Every tuple is inside the domain.
	for i := 0; i < ds.Table.Len(); i++ {
		if !ds.Domain.ContainsPoint(ds.Table.Point(i)) {
			t.Fatalf("tuple %d escapes the domain", i)
		}
	}
}

func TestGaussStructure(t *testing.T) {
	ds := Gauss(0.05, 3) // 5,500 tuples
	if ds.Table.Dims() != 6 {
		t.Fatalf("Gauss dims = %d", ds.Table.Dims())
	}
	if len(ds.Clusters) != 10 {
		t.Fatalf("Gauss clusters = %d", len(ds.Clusters))
	}
	wantLen := 0
	for _, c := range ds.Clusters {
		wantLen += c.Tuples
		k := len(c.UsedDims)
		if k < 2 || k > 5 {
			t.Errorf("cluster subspace dimensionality %d outside [2,5]", k)
		}
		if len(c.UsedDims)+len(c.UnusedDims) != 6 {
			t.Errorf("used+unused = %d+%d != 6", len(c.UsedDims), len(c.UnusedDims))
		}
		if !c.Gaussian {
			t.Error("Gauss cluster not marked Gaussian")
		}
	}
	wantLen += ds.Noise
	if ds.Table.Len() != wantLen {
		t.Errorf("Gauss tuples = %d, want %d", ds.Table.Len(), wantLen)
	}
}

func TestGaussPaperScaleArithmetic(t *testing.T) {
	// Table 1: Gauss has 110,000 tuples. Verify by scale arithmetic on a
	// small generation (scale 0.01 -> 1100).
	ds := Gauss(0.01, 4)
	if got := ds.Table.Len(); got != 1100 {
		t.Errorf("Gauss scale=0.01 tuples = %d, want 1100", got)
	}
}

func TestSkySimMirrorsTable4(t *testing.T) {
	ds := SkySim(0.01, 5)
	if ds.Table.Dims() != 7 {
		t.Fatalf("Sky dims = %d", ds.Table.Dims())
	}
	if len(ds.Clusters) != 20 {
		t.Fatalf("Sky clusters = %d, want 20", len(ds.Clusters))
	}
	fullDim, subspace := 0, 0
	for i, c := range ds.Clusters {
		if len(c.UnusedDims) == 0 {
			fullDim++
		} else {
			subspace++
		}
		// Unused signature must match Table 4 (template is 1-based).
		tpl := skyTemplates[i]
		if len(c.UnusedDims) != len(tpl.unused1Based) {
			t.Errorf("cluster C%d unused dims = %v, template %v", i, c.UnusedDims, tpl.unused1Based)
			continue
		}
		for j, u := range c.UnusedDims {
			if u != tpl.unused1Based[j]-1 {
				t.Errorf("cluster C%d unused[%d] = %d, want %d", i, j, u, tpl.unused1Based[j]-1)
			}
		}
	}
	if fullDim != 11 || subspace != 9 {
		t.Errorf("full-dim=%d subspace=%d, want 11/9 as in Table 4", fullDim, subspace)
	}
}

func TestSkySimPaperScaleTotal(t *testing.T) {
	// Table 1: Sky has ~1.7M tuples. Sum the templates plus 2% noise.
	total := 0
	for _, tpl := range skyTemplates {
		total += tpl.tuples
	}
	withNoise := total + total/50
	if withNoise < 1650000 || withNoise > 1800000 {
		t.Errorf("paper-scale Sky total = %d, want ~1.7M", withNoise)
	}
}

func TestParticleSim(t *testing.T) {
	ds := ParticleSim(0.002, 6) // ~10k tuples
	if ds.Table.Dims() != 18 {
		t.Fatalf("Particle dims = %d", ds.Table.Dims())
	}
	if len(ds.Clusters) != 25 {
		t.Fatalf("Particle clusters = %d", len(ds.Clusters))
	}
	for _, c := range ds.Clusters {
		if k := len(c.UsedDims); k < 3 || k > 8 {
			t.Errorf("particle cluster subspace dims = %d, want [3,8]", k)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cross", "cross2d", "cross3d", "cross4d", "gauss", "sky"} {
		ds, err := ByName(name, 0.005, 7)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if ds.Table.Len() == 0 {
			t.Errorf("ByName(%q) produced an empty table", name)
		}
	}
	if _, err := ByName("nope", 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	for _, scale := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ByName("cross", scale, 1); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Gauss(0.01, 99)
	b := Gauss(0.01, 99)
	if a.Table.Len() != b.Table.Len() {
		t.Fatal("same seed produced different sizes")
	}
	for i := 0; i < a.Table.Len(); i++ {
		for d := 0; d < a.Table.Dims(); d++ {
			if a.Table.Value(i, d) != b.Table.Value(i, d) {
				t.Fatalf("same seed produced different tuple %d", i)
			}
		}
	}
	c := Gauss(0.01, 100)
	same := true
	for i := 0; i < a.Table.Len() && same; i++ {
		for d := 0; d < a.Table.Dims(); d++ {
			if a.Table.Value(i, d) != c.Table.Value(i, d) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestDomain(t *testing.T) {
	dom := Domain(3)
	want := geom.MustRect([]float64{0, 0, 0}, []float64{1000, 1000, 1000})
	if !dom.Equal(want) {
		t.Errorf("Domain(3) = %v", dom)
	}
}

func TestCarsSim(t *testing.T) {
	ds := CarsSim(0.2, 51) // 12,000 tuples
	if ds.Table.Dims() != 4 || ds.Table.Len() != 12000 {
		t.Fatalf("CarsSim shape %dx%d", ds.Table.Len(), ds.Table.Dims())
	}
	if len(ds.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(ds.Clusters))
	}
	// Every tuple respects model -> manufacturer.
	for i := 0; i < ds.Table.Len(); i++ {
		model := int(ds.Table.Value(i, 0))
		if int(ds.Table.Value(i, 1)) != model/25 {
			t.Fatalf("tuple %d breaks model->manufacturer", i)
		}
	}
	// Red-Ferrari correlation: most Ferraris are color 1.
	ferraris, red := 0, 0
	for i := 0; i < ds.Table.Len(); i++ {
		if int(ds.Table.Value(i, 1)) == 7 {
			ferraris++
			if ds.Table.Value(i, 3) == 1 {
				red++
			}
		}
	}
	if ferraris == 0 || float64(red)/float64(ferraris) < 0.8 {
		t.Errorf("red fraction among Ferraris = %d/%d", red, ferraris)
	}
	// Beetles end in 2003.
	for i := 0; i < ds.Table.Len(); i++ {
		if int(ds.Table.Value(i, 0)) == 300 && ds.Table.Value(i, 2) > 2003 {
			t.Fatalf("Beetle built after 2003 at row %d", i)
		}
	}
	if _, err := ByName("cars", 0.01, 1); err != nil {
		t.Errorf("ByName(cars): %v", err)
	}
}

package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sthist/internal/dataset"
	"sthist/internal/geom"
)

func dom2() geom.Rect { return geom.MustRect([]float64{0, 0}, []float64{1000, 1000}) }

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(dom2(), Config{VolumeFraction: 0.01, N: 0}, nil); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := Generate(dom2(), Config{VolumeFraction: 0, N: 10}, nil); err == nil {
		t.Error("zero volume accepted")
	}
	if _, err := Generate(dom2(), Config{VolumeFraction: 1.5, N: 10}, nil); err == nil {
		t.Error("volume > 1 accepted")
	}
	if _, err := Generate(dom2(), Config{VolumeFraction: 0.01, N: 10, Centers: DataCenters}, nil); err == nil {
		t.Error("data centers without table accepted")
	}
	if _, err := Generate(dom2(), Config{VolumeFraction: 0.01, N: 10, Centers: CenterMode(9)}, nil); err == nil {
		t.Error("unknown center mode accepted")
	}
}

func TestGenerateVolumesAndContainment(t *testing.T) {
	dom := dom2()
	qs, err := Generate(dom, Config{VolumeFraction: 0.01, N: 200, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 200 {
		t.Fatalf("generated %d queries", len(qs))
	}
	want := 0.01 * dom.Volume()
	for i, q := range qs {
		if !dom.Contains(q) {
			t.Fatalf("query %d escapes the domain: %v", i, q)
		}
		if math.Abs(q.Volume()-want) > 1e-6*want {
			t.Fatalf("query %d volume %g, want %g", i, q.Volume(), want)
		}
	}
}

func TestGenerateDataCenters(t *testing.T) {
	tab := dataset.MustNew("x", "y")
	// All data in a small corner blob: data-following queries must cluster
	// there.
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{float64(i%10) + 100, float64(i/10) + 100})
	}
	qs, err := Generate(dom2(), Config{VolumeFraction: 0.01, N: 50, Centers: DataCenters, Seed: 2}, tab)
	if err != nil {
		t.Fatal(err)
	}
	blob := geom.MustRect([]float64{0, 0}, []float64{300, 300})
	for i, q := range qs {
		if !blob.Intersects(q) {
			t.Errorf("data-following query %d (%v) far from the data", i, q)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{VolumeFraction: 0.02, N: 30, Seed: 9}
	a, _ := Generate(dom2(), cfg, nil)
	b, _ := Generate(dom2(), cfg, nil)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("query %d differs across identical seeds", i)
		}
	}
	cfg.Seed = 10
	c, _ := Generate(dom2(), cfg, nil)
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestPermute(t *testing.T) {
	qs := MustGenerate(dom2(), Config{VolumeFraction: 0.01, N: 20, Seed: 3}, nil)
	p := Permute(qs, 4)
	if len(p) != len(qs) {
		t.Fatal("permutation changed length")
	}
	// Same multiset of queries.
	used := make([]bool, len(qs))
	for _, q := range p {
		found := false
		for i, orig := range qs {
			if !used[i] && q.Equal(orig) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatal("permutation altered a query")
		}
	}
	// Original untouched.
	orig := MustGenerate(dom2(), Config{VolumeFraction: 0.01, N: 20, Seed: 3}, nil)
	for i := range qs {
		if !qs[i].Equal(orig[i]) {
			t.Fatal("Permute mutated the input")
		}
	}
}

func TestQuickVolumeFractionHolds(t *testing.T) {
	dom := geom.MustRect([]float64{0, 0, 0}, []float64{1000, 500, 2000})
	f := func(seed int64) bool {
		frac := 0.005 + float64(uint64(seed)%100)/100*0.1
		qs, err := Generate(dom, Config{VolumeFraction: frac, N: 5, Seed: seed}, nil)
		if err != nil {
			return false
		}
		for _, q := range qs {
			if math.Abs(q.Volume()/dom.Volume()-frac) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	qs := MustGenerate(dom2(), Config{VolumeFraction: 0.01, N: 25, Seed: 77}, nil)
	var buf bytes.Buffer
	if err := Save(&buf, qs); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("loaded %d of %d queries", len(got), len(qs))
	}
	for i := range qs {
		if !got[i].Equal(qs[i]) {
			t.Fatalf("query %d changed in round trip", i)
		}
	}
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("corrupt workload accepted")
	}
	if _, err := Load(strings.NewReader(`[{"lo":[1],"hi":[0]}]`)); err == nil {
		t.Error("inverted rectangle accepted")
	}
}

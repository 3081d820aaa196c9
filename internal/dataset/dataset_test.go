package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sthist/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := New("a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := New("a", ""); err == nil {
		t.Error("empty column name accepted")
	}
	tab, err := New("a", "b")
	if err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if tab.Dims() != 2 || tab.Len() != 0 {
		t.Errorf("fresh table dims=%d len=%d", tab.Dims(), tab.Len())
	}
}

func TestAppendAndAccess(t *testing.T) {
	tab := MustNew("x", "y")
	if err := tab.Append([]float64{1}); err == nil {
		t.Error("short tuple accepted")
	}
	tab.MustAppend([]float64{1, 2})
	tab.MustAppend([]float64{3, 4})
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.Value(1, 0) != 3 || tab.Value(0, 1) != 2 {
		t.Error("Value returned wrong cells")
	}
	row := tab.Row(1, nil)
	if row[0] != 3 || row[1] != 4 {
		t.Errorf("Row = %v", row)
	}
	p := tab.Point(0)
	if p[0] != 1 || p[1] != 2 {
		t.Errorf("Point = %v", p)
	}
}

// TestRejectedAppendLeavesTableUnchanged appends tuples with a NaN in each
// column in turn, and one of the wrong width: each is rejected, and no
// column grows, so the table never turns ragged.
func TestRejectedAppendLeavesTableUnchanged(t *testing.T) {
	tab := MustNew("a", "b", "c")
	tab.MustAppend([]float64{1, 2, 3})
	for _, bad := range [][]float64{
		{math.NaN(), 5, 6},
		{4, math.NaN(), 6},
		{4, 5, math.NaN()},
		{4, 5},
	} {
		if err := tab.Append(bad); err == nil {
			t.Errorf("Append(%v) accepted", bad)
		}
		if tab.Len() != 1 {
			t.Errorf("after Append(%v): Len = %d, want 1", bad, tab.Len())
		}
		for d := range tab.Dims() {
			if n := len(tab.Column(d)); n != 1 {
				t.Errorf("after Append(%v): column %d holds %d values, want 1", bad, d, n)
			}
		}
	}
	tab.MustAppend([]float64{4, 5, 6})
	if got := tab.Row(1, nil); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Errorf("Row(1) = %v after the rejected appends, want [4 5 6]", got)
	}
}

func TestBoundsAndCount(t *testing.T) {
	tab := MustNew(GenericNames(2)...)
	if _, err := tab.Bounds(); err == nil {
		t.Error("bounds of empty table accepted")
	}
	pts := [][]float64{{0, 0}, {5, 1}, {2, -3}, {4, 4}}
	for _, p := range pts {
		tab.MustAppend(p)
	}
	b, err := tab.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	want := geom.MustRect([]float64{0, -3}, []float64{5, 4})
	if !b.Equal(want) {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	if got := tab.CountIn(geom.MustRect([]float64{0, 0}, []float64{5, 5})); got != 3 {
		t.Errorf("CountIn = %d, want 3", got)
	}
	if got := tab.CountIn(b); got != 4 {
		t.Errorf("CountIn(bounds) = %d, want 4", got)
	}
}

func TestSample(t *testing.T) {
	tab := MustNew("x")
	for i := 0; i < 100; i++ {
		tab.MustAppend([]float64{float64(i)})
	}
	rng := rand.New(rand.NewSource(1))
	s := tab.Sample(10, rng)
	if len(s) != 10 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for _, i := range s {
		if i < 0 || i >= 100 {
			t.Errorf("sample index %d out of range", i)
		}
		if seen[i] {
			t.Errorf("duplicate sample index %d", i)
		}
		seen[i] = true
	}
	if got := tab.Sample(1000, rng); len(got) != 100 {
		t.Errorf("oversample returned %d indices", len(got))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := MustNew("ra", "dec")
	tab.MustAppend([]float64{1.5, -2.25})
	tab.MustAppend([]float64{0, 1e-9})
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() || got.Dims() != tab.Dims() {
		t.Fatalf("round trip size mismatch")
	}
	for i := 0; i < tab.Len(); i++ {
		for d := 0; d < tab.Dims(); d++ {
			if got.Value(i, d) != tab.Value(i, d) {
				t.Errorf("cell (%d,%d) = %g, want %g", i, d, got.Value(i, d), tab.Value(i, d))
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,notanumber\n")); err == nil {
		t.Error("non-numeric cell accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,a\n1,2\n")); err == nil {
		t.Error("duplicate header accepted")
	}
}

func TestQuickCountInMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := MustNew(GenericNames(3)...)
	for i := 0; i < 500; i++ {
		tab.MustAppend([]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10})
	}
	f := func() bool {
		lo := make([]float64, 3)
		hi := make([]float64, 3)
		for d := range lo {
			a, b := rng.Float64()*10, rng.Float64()*10
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		r := geom.MustRect(lo, hi)
		want := 0
		for i := 0; i < tab.Len(); i++ {
			if r.ContainsPoint(tab.Point(i)) {
				want++
			}
		}
		return tab.CountIn(r) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

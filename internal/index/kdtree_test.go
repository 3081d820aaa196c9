package index

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"sthist/internal/datagen"
	"sthist/internal/dataset"
	"sthist/internal/geom"
)

// randomTable builds an n-tuple, d-dimensional table of uniform points in
// [0,100]^d with a deterministic seed.
func randomTable(n, d int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	tab := dataset.MustNew(dataset.GenericNames(d)...)
	tab.Grow(n)
	tuple := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = rng.Float64() * 100
		}
		tab.MustAppend(tuple)
	}
	return tab
}

func randomBox(rng *rand.Rand, d int) geom.Rect {
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := 0; j < d; j++ {
		a, b := rng.Float64()*100, rng.Float64()*100
		if a > b {
			a, b = b, a
		}
		lo[j], hi[j] = a, b
	}
	return geom.MustRect(lo, hi)
}

func TestBuildKDTreeEmpty(t *testing.T) {
	tab := dataset.MustNew("x")
	if _, err := BuildKDTree(tab); err == nil {
		t.Error("empty table accepted")
	}
}

func TestKDTreeTotalAndBounds(t *testing.T) {
	tab := randomTable(1000, 3, 7)
	kt, err := BuildKDTree(tab)
	if err != nil {
		t.Fatal(err)
	}
	if kt.Total() != 1000 {
		t.Errorf("Total = %d", kt.Total())
	}
	want, _ := tab.Bounds()
	if !kt.Bounds().Equal(want) {
		t.Errorf("Bounds = %v, want %v", kt.Bounds(), want)
	}
	if kt.Count(kt.Bounds()) != 1000 {
		t.Errorf("Count(bounds) = %d", kt.Count(kt.Bounds()))
	}
	if kt.Depth() < 2 {
		t.Errorf("Depth = %d, suspiciously shallow for 1000 points", kt.Depth())
	}
}

func TestKDTreeDimensionMismatch(t *testing.T) {
	kt, err := BuildKDTree(randomTable(100, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := kt.Count(geom.MustRect([]float64{0}, []float64{100})); got != 0 {
		t.Errorf("mismatched-dimension query counted %d", got)
	}
}

func TestKDTreeMatchesScanCounter(t *testing.T) {
	for _, d := range []int{1, 2, 4, 7} {
		tab := randomTable(3000, d, int64(d))
		kt, err := BuildKDTree(tab)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanCounter(tab)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + d)))
		for i := 0; i < 100; i++ {
			q := randomBox(rng, d)
			if got, want := kt.Count(q), sc.Count(q); got != want {
				t.Fatalf("d=%d query %v: kdtree=%d scan=%d", d, q, got, want)
			}
		}
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	// Degenerate data (all identical points) exercises the depth-cycled axis
	// fallback and must not recurse forever.
	tab := dataset.MustNew("x", "y")
	for i := 0; i < 500; i++ {
		tab.MustAppend([]float64{5, 5})
	}
	kt, err := BuildKDTree(tab)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.MustRect([]float64{5, 5}, []float64{5, 5})
	if got := kt.Count(q); got != 500 {
		t.Errorf("Count(point box) = %d, want 500", got)
	}
	if got := kt.Count(geom.MustRect([]float64{6, 6}, []float64{7, 7})); got != 0 {
		t.Errorf("Count(empty region) = %d, want 0", got)
	}
}

// flatTree wraps rows of points in a tree with no nodes and the identity
// permutation, for the tests of the row-reordering helpers.
func flatTree(pts [][]float64) *KDTree {
	t := &KDTree{cols: make([][]float64, len(pts[0]))}
	for i, p := range pts {
		for d, v := range p {
			t.cols[d] = append(t.cols[d], v)
		}
		t.perm = append(t.perm, int32(i))
	}
	return t
}

// at returns the value on axis d of the row at position i in tree order.
func (t *KDTree) at(i, d int) float64 { return t.cols[d][t.perm[i]] }

// verifyPartition reports whether every row before position k is at most
// the row at k and every row after it at least that row on axis.
func verifyPartition(t *KDTree, k, axis int) bool {
	for i := range t.Total() {
		if (i < k && t.at(i, axis) > t.at(k, axis)) || (i > k && t.at(i, axis) < t.at(k, axis)) {
			return false
		}
	}
	return true
}

func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		kt := flatTree(pts)
		k := rng.Intn(n)
		axis := rng.Intn(2)
		kt.nthElement(0, n, k, axis)
		if !verifyPartition(kt, k, axis) {
			t.Fatalf("trial %d: partition invariant violated (n=%d k=%d)", trial, n, k)
		}
	}
}

func TestNthElementSortedInput(t *testing.T) {
	// Pre-sorted input exercises the median-of-three path.
	n := 1000
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	kt := flatTree(pts)
	kt.nthElement(0, n, n/4, 0)
	if !verifyPartition(kt, n/4, 0) {
		t.Error("partition invariant violated on sorted input")
	}
}

// TestSplitPartition pins split's invariant on random, sorted, clumped and
// constant rows: both runs hold at least a quarter of the rows, and on some
// axis every row of the first is at most every row of the second.
func TestSplitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range []struct {
		name string
		row  func(i int) []float64
	}{
		{"random", func(int) []float64 { return []float64{rng.Float64(), rng.Float64(), rng.Float64()} }},
		{"sorted", func(i int) []float64 { return []float64{float64(i), float64(-i), 0} }},
		{"clumped", func(int) []float64 { return []float64{float64(rng.Intn(3)), float64(rng.Intn(2)), 1} }},
		{"constant", func(int) []float64 { return []float64{5, 5, 5} }},
	} {
		name, row := c.name, c.row
		for trial := 0; trial < 20; trial++ {
			n := leafSize + 1 + rng.Intn(2000)
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = row(i)
			}
			kt := flatTree(pts)
			b := &builder{KDTree: kt, rows: make([]int32, sampleSize), sample: make([]float64, sampleSize)}
			mid := b.split(0, n, trial)
			if min(mid, n-mid) < n/4 {
				t.Fatalf("%s n=%d: split at %d leaves a side under a quarter", name, n, mid)
			}
			ok := false
			for axis := 0; axis < 3 && !ok; axis++ {
				lo, hi := math.Inf(-1), math.Inf(1)
				for i := 0; i < mid; i++ {
					lo = max(lo, kt.at(i, axis))
				}
				for i := mid; i < n; i++ {
					hi = min(hi, kt.at(i, axis))
				}
				ok = lo <= hi
			}
			if !ok {
				t.Fatalf("%s n=%d: no axis separates the runs split at %d", name, n, mid)
			}
		}
	}
}

func TestKDTreeCountZeroAllocs(t *testing.T) {
	tab := randomTable(3000, 4, 41)
	kt, err := BuildKDTree(tab)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	queries := make([]geom.Rect, 32)
	for i := range queries {
		queries[i] = randomBox(rng, 4)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		kt.Count(queries[i%len(queries)])
		i++
	}); allocs != 0 {
		t.Errorf("Count allocated %v times per call", allocs)
	}
}

// TestKDTreeDepthBound bounds the height of trees split at sampled medians
// by twice that of an exact-median tree, on the sky and cross tables and a
// table where 90% of the rows share one value.
func TestKDTreeDepthBound(t *testing.T) {
	skewed := dataset.MustNew("x", "y")
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20000; i++ {
		if i%10 == 0 {
			skewed.MustAppend([]float64{rng.Float64() * 100, rng.Float64() * 100})
		} else {
			skewed.MustAppend([]float64{50, 50})
		}
	}
	for _, c := range []struct {
		name string
		tab  *dataset.Table
	}{
		{"sky", datagen.SkySim(0.02, 1).Table},
		{"cross", datagen.Cross(1, 1).Table},
		{"skewed", skewed},
	} {
		name, tab := c.name, c.tab
		kt, err := BuildKDTree(tab)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2*int(math.Ceil(math.Log2(float64(tab.Len())/leafSize))) + 1
		if kt.Depth() > bound {
			t.Errorf("%s: depth %d exceeds %d", name, kt.Depth(), bound)
		}
		t.Logf("%s: %d rows, depth %d (bound %d)", name, tab.Len(), kt.Depth(), bound)
	}
}

// TestKDTreeIgnoresRowsAppendedLater appends copies of indexed rows to the
// table after the build. The tree keeps counting only the rows it indexed,
// whether the appends land in spare capacity from Grow, inside the backing
// arrays the tree reads, or move the columns to new arrays.
func TestKDTreeIgnoresRowsAppendedLater(t *testing.T) {
	for _, spare := range []bool{true, false} {
		tab := randomTable(1000, 3, 61)
		if spare {
			tab.Grow(500)
		}
		kt, err := BuildKDTree(tab)
		if err != nil {
			t.Fatal(err)
		}
		first := &tab.Column(0)[0]
		for i := 0; i < 500; i++ {
			tab.MustAppend(tab.Row(i, nil))
		}
		if moved := &tab.Column(0)[0] != first; moved == spare {
			t.Fatalf("spare=%v: appends moved the columns: %v", spare, moved)
		}
		ref, err := NewScanCounter(randomTable(1000, 3, 61))
		if err != nil {
			t.Fatal(err)
		}
		if kt.Total() != 1000 {
			t.Errorf("spare=%v: Total = %d after appends, want 1000", spare, kt.Total())
		}
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < 100; i++ {
			q := randomBox(rng, 3)
			if got, want := kt.Count(q), ref.Count(q); got != want {
				t.Fatalf("spare=%v query %v: tree counts %d, the indexed rows hold %d", spare, q, got, want)
			}
		}
	}
}

// TestBuildKDTreeAllocatesLessThanACopy pins that the tree indexes its
// table in place: building it over SkySim(0.02) allocates fewer bytes than
// one copy of the rows.
func TestBuildKDTreeAllocatesLessThanACopy(t *testing.T) {
	tab := datagen.SkySim(0.02, 1).Table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kt, err := BuildKDTree(tab)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	rows := uint64(tab.Len() * tab.Dims() * 8)
	if got := after.TotalAlloc - before.TotalAlloc; got >= rows {
		t.Errorf("BuildKDTree allocated %d bytes, not less than the %d of a copy of the rows", got, rows)
	}
	runtime.KeepAlive(kt)
}

// fuzzValue maps a byte to a coarse grid of 32 values, or to ±Inf or -0, so
// that fuzzed tables repeat rows and values and boxes land on them.
func fuzzValue(b byte) float64 {
	switch b {
	case 0xfd:
		return math.Inf(1)
	case 0xfe:
		return math.Inf(-1)
	case 0xff:
		return math.Copysign(0, -1)
	}
	return float64(int(b%32)-16) / 4
}

// FuzzKDTreeCount builds a table of 1 to 4 columns from the input, whose
// first 2·dims bytes are a box's low and high corners, and checks the
// tree's count against the scan's. A box may be degenerate (lo = hi) or
// inverted (lo > hi) on any axis.
func FuzzKDTreeCount(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	constant := make([]byte, 2*2+2*300) // 300 rows of two columns, the first constant
	copy(constant, []byte{0, 10, 31, 20})
	for i := 4; i < len(constant); i += 2 {
		constant[i], constant[i+1] = 7, byte(rng.Intn(256))
	}
	f.Add(uint8(0), []byte{16, 16, 0, 1, 2, 16, 16})                           // 1-d, degenerate box
	f.Add(uint8(1), []byte{0xff, 0xfe, 0, 0xfd, 0xff, 0, 0, 0xff, 0xfd, 0xfe}) // ±0 and ±Inf
	f.Add(uint8(1), []byte{20, 20, 10, 10, 1, 2, 3, 4, 5, 6})                  // inverted box
	f.Add(uint8(1), constant)
	f.Add(uint8(2), random(3*2+3*300))
	f.Add(uint8(3), random(4*2+4*300))
	f.Fuzz(func(t *testing.T, dims uint8, data []byte) {
		d := 1 + int(dims%4)
		if len(data) < 2*d {
			return
		}
		box, rows := data[:2*d], data[2*d:]
		n := min(len(rows)/d, 512)
		if n == 0 {
			return
		}
		tab := dataset.MustNew(dataset.GenericNames(d)...)
		tuple := make([]float64, d)
		for i := 0; i < n; i++ {
			for j := range tuple {
				tuple[j] = fuzzValue(rows[i*d+j])
			}
			tab.MustAppend(tuple)
		}
		q := geom.Rect{Lo: make([]float64, d), Hi: make([]float64, d)}
		for j := 0; j < d; j++ {
			q.Lo[j], q.Hi[j] = fuzzValue(box[j]), fuzzValue(box[d+j])
		}
		kt, err := BuildKDTree(tab)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScanCounter(tab)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := kt.Count(q), sc.Count(q); got != want {
			t.Fatalf("%d rows, box %v: tree counts %d, scan %d", n, q, got, want)
		}
		if got := kt.Count(kt.Bounds()); got != n {
			t.Fatalf("%d rows: tree counts %d inside its own bounds", n, got)
		}
	})
}

func TestQuickKDTreeCountMatchesScan(t *testing.T) {
	tab := randomTable(5000, 4, 31)
	kt, err := BuildKDTree(tab)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := NewScanCounter(tab)
	rng := rand.New(rand.NewSource(32))
	f := func() bool {
		q := randomBox(rng, 4)
		return kt.Count(q) == sc.Count(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkBuildKDTree times BuildKDTree on the tables the end-to-end
// benchmark serves: SkySim(0.02) (34,942 rows by 7 dimensions), Cross(1)
// (22,000 by 2) and the five times larger SkySim(0.1).
func BenchmarkBuildKDTree(b *testing.B) {
	for _, c := range []struct {
		name string
		tab  func() *dataset.Table
	}{
		{"sky", func() *dataset.Table { return datagen.SkySim(0.02, 1).Table }},
		{"cross", func() *dataset.Table { return datagen.Cross(1, 1).Table }},
		{"sky0.1", func() *dataset.Table { return datagen.SkySim(0.1, 1).Table }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tab := c.tab()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildKDTree(tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKDTreeCount(b *testing.B) {
	tab := randomTable(100000, 4, 99)
	kt, err := BuildKDTree(tab)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	queries := make([]geom.Rect, 128)
	for i := range queries {
		queries[i] = randomBox(rng, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kt.Count(queries[i%len(queries)])
	}
}

func BenchmarkScanCount(b *testing.B) {
	tab := randomTable(100000, 4, 99)
	sc, err := NewScanCounter(tab)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(100))
	queries := make([]geom.Rect, 128)
	for i := range queries {
		queries[i] = randomBox(rng, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Count(queries[i%len(queries)])
	}
}

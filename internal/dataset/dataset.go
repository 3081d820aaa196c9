// Package dataset provides the in-memory relation that plays the role of the
// DBMS storage layer in the reproduction: a column-oriented table of float64
// attributes with a schema, CSV round-trip, bounding-box computation and
// sampling. Categorical attributes are assumed to be pre-mapped to numbers,
// as the paper does (footnote 1).
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"sthist/internal/geom"
)

// Table is a column-oriented relation. All columns have equal length.
type Table struct {
	names []string
	cols  [][]float64
}

// New creates an empty table with the given column names. At least one column
// is required.
func New(names ...string) (*Table, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: table needs at least one column")
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("dataset: empty column name")
		}
		if seen[n] {
			return nil, fmt.Errorf("dataset: duplicate column name %q", n)
		}
		seen[n] = true
	}
	t := &Table{names: append([]string(nil), names...), cols: make([][]float64, len(names))}
	return t, nil
}

// MustNew is New that panics on invalid input; for generators with known-good
// schemas.
func MustNew(names ...string) *Table {
	t, err := New(names...)
	if err != nil {
		panic(err)
	}
	return t
}

// GenericNames returns d column names x1..xd, the schema used by the
// synthetic generators.
func GenericNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i+1)
	}
	return names
}

// Dims returns the number of columns.
func (t *Table) Dims() int { return len(t.cols) }

// Len returns the number of tuples.
func (t *Table) Len() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// Names returns the column names. The slice must not be modified.
func (t *Table) Names() []string { return t.names }

// Append adds one tuple. The tuple length must match the schema, and no
// value may be NaN. A rejected tuple leaves the table unchanged.
func (t *Table) Append(tuple []float64) error {
	if len(tuple) != len(t.cols) {
		return fmt.Errorf("dataset: tuple has %d values, schema has %d columns", len(tuple), len(t.cols))
	}
	for d, v := range tuple {
		if math.IsNaN(v) {
			return fmt.Errorf("dataset: NaN value in column %q", t.names[d])
		}
	}
	for d, v := range tuple {
		t.cols[d] = append(t.cols[d], v)
	}
	return nil
}

// MustAppend is Append that panics on error; for generators.
func (t *Table) MustAppend(tuple []float64) {
	if err := t.Append(tuple); err != nil {
		panic(err)
	}
}

// Grow pre-allocates capacity for n additional tuples.
func (t *Table) Grow(n int) {
	for d := range t.cols {
		if cap(t.cols[d])-len(t.cols[d]) < n {
			grown := make([]float64, len(t.cols[d]), len(t.cols[d])+n)
			copy(grown, t.cols[d])
			t.cols[d] = grown
		}
	}
}

// Value returns the value of column d in row i.
func (t *Table) Value(i, d int) float64 { return t.cols[d][i] }

// Row copies tuple i into dst (allocating when dst is short) and returns it.
func (t *Table) Row(i int, dst []float64) []float64 {
	if cap(dst) < len(t.cols) {
		dst = make([]float64, len(t.cols))
	}
	dst = dst[:len(t.cols)]
	for d := range t.cols {
		dst[d] = t.cols[d][i]
	}
	return dst
}

// Point returns tuple i as a freshly allocated geom.Point.
func (t *Table) Point(i int) geom.Point {
	return geom.Point(t.Row(i, nil))
}

// Column returns the backing slice of column d. The slice must not be
// modified.
func (t *Table) Column(d int) []float64 { return t.cols[d] }

// Bounds returns the minimal bounding rectangle of all tuples. It reports an
// error for an empty table.
func (t *Table) Bounds() (geom.Rect, error) {
	if t.Len() == 0 {
		return geom.Rect{}, fmt.Errorf("dataset: bounds of empty table")
	}
	lo := make(geom.Point, t.Dims())
	hi := make(geom.Point, t.Dims())
	for d, col := range t.cols {
		mn, mx := col[0], col[0]
		for _, v := range col[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		lo[d], hi[d] = mn, mx
	}
	return geom.Rect{Lo: lo, Hi: hi}, nil
}

// CountIn returns the exact number of tuples inside r by scanning. This is
// the slow reference counter; use index.KDTree for repeated queries.
func (t *Table) CountIn(r geom.Rect) int {
	n := t.Len()
	count := 0
rows:
	for i := 0; i < n; i++ {
		for d := range t.cols {
			v := t.cols[d][i]
			if v < r.Lo[d] || v > r.Hi[d] {
				continue rows
			}
		}
		count++
	}
	return count
}

// Sample returns k row indices drawn uniformly without replacement using rng.
// If k >= Len, all indices are returned.
func (t *Table) Sample(k int, rng *rand.Rand) []int {
	n := t.Len()
	if k >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	// Partial Fisher-Yates over an index permutation.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}

// WriteCSV writes the table with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(t.names); err != nil {
		return err
	}
	rec := make([]string, t.Dims())
	for i := 0; i < t.Len(); i++ {
		for d := range t.cols {
			rec[d] = strconv.FormatFloat(t.cols[d][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV reads a table written by WriteCSV (header row then float values).
func ReadCSV(r io.Reader) (*Table, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	t, err := New(header...)
	if err != nil {
		return nil, err
	}
	tuple := make([]float64, len(header))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		for d, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d column %q: %w", line, header[d], err)
			}
			tuple[d] = v
		}
		if err := t.Append(tuple); err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
	}
}

package dataset

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzReadCSV asserts the CSV loader never panics and that every accepted
// table is structurally consistent.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("x\n")
	f.Add("a,a\n1,1\n")
	f.Add("a,b\n1\n")
	f.Add("a,b\nNaN,2\n")
	f.Add("\xff\xfe")
	f.Fuzz(func(t *testing.T, input string) {
		tab, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if tab.Dims() < 1 {
			t.Error("accepted table without columns")
		}
		for d := 0; d < tab.Dims(); d++ {
			if len(tab.Column(d)) != tab.Len() {
				t.Error("ragged columns accepted")
			}
		}
	})
}

// FuzzReadBinary asserts the binary loader never panics, never accepts a
// NaN, and that every table it accepts survives WriteBinary and ReadBinary
// bit for bit.
func FuzzReadBinary(f *testing.F) {
	valid := func(cols ...[]float64) []byte {
		names := GenericNames(len(cols))
		tab := MustNew(names...)
		for i := range cols[0] {
			row := make([]float64, len(cols))
			for d := range cols {
				row[d] = cols[d][i]
			}
			tab.MustAppend(row)
		}
		var buf bytes.Buffer
		if err := tab.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	two := valid([]float64{1, -0.0, math.Inf(1)}, []float64{2, math.MaxFloat64, math.Inf(-1)})
	f.Add(two)
	f.Add(two[:len(two)-4])
	f.Add(valid([]float64{}))
	f.Add([]byte("STH1\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\x7f\x01\x00x"))
	nan := valid([]float64{1})
	copy(nan[len(nan)-8:], []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(nan)
	f.Fuzz(func(t *testing.T, input []byte) {
		tab, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		for d := 0; d < tab.Dims(); d++ {
			for i, v := range tab.Column(d) {
				if math.IsNaN(v) {
					t.Fatalf("accepted NaN in column %d row %d", d, i)
				}
			}
		}
		var buf bytes.Buffer
		if err := tab.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("written table rejected: %v", err)
		}
		if got.Len() != tab.Len() || !slices.Equal(got.Names(), tab.Names()) {
			t.Fatalf("round trip changed the shape: %d rows %q, want %d rows %q", got.Len(), got.Names(), tab.Len(), tab.Names())
		}
		for d := 0; d < tab.Dims(); d++ {
			for i, v := range tab.Column(d) {
				if w := got.Column(d)[i]; math.Float64bits(w) != math.Float64bits(v) {
					t.Fatalf("column %d row %d: %v read back as %v", d, i, v, w)
				}
			}
		}
	})
}

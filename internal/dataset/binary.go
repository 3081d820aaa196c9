package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary columnar format: a compact on-disk representation for tables that
// round-trips much faster than CSV and preserves float64 values exactly.
//
// Layout (little endian):
//
//	magic   [4]byte  "STH1"
//	dims    uint32
//	rows    uint64
//	names   dims x { uint16 length, bytes }
//	columns dims x rows x float64   (column-major)
const binaryMagic = "STH1"

// maxBinaryDims bounds the header so corrupt input cannot trigger huge
// allocations.
const maxBinaryDims = 1 << 12

// WriteBinary writes the table in the binary columnar format.
func (t *Table) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(t.Dims())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(t.Len())); err != nil {
		return err
	}
	for _, name := range t.names {
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("dataset: column name %q too long", name[:32])
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, col := range t.cols {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary reads a table written by WriteBinary.
func ReadBinary(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	var dims uint32
	if err := binary.Read(br, binary.LittleEndian, &dims); err != nil {
		return nil, fmt.Errorf("dataset: reading dims: %w", err)
	}
	if dims == 0 || dims > maxBinaryDims {
		return nil, fmt.Errorf("dataset: implausible dimensionality %d", dims)
	}
	var rows uint64
	if err := binary.Read(br, binary.LittleEndian, &rows); err != nil {
		return nil, fmt.Errorf("dataset: reading row count: %w", err)
	}
	names := make([]string, dims)
	for d := range names {
		var n uint16
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("dataset: reading name length: %w", err)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("dataset: reading column name: %w", err)
		}
		names[d] = string(b)
	}
	t, err := New(names...)
	if err != nil {
		return nil, err
	}
	// Columns are read binaryChunk values at a time. Capacities taken from
	// the untrusted header are capped, so a corrupt row count fails on the
	// missing data instead of allocating for it.
	buf := make([]byte, 8*min64(rows, binaryChunk))
	for d := 0; d < int(dims); d++ {
		col := make([]float64, 0, min64(rows, 1<<20))
		for i := uint64(0); i < rows; {
			chunk := buf[:8*min64(rows-i, binaryChunk)]
			if k, err := io.ReadFull(br, chunk); err != nil {
				return nil, fmt.Errorf("dataset: reading column %q row %d: %w", names[d], i+uint64(k/8), err)
			}
			for j := 0; j < len(chunk); j, i = j+8, i+1 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(chunk[j:]))
				if math.IsNaN(v) {
					return nil, fmt.Errorf("dataset: NaN in column %q row %d", names[d], i)
				}
				col = append(col, v)
			}
		}
		t.cols[d] = col
	}
	return t, nil
}

// binaryChunk is how many values ReadBinary reads at once.
const binaryChunk = 4096

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sthist/internal/faultfs"
)

// buildShipSource creates a log with a checkpoint and a post-checkpoint tail
// so an archive carries all three file kinds.
func buildShipSource(t testing.TB, dir string) *Log {
	t.Helper()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := l.Append(Record{Lo: []float64{float64(i)}, Hi: []float64{float64(i + 1)}, Actual: float64(10 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte(`{"snapshot":"state-after-8"}`)); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 20; i++ {
		if _, err := l.Append(Record{Lo: []float64{float64(i), 0}, Hi: []float64{float64(i + 1), 2}, Actual: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// recoveredState opens dir and returns the recovery plus last sequence — the
// complete durable state a promoted replica would serve from.
func recoveredState(t *testing.T, dir string) (*Recovery, uint64) {
	t.Helper()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	seq := l.LastSeq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec, seq
}

func assertBitIdentical(t *testing.T, srcDir, dstDir string) {
	t.Helper()
	srcRec, srcSeq := recoveredState(t, srcDir)
	dstRec, dstSeq := recoveredState(t, dstDir)
	if !bytes.Equal(srcRec.Snapshot, dstRec.Snapshot) {
		t.Fatalf("restored snapshot differs:\n src %q\n dst %q", srcRec.Snapshot, dstRec.Snapshot)
	}
	if !reflect.DeepEqual(srcRec.Records, dstRec.Records) {
		t.Fatalf("restored tail differs: src %d records, dst %d records", len(srcRec.Records), len(dstRec.Records))
	}
	if srcSeq != dstSeq {
		t.Fatalf("restored lastSeq %d != source %d", dstSeq, srcSeq)
	}
}

func TestShipRoundTrip(t *testing.T) {
	srcDir := t.TempDir()
	l := buildShipSource(t, srcDir)
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(t.TempDir(), "replica")
	if err := RestoreArchive(dstDir, Options{}, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, srcDir, dstDir)
}

// A fresh log (no checkpoint yet) must still ship: manifest + segment only.
func TestShipRoundTripNoCheckpoint(t *testing.T) {
	srcDir := t.TempDir()
	l, _, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Record{Lo: []float64{0}, Hi: []float64{float64(i + 1)}, Actual: 7}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dstDir := filepath.Join(t.TempDir(), "replica")
	if err := RestoreArchive(dstDir, Options{}, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, srcDir, dstDir)
}

func TestShipRefusesToClobber(t *testing.T) {
	srcDir := t.TempDir()
	l := buildShipSource(t, srcDir)
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Restoring over the source's own live directory must refuse.
	if err := RestoreArchive(srcDir, Options{}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore over a live manifest succeeded")
	}
}

// The source dying at any byte of the ship stream must leave the replica
// either refusing cleanly (no MANIFEST, fresh on open) or — only for the
// complete stream — bit-identical. Sweeps every prefix length.
func TestShipTruncationSweep(t *testing.T) {
	srcDir := t.TempDir()
	l := buildShipSource(t, srcDir)
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	scratch := t.TempDir()
	for cut := 0; cut < len(archive); cut++ {
		dst := filepath.Join(scratch, "cut")
		err := RestoreArchive(dst, Options{}, bytes.NewReader(archive[:cut]))
		if err == nil {
			t.Fatalf("truncated archive (cut at %d of %d) restored without error", cut, len(archive))
		}
		if _, serr := os.Stat(filepath.Join(dst, manifestName)); serr == nil {
			t.Fatalf("cut at %d: refused restore left a MANIFEST behind (torn restore)", cut)
		}
		if rmerr := os.RemoveAll(dst); rmerr != nil {
			t.Fatal(rmerr)
		}
	}
	dst := filepath.Join(scratch, "full")
	if err := RestoreArchive(dst, Options{}, bytes.NewReader(archive)); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, srcDir, dst)
}

// Every single-bit corruption of the stream must be rejected (CRC over
// name+data, checksummed trailer) — or, if it lands somewhere truly inert,
// still restore bit-identically. Never a silently different state.
func TestShipCorruptionSweep(t *testing.T) {
	srcDir := t.TempDir()
	l := buildShipSource(t, srcDir)
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	scratch := t.TempDir()
	for off := 0; off < len(archive); off++ {
		mut := append([]byte(nil), archive...)
		mut[off] ^= 0x40
		dst := filepath.Join(scratch, "flip")
		err := RestoreArchive(dst, Options{}, bytes.NewReader(mut))
		if err == nil {
			// Accepting a flipped stream is only tolerable if the restored
			// state is still exactly the source state.
			assertBitIdentical(t, srcDir, dst)
			t.Fatalf("bit flip at offset %d accepted; archive framing left a byte unverified", off)
		}
		if _, serr := os.Stat(filepath.Join(dst, manifestName)); serr == nil {
			t.Fatalf("flip at %d: refused restore left a MANIFEST behind", off)
		}
		if rmerr := os.RemoveAll(dst); rmerr != nil {
			t.Fatal(rmerr)
		}
	}
}

// Restore-side crash sweep: fail every mutating filesystem operation of the
// restore protocol in turn. Outcome must be all-or-nothing: either the
// replica refuses (no MANIFEST) or the directory recovers bit-identically
// (a post-commit failure such as the final dir sync).
func TestShipRestoreFaultSweep(t *testing.T) {
	srcDir := t.TempDir()
	l := buildShipSource(t, srcDir)
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()

	// Fault-free run to count the protocol's mutating operations.
	probe := faultfs.NewInjector(faultfs.OS{})
	probeDir := filepath.Join(t.TempDir(), "probe")
	if err := RestoreArchive(probeDir, Options{FS: probe}, bytes.NewReader(archive)); err != nil {
		t.Fatal(err)
	}
	ops := probe.Count(faultfs.OpAny)
	if ops == 0 {
		t.Fatal("restore performed no mutating operations; sweep is vacuous")
	}

	scratch := t.TempDir()
	for nth := 1; nth <= ops; nth++ {
		inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{Op: faultfs.OpAny, Nth: nth, Mode: faultfs.Fail})
		dst := filepath.Join(scratch, "fault")
		err := RestoreArchive(dst, Options{FS: inj}, bytes.NewReader(archive))
		if err == nil {
			t.Fatalf("fault at op %d/%d: restore reported success despite injected failure", nth, ops)
		}
		if _, serr := os.Stat(filepath.Join(dst, manifestName)); serr == nil {
			// The commit rename already happened (the fault hit the final dir
			// sync): the state on disk must then be the complete state.
			assertBitIdentical(t, srcDir, dst)
		}
		if rmerr := os.RemoveAll(dst); rmerr != nil {
			t.Fatal(rmerr)
		}
	}
}

// lyingArchive is a torn archive whose MANIFEST frame claims 1 GiB of data
// but carries 10 bytes.
func lyingArchive() []byte {
	a := append([]byte(nil), shipMagic...)
	a = binary.LittleEndian.AppendUint16(a, uint16(len(manifestName)))
	a = append(a, manifestName...)
	a = binary.LittleEndian.AppendUint32(a, MaxShipFileBytes)
	a = binary.LittleEndian.AppendUint32(a, 0) // crc, never reached
	return append(a, make([]byte, 10)...)
}

// A peer's claimed frame length must not be an allocation: restoring an
// archive that claims 1 GiB but carries 10 bytes fails as torn while
// allocating about what arrived.
func TestShipLyingLengthAllocatesWhatArrives(t *testing.T) {
	dst := filepath.Join(t.TempDir(), "replica")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := RestoreArchive(dst, Options{}, bytes.NewReader(lyingArchive()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "torn file") {
		t.Fatalf("lying archive: err = %v, want a torn-file error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 10-byte frame allocated %d bytes", grew)
	}
}

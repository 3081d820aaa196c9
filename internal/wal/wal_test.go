package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sthist/internal/faultfs"
)

func rec(seq uint64, lo, hi []float64, actual float64) Record {
	return Record{Seq: seq, Lo: lo, Hi: hi, Actual: actual}
}

func TestFrameRoundTrip(t *testing.T) {
	records := []Record{
		rec(1, []float64{0, 0}, []float64{1, 1}, 42),
		rec(2, []float64{-3.5, 2.25}, []float64{7.125, 9.875}, 0.1),
		rec(3, []float64{1e-300}, []float64{1e300}, 1e18),
	}
	var buf []byte
	var err error
	for _, r := range records {
		buf, err = appendFrame(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, cleanLen, torn := Replay(buf)
	if torn || cleanLen != int64(len(buf)) {
		t.Fatalf("torn=%v cleanLen=%d len=%d", torn, cleanLen, len(buf))
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, records)
	}
}

func TestFrameRejectsBadRecords(t *testing.T) {
	if _, err := appendFrame(nil, rec(1, nil, nil, 0)); err == nil {
		t.Error("zero-dim record accepted")
	}
	if _, err := appendFrame(nil, rec(1, []float64{0}, []float64{1, 2}, 0)); err == nil {
		t.Error("lo/hi mismatch accepted")
	}
	if _, err := appendFrame(nil, rec(1, make([]float64, maxDims+1), make([]float64, maxDims+1), 0)); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestReplayTornTail(t *testing.T) {
	full, err := appendFrame(nil, rec(1, []float64{0}, []float64{1}, 5))
	if err != nil {
		t.Fatal(err)
	}
	whole := len(full)
	full, err = appendFrame(full, rec(2, []float64{2}, []float64{3}, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the second frame at every possible offset: replay must always
	// recover exactly the first record and report the torn tail.
	for cut := whole + 1; cut < len(full); cut++ {
		got, cleanLen, torn := Replay(full[:cut])
		if len(got) != 1 || got[0].Seq != 1 {
			t.Fatalf("cut=%d: got %d records", cut, len(got))
		}
		if !torn {
			t.Fatalf("cut=%d: torn not reported", cut)
		}
		if cleanLen != int64(whole) {
			t.Fatalf("cut=%d: cleanLen=%d want %d", cut, cleanLen, whole)
		}
	}
}

// TestReplayCorruptionPolicies pins the one corruption rule: replay stops at
// the first bad frame, whether its checksum fails or its length field is
// implausible, and keeps nothing after it.
func TestReplayCorruptionPolicies(t *testing.T) {
	var buf []byte
	var err error
	for i := 1; i <= 3; i++ {
		buf, err = appendFrame(buf, rec(uint64(i), []float64{float64(i)}, []float64{float64(i + 1)}, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	frame := len(buf) / 3
	// Corrupt a payload byte of the middle frame (past its header).
	bad := append([]byte(nil), buf...)
	bad[frame+frameHeader+10] ^= 0xFF

	got, cleanLen, torn := Replay(bad)
	if len(got) != 1 || !torn {
		t.Errorf("bad checksum: records=%d torn=%v", len(got), torn)
	}
	if cleanLen != int64(frame) {
		t.Errorf("bad checksum: cleanLen = %d, want %d", cleanLen, frame)
	}

	// Corrupt the length field itself.
	bad2 := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(bad2[frame:], MaxRecordBytes+1)
	got, cleanLen, torn = Replay(bad2)
	if len(got) != 1 || !torn {
		t.Errorf("bad length: records=%d torn=%v", len(got), torn)
	}
	if cleanLen != int64(frame) {
		t.Errorf("bad length: cleanLen = %d, want %d", cleanLen, frame)
	}
}

func TestOpenFreshAppendReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "orders")
	l, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Snapshot != nil || len(rc.Records) != 0 || rc.Torn {
		t.Fatalf("fresh recovery = %+v", rc)
	}
	for i := 0; i < 5; i++ {
		seq, err := l.Append(rec(0, []float64{float64(i)}, []float64{float64(i) + 1}, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rc2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rc2.Records) != 5 || rc2.Torn {
		t.Fatalf("reopen recovery: %d records, torn=%v", len(rc2.Records), rc2.Torn)
	}
	if l2.LastSeq() != 5 {
		t.Errorf("LastSeq = %d", l2.LastSeq())
	}
	if seq, err := l2.Append(rec(0, []float64{9}, []float64{10}, 1)); err != nil || seq != 6 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestOpenTruncatesTornTailAndKeepsAppending(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(rec(0, []float64{0}, []float64{1}, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-append: chop 5 bytes off the segment, then append
	// garbage-free via a reopened log.
	seg := filepath.Join(dir, segName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Records) != 2 || !rc.Torn {
		t.Fatalf("recovery after torn tail: %d records, torn=%v", len(rc.Records), rc.Torn)
	}
	if _, err := l2.Append(rec(0, []float64{5}, []float64{6}, 9)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, rc3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(rc3.Records) != 3 || rc3.Torn {
		t.Fatalf("final recovery: %d records, torn=%v", len(rc3.Records), rc3.Torn)
	}
	if rc3.Records[2].Actual != 9 {
		t.Errorf("post-truncation record = %+v", rc3.Records[2])
	}
}

func TestCheckpointRotatesAndRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(rec(0, []float64{0}, []float64{1}, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := []byte(`{"state":"after-4"}`)
	if err := l.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	// Old generation files are gone.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Errorf("old segment still present: %v", err)
	}
	if _, err := l.Append(rec(0, []float64{1}, []float64{2}, 40)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if string(rc.Snapshot) != string(snapshot) {
		t.Errorf("snapshot = %q", rc.Snapshot)
	}
	if len(rc.Records) != 1 || rc.Records[0].Actual != 40 {
		t.Fatalf("tail = %+v", rc.Records)
	}
	// Seq numbering is monotonic across the checkpoint and restart.
	if rc.Records[0].Seq != 5 {
		t.Errorf("tail seq = %d, want 5", rc.Records[0].Seq)
	}
	if seq, _ := l2.Append(rec(0, []float64{2}, []float64{3}, 41)); seq != 6 {
		t.Errorf("next seq = %d, want 6", seq)
	}
}

func TestAppendErrorIsStickyUntilCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	// Sync #1 is the initial manifest commit, #2 the first append's fsync,
	// #3 the second append's — the one we fail.
	in := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{Op: faultfs.OpSync, Nth: 3, Mode: faultfs.Fail})
	l, _, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(0, []float64{0}, []float64{1}, 1)); err != nil {
		t.Fatal(err) // sync 1 ok
	}
	if _, err := l.Append(rec(0, []float64{0}, []float64{1}, 2)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append with failing fsync: err = %v", err)
	}
	if l.Err() == nil {
		t.Fatal("sticky error not set")
	}
	// Further appends are rejected without touching the file.
	if _, err := l.Append(rec(0, []float64{0}, []float64{1}, 3)); err == nil {
		t.Fatal("append on failed log accepted")
	}
	// A checkpoint rotates to a fresh segment and heals the log.
	if err := l.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if l.Err() != nil {
		t.Fatalf("error not cleared: %v", l.Err())
	}
	if _, err := l.Append(rec(0, []float64{0}, []float64{1}, 4)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if string(rc.Snapshot) != "snap" || len(rc.Records) != 1 || rc.Records[0].Actual != 4 {
		t.Fatalf("recovery = snapshot %q, records %+v", rc.Snapshot, rc.Records)
	}
}

func TestRecordPreservesFloatBits(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-323, math.MaxFloat64, 1.0000000000000002}
	for _, v := range vals {
		buf, err := appendFrame(nil, rec(1, []float64{v}, []float64{v}, v))
		if err != nil {
			t.Fatal(err)
		}
		got, _, _ := Replay(buf)
		if len(got) != 1 {
			t.Fatal("record lost")
		}
		if math.Float64bits(got[0].Actual) != math.Float64bits(v) ||
			math.Float64bits(got[0].Lo[0]) != math.Float64bits(v) {
			t.Errorf("bits changed for %g", v)
		}
	}
}

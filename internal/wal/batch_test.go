package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sthist/internal/faultfs"
)

// countingObserver tallies durability-path callbacks; used to verify the
// group-commit contract of one write + one fsync per batch.
type countingObserver struct {
	mu      sync.Mutex
	appends int
	syncs   int
}

func (o *countingObserver) ObserveAppend(time.Duration, error) {
	o.mu.Lock()
	o.appends++
	o.mu.Unlock()
}

func (o *countingObserver) ObserveSync(time.Duration, error) {
	o.mu.Lock()
	o.syncs++
	o.mu.Unlock()
}

func (o *countingObserver) ObserveCheckpoint(time.Duration, error) {}

func (o *countingObserver) counts() (int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.appends, o.syncs
}

func batchRecs(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = rec(0, []float64{float64(i)}, []float64{float64(i) + 1}, float64(i))
	}
	return out
}

func TestAppendBatchContiguousSeqsAndReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "orders")
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(rec(0, []float64{-1}, []float64{0}, 7)); err != nil || seq != 1 {
		t.Fatalf("single append: seq=%d err=%v", seq, err)
	}
	first, _, err := l.AppendBatch(batchRecs(4))
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("batch firstSeq = %d, want 2", first)
	}
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq after batch = %d, want 5", l.LastSeq())
	}
	// An interleaved single append continues the sequence.
	if seq, err := l.Append(rec(0, []float64{9}, []float64{10}, 3)); err != nil || seq != 6 {
		t.Fatalf("append after batch: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rc.Records) != 6 || rc.Torn {
		t.Fatalf("recovery: %d records, torn=%v", len(rc.Records), rc.Torn)
	}
	for i, r := range rc.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if rc.Records[2].Actual != 1 { // batch element 1 landed at seq 3
		t.Errorf("batch payload misplaced: %+v", rc.Records[2])
	}
}

func TestAppendBatchOneFsyncPerBatch(t *testing.T) {
	obs := &countingObserver{}
	l, _, err := Open(filepath.Join(t.TempDir(), "t"), Options{Sync: SyncAlways, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.AppendBatch(batchRecs(64)); err != nil {
		t.Fatal(err)
	}
	appends, syncs := obs.counts()
	if appends != 1 || syncs != 1 {
		t.Fatalf("batch of 64: appends=%d syncs=%d, want 1/1", appends, syncs)
	}
	for _, r := range batchRecs(8) {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appends, syncs = obs.counts()
	if appends != 9 || syncs != 9 {
		t.Fatalf("after 8 singles: appends=%d syncs=%d, want 9/9", appends, syncs)
	}
}

func TestAppendBatchEmptyIsNoOp(t *testing.T) {
	obs := &countingObserver{}
	l, _, err := Open(filepath.Join(t.TempDir(), "t"), Options{Sync: SyncAlways, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, tm, err := l.AppendBatch(nil)
	if err != nil || seq != 0 || tm != (Timings{}) {
		t.Fatalf("empty batch: seq=%d timings=%+v err=%v", seq, tm, err)
	}
	if appends, syncs := obs.counts(); appends != 0 || syncs != 0 {
		t.Fatalf("empty batch touched the file: appends=%d syncs=%d", appends, syncs)
	}
	if l.LastSeq() != 0 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
}

func TestAppendBatchFailureIsStickyAndTornTailRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "t")
	// Write one clean batch, then short-write the second batch's frame block:
	// recovery must keep the first batch plus the durable prefix of the
	// failed batch, and drop the torn frame at the cut.
	inj := faultfs.NewInjector(faultfs.OS{}, faultfs.Fault{Op: faultfs.OpWrite, Nth: 3, Mode: faultfs.ShortWrite})
	// Nth 1 = initial manifest temp write, Nth 2 = first batch, Nth 3 = second.
	l, _, err := Open(dir, Options{FS: inj, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.AppendBatch(batchRecs(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.AppendBatch(batchRecs(5)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("short-written batch err = %v", err)
	}
	// The failure is sticky: nothing else is acknowledged on this segment.
	if _, err := l.Append(rec(0, []float64{0}, []float64{1}, 1)); err == nil {
		t.Fatal("append after failed batch succeeded")
	}
	if l.Err() == nil {
		t.Fatal("sticky error not reported")
	}
	_ = l.Close()

	l2, rc, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The 3 acknowledged records must be there; the half-written batch may
	// contribute a durable prefix of complete frames (at-least-once), but
	// never more than was handed to AppendBatch, and never out of order.
	if n := len(rc.Records); n < 3 || n >= 3+5 {
		t.Fatalf("recovered %d records, want 3 <= n < 8", n)
	}
	if !rc.Torn {
		t.Error("torn tail not reported")
	}
	for i, r := range rc.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if l2.LastSeq() != uint64(len(rc.Records)) {
		t.Errorf("LastSeq after recovery = %d, want %d", l2.LastSeq(), len(rc.Records))
	}
	// The truncated segment accepts appends again at the next boundary.
	want := uint64(len(rc.Records)) + 1
	if seq, err := l2.Append(rec(0, []float64{4}, []float64{5}, 2)); err != nil || seq != want {
		t.Fatalf("append after recovery: seq=%d err=%v, want seq %d", seq, err, want)
	}
}

// TestAppendBatchReportsStageTimings pins the timings a traced batch turns
// into wal.append and wal.fsync spans: which stages ran and, when the batch
// fails, that the last stage that ran is the one that failed.
func TestAppendBatchReportsStageTimings(t *testing.T) {
	// On a fresh directory the initial manifest takes the first write and
	// the first fsync, so the batch's own are the second of each.
	cases := map[string]struct {
		faults           []faultfs.Fault
		sync             SyncPolicy
		appended, synced bool
		fails            bool
	}{
		"ok":          {nil, SyncAlways, true, true, false},
		"no fsync":    {nil, SyncNever, true, false, false},
		"write fails": {[]faultfs.Fault{{Op: faultfs.OpWrite, Nth: 2}}, SyncAlways, true, false, true},
		"fsync fails": {[]faultfs.Fault{{Op: faultfs.OpSync, Nth: 2}}, SyncAlways, true, true, true},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			fs := faultfs.NewInjector(faultfs.OS{}, c.faults...)
			l, _, err := Open(filepath.Join(t.TempDir(), "t"), Options{FS: fs, Sync: c.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			_, tm, err := l.AppendBatch(batchRecs(3))
			if (err != nil) != c.fails || tm.Appended != c.appended || tm.Synced != c.synced {
				t.Fatalf("timings %+v, err %v; want appended=%v synced=%v fails=%v", tm, err, c.appended, c.synced, c.fails)
			}
			if !tm.Synced && tm.Sync != 0 {
				t.Errorf("fsync that did not run has a duration: %+v", tm)
			}
			if !c.fails {
				return
			}
			// A failed log runs no stage until a checkpoint heals it.
			if _, tm, err := l.AppendBatch(batchRecs(1)); err == nil || tm != (Timings{}) {
				t.Errorf("append to a failed log: timings %+v, err %v", tm, err)
			}
		})
	}
}

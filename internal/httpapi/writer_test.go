package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sthist"
	"sthist/internal/faultfs"
	"sthist/internal/geom"
	"sthist/internal/telemetry"
	"sthist/internal/wal"
)

// syncCounter tallies WAL durability callbacks so the tests can assert the
// group-commit contract (one append + one fsync per batch) end to end.
type syncCounter struct {
	mu      sync.Mutex
	appends int
	syncs   int
}

func (o *syncCounter) ObserveAppend(time.Duration, error) {
	o.mu.Lock()
	o.appends++
	o.mu.Unlock()
}

func (o *syncCounter) ObserveSync(time.Duration, error) {
	o.mu.Lock()
	o.syncs++
	o.mu.Unlock()
}

func (o *syncCounter) ObserveCheckpoint(time.Duration, error) {}

func (o *syncCounter) counts() (int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.appends, o.syncs
}

// gateObserver additionally blocks the first WAL append until released,
// pinning the table's writer goroutine mid-commit at a point the test can
// observe — the only way to stage queue contents deterministically against
// the writer's greedy batch gathering.
type gateObserver struct {
	syncCounter
	once    sync.Once
	entered chan struct{} // closed when the writer reaches the first append
	release chan struct{} // the writer proceeds once this is closed
}

func newGateObserver() *gateObserver {
	return &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
}

func (o *gateObserver) ObserveAppend(d time.Duration, err error) {
	o.syncCounter.ObserveAppend(d, err)
	o.once.Do(func() { close(o.entered) })
	<-o.release
}

// inject pushes a request straight into the table's queue, bypassing HTTP,
// so tests control batch composition exactly.
func inject(t *testing.T, ent *entry, lo, hi []float64, actual float64) *feedbackReq {
	t.Helper()
	q, err := geom.NewRect(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	req := &feedbackReq{q: q, actual: actual, done: make(chan feedbackResult, 1)}
	select {
	case ent.queue <- req:
	default:
		t.Fatal("queue unexpectedly full")
	}
	return req
}

func uniformTable(t *testing.T, seed int64) *sthist.Table {
	t.Helper()
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1500; i++ {
		tab.MustAppend([]float64{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	return tab
}

// TestFeedbackBackpressure429 fills a tiny feedback queue while the writer is
// pinned mid-commit and checks that the server answers 429 with a
// Retry-After hint instead of buffering unboundedly, counts the rejection,
// and recovers to 200 once the queue drains.
func TestFeedbackBackpressure429(t *testing.T) {
	est, err := sthist.Open(uniformTable(t, 1), sthist.Options{Buckets: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateObserver()
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "orders"), wal.Options{Observer: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewServer()
	s.SetFeedbackQueue(2, DefaultFeedbackBatchMax)
	tel := telemetry.New(telemetry.Options{})
	s.EnableTelemetry(tel)
	if err := s.RegisterDurable("orders", est, l); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ent, err := s.lookup("orders")
	if err != nil {
		t.Fatal(err)
	}

	// Pin the writer inside its first commit, then fill the 2-slot queue.
	blocker := inject(t, ent, []float64{10, 10}, []float64{60, 60}, 5)
	<-gate.entered
	fillers := []*feedbackReq{
		inject(t, ent, []float64{20, 20}, []float64{70, 70}, 6),
		inject(t, ent, []float64{30, 30}, []float64{80, 80}, 7),
	}

	resp, _ := post(t, ts.URL+"/feedback", map[string]any{
		"table": "orders", "lo": []float64{40, 40}, "hi": []float64{90, 90}, "actual": 8.0,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}

	close(gate.release)
	for _, r := range append(fillers, blocker) {
		if res := <-r.done; res.err != nil {
			t.Fatalf("queued feedback failed after release: %v", res.err)
		}
	}

	// The rejection is visible on /metrics and the pipeline recovered.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(body), `sthist_feedback_backpressure_total{table="orders"} 1`) {
		t.Errorf("backpressure counter not exported:\n%s", body)
	}
	if !strings.Contains(string(body), "sthist_feedback_queue_depth") ||
		!strings.Contains(string(body), "sthist_feedback_batch_size") {
		t.Error("queue depth gauge or batch size histogram not exported")
	}
	resp, _ = post(t, ts.URL+"/feedback", map[string]any{
		"table": "orders", "lo": []float64{40, 40}, "hi": []float64{90, 90}, "actual": 8.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback after release answered %d, want 200", resp.StatusCode)
	}
}

// TestDrainFeedbackCommitsQueuedTail is the SIGTERM half of graceful
// shutdown: observations accepted before the drain must be committed as
// batches — one WAL append and one fsync per batch, contiguous sequence
// numbers — and feedback arriving after the drain is refused with 503.
func TestDrainFeedbackCommitsQueuedTail(t *testing.T) {
	est, err := sthist.Open(uniformTable(t, 3), sthist.Options{Buckets: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateObserver()
	l, _, err := wal.Open(filepath.Join(t.TempDir(), "orders"),
		wal.Options{Sync: wal.SyncAlways, Observer: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s := NewServer()
	if err := s.RegisterDurable("orders", est, l); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ent, err := s.lookup("orders")
	if err != nil {
		t.Fatal(err)
	}

	// Pin the writer inside the first commit, queue three more observations,
	// then drain: the writer must wake, group the queued tail into a single
	// batch, commit it, and only then let DrainFeedback return.
	first := inject(t, ent, []float64{10, 10}, []float64{60, 60}, 5)
	<-gate.entered
	tail := []*feedbackReq{
		inject(t, ent, []float64{20, 20}, []float64{70, 70}, 6),
		inject(t, ent, []float64{30, 30}, []float64{80, 80}, 7),
		inject(t, ent, []float64{40, 40}, []float64{90, 90}, 8),
	}
	drained := make(chan struct{})
	go func() {
		s.DrainFeedback()
		close(drained)
	}()
	close(gate.release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("DrainFeedback did not return")
	}

	if res := <-first.done; res.err != nil || res.seq != 1 {
		t.Fatalf("first commit: seq=%d err=%v", res.seq, res.err)
	}
	for i, r := range tail {
		if res := <-r.done; res.err != nil || res.seq != uint64(i+2) {
			t.Fatalf("tail commit %d: seq=%d err=%v", i, res.seq, res.err)
		}
	}
	// Two batches: [first] and the 3-observation tail — two appends and two
	// fsyncs for four observations.
	if appends, syncs := gate.counts(); appends != 2 || syncs != 2 {
		t.Errorf("appends=%d syncs=%d, want 2/2 (group commit)", appends, syncs)
	}
	if l.LastSeq() != 4 {
		t.Errorf("LastSeq after drain = %d, want 4", l.LastSeq())
	}

	resp, out := post(t, ts.URL+"/feedback", map[string]any{
		"table": "orders", "lo": []float64{10, 10}, "hi": []float64{60, 60}, "actual": 5.0,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("feedback after drain answered %d, want 503", resp.StatusCode)
	}
	var msg string
	_ = json.Unmarshal(out["error"], &msg)
	if !strings.Contains(msg, "draining") {
		t.Errorf("error message = %q", msg)
	}
	// Idempotent: a second drain returns immediately.
	s.DrainFeedback()
}

// TestCrashAtBatchBoundaryRecoversBitIdentical drives one workload through
// (a) a plain estimator fed one observation at a time and (b) the server's
// group-commit pipeline with the WAL killed at every append boundary by an
// injected write fault. Whatever prefix survives the crash, RecoverTable
// (the sthistd startup path) must rebuild a histogram bit-identical to the
// synchronous reference at that prefix length.
func TestCrashAtBatchBoundaryRecoversBitIdentical(t *testing.T) {
	tab := uniformTable(t, 17)
	opts := sthist.Options{Buckets: 25, Seed: 6}
	open := func() *sthist.Estimator {
		est, err := sthist.Open(tab, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	const stageSize, numStages = 3, 4
	const total = stageSize * numStages
	type ob struct {
		lo, hi []float64
		actual float64
	}
	wrng := rand.New(rand.NewSource(29))
	work := make([]ob, total)
	for i := range work {
		x, y := wrng.Float64()*800, wrng.Float64()*800
		w, h := 50+wrng.Float64()*100, 50+wrng.Float64()*100
		work[i] = ob{lo: []float64{x, y}, hi: []float64{x + w, y + h}, actual: float64(5 + i)}
	}

	// Reference: the synchronous path, snapshotted after every observation.
	snap := func(e *sthist.Estimator) []byte {
		var buf bytes.Buffer
		if err := e.SaveHistogram(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := make([][]byte, total+1)
	refEst := open()
	ref[0] = snap(refEst)
	for i, o := range work {
		q, err := geom.NewRect(o.lo, o.hi)
		if err != nil {
			t.Fatal(err)
		}
		if err := refEst.Feedback(q, o.actual); err != nil {
			t.Fatal(err)
		}
		ref[i+1] = snap(refEst)
	}

	// Sweep the crash point across every write the WAL can make: write 1 is
	// the manifest, writes 2.. are batch frames. crash==total+1 never fires
	// and is the crash-free control.
	sawPartial := false
	for crash := 1; crash <= total+1; crash++ {
		dir := filepath.Join(t.TempDir(), "orders")
		inj := faultfs.NewInjector(faultfs.OS{},
			faultfs.Fault{Op: faultfs.OpWrite, Nth: crash + 1, Mode: faultfs.Fail})
		l, _, err := wal.Open(dir, wal.Options{FS: inj, Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer()
		if err := s.RegisterDurable("orders", open(), l); err != nil {
			t.Fatal(err)
		}
		ent, err := s.lookup("orders")
		if err != nil {
			t.Fatal(err)
		}
		// Stage by stage; batch composition inside a stage is up to the
		// writer's gathering, which is exactly what the sweep should cover.
		for st := 0; st < numStages; st++ {
			reqs := make([]*feedbackReq, 0, stageSize)
			for i := st * stageSize; i < (st+1)*stageSize; i++ {
				o := work[i]
				reqs = append(reqs, inject(t, ent, o.lo, o.hi, o.actual))
			}
			for _, r := range reqs {
				<-r.done // apply outcome is covered by the recovery check
			}
		}
		s.DrainFeedback()
		_ = l.Close()

		// "Reboot": recover the table the way cmd/sthistd does.
		recovered, rc2, _, err := recoverLog(dir, tab, opts)
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		n := len(rc2.Records)
		if n > total {
			t.Fatalf("crash %d: recovered %d records, more than the %d fed", crash, n, total)
		}
		if crash == 1 && n != 0 {
			t.Fatalf("crash at first frame write recovered %d records", n)
		}
		if crash == total+1 && n != total {
			t.Fatalf("crash-free control recovered %d records, want %d", n, total)
		}
		if n > 0 && n < total {
			sawPartial = true
		}
		for i, r := range rc2.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("crash %d: record %d has seq %d", crash, i, r.Seq)
			}
		}
		if got := snap(recovered); !bytes.Equal(got, ref[n]) {
			t.Errorf("crash %d: recovered histogram differs from the synchronous reference after %d observations", crash, n)
		}
	}
	if !sawPartial {
		t.Error("sweep never produced a partial prefix; batch boundaries were not exercised")
	}
}

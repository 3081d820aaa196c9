package telemetry

import (
	"errors"
	"math"
	"testing"
	"time"

	"sthist/internal/geom"
)

func testRound(est, actual, trivial float64, d time.Duration) Round {
	return Round{
		Query:    geom.MustRect([]float64{0, 0}, []float64{10, 10}),
		Estimate: est,
		Actual:   actual,
		Trivial:  trivial,
		Drills:   2,
		Skipped:  1,
		Merges: []MergeOp{
			{Kind: MergeKindParentChild, Penalty: 3, Nanos: 100},
			{Kind: MergeKindSibling, Penalty: 7, Nanos: 200},
		},
		Duration: d,
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.RecordRound(testRound(1, 2, 3, time.Millisecond))
	r.RecordEstimate(time.Millisecond)
	r.RecordQuarantine()
	r.RecordRejected()
	if n, mae, nae := r.Rolling(); n != 0 || mae != 0 || nae != 0 {
		t.Error("nil recorder returned rolling stats")
	}
	var tel *Telemetry
	if tel.Table("x") != nil || tel.Registry() != nil || tel.WAL("x") != nil {
		t.Error("nil telemetry minted instruments")
	}
	var wm *WALMetrics
	wm.ObserveAppend(0, nil)
	wm.ObserveSync(0, nil)
	wm.ObserveCheckpoint(0, nil)
}

// TestWALMetricsErrorAttribution pins that append, fsync and checkpoint
// failures land in their own counters — fsync errors were once misattributed
// to the append-error counter, making degraded durability undiagnosable.
func TestWALMetricsErrorAttribution(t *testing.T) {
	tel := New(Options{})
	wm := tel.WAL("t")
	boom := errors.New("boom")
	wm.ObserveAppend(0, boom)
	wm.ObserveSync(0, boom)
	wm.ObserveSync(0, boom)
	wm.ObserveCheckpoint(0, boom)
	if got := wm.appendErrs.Value(); got != 1 {
		t.Errorf("append errors = %d, want 1", got)
	}
	if got := wm.syncErrs.Value(); got != 2 {
		t.Errorf("fsync errors = %d, want 2", got)
	}
	if got := wm.ckptErrs.Value(); got != 1 {
		t.Errorf("checkpoint errors = %d, want 1", got)
	}
	// Failed observations record no duration.
	if wm.appendDur.Count() != 0 || wm.syncDur.Count() != 0 || wm.ckptDur.Count() != 0 {
		t.Error("failed observations recorded durations")
	}
}

func TestRollingWindowMAEAndNAE(t *testing.T) {
	tel := New(Options{Window: 4, SlowThreshold: -1})
	r := tel.Table("t")
	// |est-actual| = 2 each round; |trivial-actual| = 8 each round.
	for i := 0; i < 3; i++ {
		r.RecordRound(testRound(10, 12, 20, time.Microsecond))
	}
	n, mae, nae := r.Rolling()
	if n != 3 {
		t.Fatalf("window rounds = %d, want 3", n)
	}
	if math.Abs(mae-2) > 1e-12 {
		t.Errorf("MAE = %g, want 2", mae)
	}
	if math.Abs(nae-0.25) > 1e-12 {
		t.Errorf("NAE = %g, want 2/8", nae)
	}
	// Overflow the window with perfect rounds: the old errors must fall out.
	for i := 0; i < 4; i++ {
		r.RecordRound(testRound(5, 5, 9, time.Microsecond))
	}
	n, mae, nae = r.Rolling()
	if n != 4 {
		t.Fatalf("window rounds = %d, want 4 (capacity)", n)
	}
	if mae != 0 || nae != 0 {
		t.Errorf("after perfect rounds MAE=%g NAE=%g, want 0", mae, nae)
	}
	if got := r.rollingMAE.Value(); got != 0 {
		t.Errorf("gauge MAE = %g, want 0", got)
	}
}

// TestSlowRoundCounter pins that rounds at or over the slow threshold count
// in sthist_slow_feedback_total, and that a negative threshold disables it.
func TestSlowRoundCounter(t *testing.T) {
	tel := New(Options{SlowThreshold: 10 * time.Millisecond})
	r := tel.Table("t")
	r.RecordRound(testRound(1, 1, 1, time.Millisecond))     // fast
	r.RecordRound(testRound(2, 2, 2, 10*time.Millisecond))  // slow: at the threshold
	r.RecordRound(testRound(3, 3, 3, time.Millisecond))     // fast
	r.RecordRound(testRound(4, 4, 4, 500*time.Millisecond)) // slow
	if got := r.slowRounds.Value(); got != 2 {
		t.Errorf("slow counter = %d, want 2", got)
	}
	r2 := New(Options{SlowThreshold: -1}).Table("t")
	r2.RecordRound(testRound(1, 1, 1, time.Hour))
	if got := r2.slowRounds.Value(); got != 0 {
		t.Errorf("disabled slow threshold still counted %d", got)
	}
}

func TestCountersFeedInstruments(t *testing.T) {
	tel := New(Options{})
	r := tel.Table("t")
	r.RecordRound(testRound(1, 2, 3, time.Millisecond))
	r.RecordEstimate(time.Microsecond)
	r.RecordQuarantine()
	r.RecordRejected()
	if r.rounds.Value() != 1 || r.drills.Value() != 2 || r.skipped.Value() != 1 {
		t.Errorf("round counters = %d/%d/%d", r.rounds.Value(), r.drills.Value(), r.skipped.Value())
	}
	if r.mergesPC.Value() != 1 || r.mergesSib.Value() != 1 {
		t.Errorf("merge counters = %d/%d", r.mergesPC.Value(), r.mergesSib.Value())
	}
	if r.mergePenalty.Count() != 2 || r.mergePenalty.Sum() != 10 {
		t.Errorf("penalty histogram count=%d sum=%g", r.mergePenalty.Count(), r.mergePenalty.Sum())
	}
	if r.estimates.Value() != 1 || r.quarantines.Value() != 1 || r.rejected.Value() != 1 {
		t.Errorf("estimate/quarantine/reject = %d/%d/%d", r.estimates.Value(), r.quarantines.Value(), r.rejected.Value())
	}
	p50, p95, p99 := r.Quantiles()
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not monotone: %g %g %g", p50, p95, p99)
	}
}

func TestTableIsIdempotent(t *testing.T) {
	tel := New(Options{})
	a := tel.Table("b-table")
	if tel.Table("b-table") != a {
		t.Error("Table minted a second recorder for the same name")
	}
	if tel.Table("a-table") == a {
		t.Error("Table shared one recorder between two tables")
	}
}

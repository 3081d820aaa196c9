package sthist

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"sthist/internal/datagen"
	"sthist/internal/telemetry"
	"sthist/internal/workload"
)

// crossEstimator opens an uninitialized estimator over the Cross dataset so
// accuracy starts poor and the learning is visible, plus its workload and
// the table's exact counts.
func crossEstimator(t testing.TB, buckets, queries int) (*Estimator, []Rect, func(Rect) float64) {
	t.Helper()
	ds := datagen.Cross(0.04, 1)
	est, err := Open(ds.Table, Options{Buckets: buckets, Seed: 1, SkipInitialization: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.MustGenerate(ds.Domain, workload.Config{
		VolumeFraction: 0.01, N: queries, Seed: 7,
	}, ds.Table)
	return est, qs, exactCounts(t, ds.Table)
}

// TestRollingNAEDecreasesOnCross is the end-to-end accuracy-tracking check:
// over a Cross workload the rolling NAE (Eq. 10, computed online from the
// feedback stream) of an initially uninitialized histogram must decay as the
// holes are drilled.
func TestRollingNAEDecreasesOnCross(t *testing.T) {
	est, qs, truth := crossEstimator(t, 100, 400)
	tel := telemetry.New(telemetry.Options{Window: 100, SlowThreshold: -1})
	rec := tel.Table("cross")
	est.SetRecorder(rec)

	var naeEarly float64
	var last Round
	for i, q := range qs {
		if errs := est.FeedbackBatch([]Observation{{Query: q, Actual: truth(q), Round: &last}}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		if i == 99 {
			_, _, naeEarly = rec.Rolling()
		}
	}
	n, mae, naeLate := rec.Rolling()
	if n != 100 {
		t.Fatalf("rolling window holds %d rounds, want 100", n)
	}
	if naeEarly <= 0 || naeLate <= 0 {
		t.Fatalf("NAE not tracked: early=%g late=%g", naeEarly, naeLate)
	}
	if naeLate >= naeEarly {
		t.Errorf("rolling NAE did not decay: %g (rounds 1-100) -> %g (rounds 301-400)", naeEarly, naeLate)
	}
	if mae < 0 {
		t.Errorf("rolling MAE = %g", mae)
	}
	if q := qs[len(qs)-1]; last.Actual != truth(q) || !last.Query.Equal(q) {
		t.Errorf("last round = %+v, want the fed query and truth", last)
	}
}

// TestFeedbackBatchReportsRoundDetail checks the per-observation detail
// FeedbackBatch hands back: the round as the recorder saw it, merges copied
// out of the estimator's reused scratch, rejected observations untouched,
// and the same detail with no recorder attached.
func TestFeedbackBatchReportsRoundDetail(t *testing.T) {
	withRec, qs, truth := crossEstimator(t, 5, 80)
	bare, _, _ := crossEstimator(t, 5, 80)
	tel := telemetry.New(telemetry.Options{SlowThreshold: -1})
	withRec.SetRecorder(tel.Table("cross"))

	var rounds []Round
	var penalties float64
	for _, q := range qs {
		var a, b Round
		errs := withRec.FeedbackBatch([]Observation{{Query: q, Actual: truth(q), Round: &a}})
		errs = append(errs, bare.FeedbackBatch([]Observation{{Query: q, Actual: truth(q), Round: &b}})...)
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if !a.Query.Equal(q) || a.Estimate != b.Estimate || a.Drills != b.Drills || len(a.Merges) != len(b.Merges) {
			t.Fatalf("round detail differs with and without a recorder: %+v vs %+v", a, b)
		}
		for _, m := range a.Merges {
			penalties += m.Penalty
		}
		rounds = append(rounds, a)
	}
	merged := 0
	for _, r := range rounds {
		merged += len(r.Merges)
	}
	if merged == 0 {
		t.Fatal("a 5-bucket histogram never merged")
	}
	// Each round's merges survived the rounds after it, and they are what
	// the recorder's penalty histogram saw.
	h := tel.Registry().Histogram("sthist_merge_penalty", "", telemetry.PenaltyBuckets(), telemetry.L("table", "cross"))
	if h.Count() != uint64(merged) || math.Abs(h.Sum()-penalties) > 1e-9*math.Max(1, penalties) {
		t.Errorf("rounds carry %d merges (penalty sum %g), recorder saw %d (sum %g)", merged, penalties, h.Count(), h.Sum())
	}

	untouched := Round{Drills: -1}
	bad := []Observation{{Query: qs[0], Actual: -1, Round: &untouched}}
	if errs := bare.FeedbackBatch(bad); errs[0] == nil || untouched.Drills != -1 {
		t.Errorf("rejected observation: err %v, round %+v", errs[0], untouched)
	}
}

// TestFeedbackSteadyStateZeroAllocs asserts the zero-allocation invariant
// survives the telemetry hooks: a steady-state feedback round (every
// candidate drill skipped, amortized validation off) performs zero heap
// allocations, with or without a recorder attached. The scalar cases pin
// the same for Feedback, whose uniform split is a closure built by
// Histogram.DrillScalar: a frozen tree makes Drill return at once, so
// anything the round allocates comes from the path around it.
func TestFeedbackSteadyStateZeroAllocs(t *testing.T) {
	open := func(t *testing.T, withRecorder bool) (*Estimator, []Rect, func(Rect) float64) {
		ds := datagen.Cross(0.04, 1)
		est, err := Open(ds.Table, Options{Buckets: 100, Seed: 1, ValidateEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if withRecorder {
			est.SetRecorder(telemetry.New(telemetry.Options{}).Table("cross"))
		}
		qs := workload.MustGenerate(ds.Domain, workload.Config{
			VolumeFraction: 0.01, N: 64, Seed: 7,
		}, ds.Table)
		return est, qs, exactCounts(t, ds.Table)
	}
	for _, withRecorder := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder=%v", withRecorder), func(t *testing.T) {
			est, qs, _ := open(t, withRecorder)
			steady := func(r Rect) float64 { return est.work.Estimate(r) }
			for _, q := range qs { // converge + warm scratch buffers
				if err := est.FeedbackWith(q, steady); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if err := est.FeedbackWith(qs[i%len(qs)], steady); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state feedback allocates %g times per round, want 0", allocs)
			}
		})
		t.Run(fmt.Sprintf("scalar/recorder=%v", withRecorder), func(t *testing.T) {
			est, qs, truth := open(t, withRecorder)
			est.work.SetFrozen(true)
			actuals := make([]float64, len(qs))
			for i, q := range qs {
				actuals[i] = truth(q)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				j := i % len(qs)
				if err := est.Feedback(qs[j], actuals[j]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("scalar feedback on a frozen tree allocates %g times per round, want 0", allocs)
			}
		})
	}
}

// BenchmarkFeedbackRound measures the estimator feedback round at the
// paper's largest budget (250 buckets), with and without a recorder attached.
// CI guards the ratio: telemetry=on must stay within 5% of telemetry=off
// (see cmd/benchjson -guard-* and the bench-guard make target).
//
// One benchmark op is a full deterministic pass: restore the warmed
// histogram snapshot (off the clock), then replay the fixed workload with
// precomputed true cardinalities. Restoring per op keeps both variants on
// the exact same tree trajectory — drill and merge cost depends on tree
// state, so letting the state diverge with b.N would drown a 5% budget in
// path-dependent noise.
func BenchmarkFeedbackRound(b *testing.B) {
	run := func(b *testing.B, withTelemetry bool) {
		est, qs, truth := crossEstimator(b, 250, 256)
		actuals := make([]float64, len(qs))
		for i, q := range qs {
			actuals[i] = truth(q)
		}
		if withTelemetry {
			tel := telemetry.New(telemetry.Options{})
			est.SetRecorder(tel.Table("bench"))
		}
		// Warm up: drill the workload once so the op measures the steady
		// maintenance regime rather than initial tree growth.
		for i, q := range qs {
			if err := est.Feedback(q, actuals[i]); err != nil {
				b.Fatal(err)
			}
		}
		var snap bytes.Buffer
		if err := est.SaveHistogram(&snap); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := est.LoadHistogram(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for j, q := range qs {
				if err := est.Feedback(q, actuals[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("telemetry=off", func(b *testing.B) { run(b, false) })
	b.Run("telemetry=on", func(b *testing.B) { run(b, true) })
}

package httpapi

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sthist"
	"sthist/internal/drift"
	"sthist/internal/faultfs"
	"sthist/internal/geom"
	"sthist/internal/telemetry"
	"sthist/internal/wal"
)

// shiftedActual is the post-shift ground truth used by the drift tests: the
// relation's 1500 tuples have all moved into [0,100]^2 (uniformly), while
// the estimator was built on tuples uniform over [0,1000]^2.
func shiftedActual(q geom.Rect) float64 {
	cluster := geom.MustRect([]float64{0, 0}, []float64{100, 100})
	return 1500 * q.IntersectionVolume(cluster) / cluster.Volume()
}

// shiftedQuery draws a small query box with its corner uniform in
// [0,span]^2. A small span keeps the workload inside the hot region (easy
// for the incumbent to patch by drilling); a large span makes the workload
// wander, which a 30-bucket incumbent cannot cover.
func shiftedQuery(rng *rand.Rand, span float64) (lo, hi []float64) {
	x, y := rng.Float64()*span, rng.Float64()*span
	return []float64{x, y}, []float64{x + 25, y + 25}
}

// driveRound injects one observation and waits for its commit, so every
// batch has exactly one observation and the drift loop ticks once per call.
func driveRound(t *testing.T, ent *entry, lo, hi []float64, actual float64) {
	t.Helper()
	req := inject(t, ent, lo, hi, actual)
	res := <-req.done
	if res.err != nil {
		t.Fatalf("feedback failed: %v", res.err)
	}
}

// awaitBuild parks until the background candidate build (if any) has
// delivered its result, so the round at which probation starts does not
// depend on scheduling and the whole test run is deterministic.
func awaitBuild(t *testing.T, ent *entry) {
	t.Helper()
	ent.jmu.Lock()
	d := ent.drift
	building := d != nil && d.building
	ent.jmu.Unlock()
	if !building {
		return
	}
	ch := d.buildCh
	deadline := time.Now().Add(30 * time.Second)
	for len(ch) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("candidate build did not finish")
		}
		time.Sleep(time.Millisecond)
	}
}

func newDriftServer(t *testing.T, est *sthist.Estimator, l *wal.Log, cfg drift.Config) (*Server, *entry) {
	t.Helper()
	s := NewServer()
	var err error
	if l != nil {
		err = s.RegisterDurable("orders", est, l)
	} else {
		err = s.Register("orders", est)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTelemetry(telemetry.New(telemetry.Options{Window: 16}))
	if err := s.EnableDrift("orders", cfg); err != nil {
		t.Fatal(err)
	}
	ent, err := s.lookup("orders")
	if err != nil {
		t.Fatal(err)
	}
	return s, ent
}

// fastDriftConfig fires and resolves quickly so tests stay cheap.
func fastDriftConfig() drift.Config {
	return drift.Config{
		NAEThreshold:    0.5,
		Sustain:         2,
		MinRounds:       8,
		Cooldown:        8,
		Probation:       8,
		PromoteRatio:    1.0,
		ReservoirSize:   128,
		MinReservoir:    8,
		SyntheticPoints: 512,
	}
}

// TestDriftPromotion drives the full loop in the promote direction: a
// distribution shift degrades the rolling NAE, the detector fires, the
// background re-seeder clusters the feedback reservoir, the candidate wins
// its probation, and the swap is journaled to the WAL as a reseed record
// that recovery replays into the live table's exact state.
func TestDriftPromotion(t *testing.T) {
	tab := uniformTable(t, 1)
	opts := sthist.Options{Buckets: 30, Seed: 2}
	est, err := sthist.Open(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "orders")
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, ent := newDriftServer(t, est, l, fastDriftConfig())

	rng := rand.New(rand.NewSource(31))
	var promotedAt int
	for round := 1; round <= 400; round++ {
		lo, hi := shiftedQuery(rng, 250)
		driveRound(t, ent, lo, hi, shiftedActual(geom.MustRect(lo, hi)))
		awaitBuild(t, ent)
		if ds := ent.driftStats(); ds.Promoted >= 1 {
			promotedAt = round
			break
		}
	}
	ds := ent.driftStats()
	if promotedAt == 0 {
		t.Fatalf("no promotion within 400 rounds: %+v", ds)
	}
	if ds.Triggers < 1 || ds.LastOutcome != "promoted" || ds.LastScores == nil {
		t.Fatalf("promotion not booked: %+v", ds)
	}
	if ds.LastScores.CandAbs > ds.LastScores.LiveAbs {
		t.Fatalf("promoted a losing candidate: %+v", *ds.LastScores)
	}
	if ds.State != "cooldown" {
		t.Fatalf("state after promotion = %q, want cooldown", ds.State)
	}

	// The swap must be journaled as exactly one reseed record, and
	// recovering the whole log must rebuild the live table bit for bit.
	s.DrainFeedback()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, rc, rv, err := recoverLog(dir, tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	reseeds := 0
	for _, r := range rc.Records {
		if r.Kind == wal.KindReseed {
			reseeds++
		}
	}
	if reseeds != 1 || rv.Reseeds != 1 {
		t.Fatalf("found %d reseed records (%d replayed), want 1", reseeds, rv.Reseeds)
	}
	assertSameEstimates(t, recovered, est)

	// And the adaptation must have actually helped: the promoted estimator
	// knows the mass sits in the hot corner.
	hot := geom.MustRect([]float64{0, 0}, []float64{100, 100})
	if got := est.Estimate(hot); got < 750 {
		t.Fatalf("post-promotion estimate for the hot region = %.0f, want >= 750 of 1500", got)
	}
}

// TestDriftRejection drives the rollback direction: the live estimator is
// already well-matched to the workload, an over-sensitive threshold still
// fires the detector, and the candidate must LOSE its probation — the
// incumbent keeps serving and no reseed record is journaled.
func TestDriftRejection(t *testing.T) {
	// Build the estimator on the clustered data itself, so the live arm is
	// initialized for exactly the workload it will be scored on.
	tab, err := sthist.NewTable("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	trng := rand.New(rand.NewSource(8))
	for i := 0; i < 1500; i++ {
		tab.MustAppend([]float64{trng.Float64() * 100, trng.Float64() * 100})
	}
	dom := geom.MustRect([]float64{0, 0}, []float64{1000, 1000})
	est, err := sthist.Open(tab, sthist.Options{Buckets: 30, Seed: 2, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "orders")
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastDriftConfig()
	// Fire on any error at all: the point is to reach probation with a live
	// arm that is hard to beat by the strict margin.
	cfg.NAEThreshold = 1e-9
	cfg.PromoteRatio = 0.05
	_, ent := newDriftServer(t, est, l, cfg)

	rng := rand.New(rand.NewSource(33))
	var rejectedAt int
	for round := 1; round <= 400; round++ {
		lo, hi := shiftedQuery(rng, 125)
		driveRound(t, ent, lo, hi, shiftedActual(geom.MustRect(lo, hi)))
		awaitBuild(t, ent)
		if ds := ent.driftStats(); ds.Rejected >= 1 {
			rejectedAt = round
			break
		}
		if ds := ent.driftStats(); ds.Promoted >= 1 {
			t.Fatalf("candidate beat a well-initialized incumbent by 20x: %+v", ds.LastScores)
		}
	}
	ds := ent.driftStats()
	if rejectedAt == 0 {
		t.Fatalf("no rejection within 400 rounds: %+v", ds)
	}
	if ds.Promoted != 0 || ds.LastOutcome != "rejected" {
		t.Fatalf("rollback not booked: %+v", ds)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rc, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rc.Records {
		if r.Kind == wal.KindReseed {
			t.Fatal("rejected candidate left a reseed record in the WAL")
		}
	}
}

// TestDrainJoinsDriftBuild: DrainFeedback must not return while a background
// candidate build is running, and once it returns the build has delivered
// its result.
func TestDrainJoinsDriftBuild(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	orig := buildCandidate
	buildCandidate = func(obs []drift.Observation, dom geom.Rect, maxBuckets int, total float64, cfg drift.Config, seed int64) (*drift.Candidate, error) {
		started <- struct{}{}
		<-release
		return orig(obs, dom, maxBuckets, total, cfg, seed)
	}
	t.Cleanup(func() { buildCandidate = orig })

	est, err := sthist.Open(uniformTable(t, 1), sthist.Options{Buckets: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, ent := newDriftServer(t, est, nil, fastDriftConfig())
	rng := rand.New(rand.NewSource(31))
	for round := 1; len(started) == 0; round++ {
		if round > 400 {
			t.Fatalf("no candidate build within 400 rounds: %+v", ent.driftStats())
		}
		lo, hi := shiftedQuery(rng, 250)
		driveRound(t, ent, lo, hi, shiftedActual(geom.MustRect(lo, hi)))
	}

	drained := make(chan struct{})
	go func() {
		s.DrainFeedback()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("DrainFeedback returned while a candidate build was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("DrainFeedback did not return after the build finished")
	}
	if n := len(ent.drift.buildCh); n != 1 {
		t.Fatalf("%d build results waiting after the drain, want 1", n)
	}
}

// TestEnableDriftValidation covers the wiring preconditions.
func TestEnableDriftValidation(t *testing.T) {
	est, err := sthist.Open(uniformTable(t, 1), sthist.Options{Buckets: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	if err := s.EnableDrift("orders", drift.Config{}); err == nil {
		t.Error("unknown table accepted")
	}
	if err := s.Register("orders", est); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDrift("orders", drift.Config{}); err == nil {
		t.Error("drift without telemetry accepted")
	}
	s.EnableTelemetry(telemetry.New(telemetry.Options{}))
	if err := s.EnableDrift("orders", drift.Config{PromoteRatio: 7}); err == nil {
		t.Error("invalid config accepted")
	}
	if err := s.EnableDrift("orders", drift.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDrift("orders", drift.Config{}); err == nil {
		t.Error("double enable accepted")
	}
	if ds, err := s.lookup("orders"); err != nil || !ds.driftStats().Enabled {
		t.Error("drift not reported enabled")
	}
}

// TestCrashAcrossReseedSwapRecoversBitIdentical extends the batch-boundary
// crash sweep across a histogram swap: the WAL carries feedback, then a
// reseed record, then more feedback, with an injected write fault at every
// boundary. Whatever prefix survives, replaying it the way sthistd does
// (Feedback for feedback records, LoadHistogram for reseed records) must be
// bit-identical to the synchronous reference at that prefix length.
func TestCrashAcrossReseedSwapRecoversBitIdentical(t *testing.T) {
	tab := uniformTable(t, 17)
	opts := sthist.Options{Buckets: 25, Seed: 6}
	open := func() *sthist.Estimator {
		est, err := sthist.Open(tab, opts)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	// A deterministic candidate to promote mid-workload, built from a fixed
	// reservoir exactly like the live loop would.
	resObs := make([]drift.Observation, 0, 32)
	crng := rand.New(rand.NewSource(51))
	for i := 0; i < 32; i++ {
		lo, hi := shiftedQuery(crng, 125)
		q := geom.MustRect(lo, hi)
		resObs = append(resObs, drift.Observation{Query: q, Actual: shiftedActual(q)})
	}
	domain := open().Domain()
	ccfg := drift.DefaultConfig()
	ccfg.MinReservoir = 16 // boxes that missed the cluster carry no mass
	cand, err := drift.BuildCandidate(resObs, domain, 25, 1500, ccfg, 9)
	if err != nil {
		t.Fatal(err)
	}

	const stageSize = 3
	type step struct {
		reseed bool
		lo, hi []float64
		actual float64
	}
	wrng := rand.New(rand.NewSource(29))
	var steps []step
	for i := 0; i < stageSize*2; i++ {
		x, y := wrng.Float64()*800, wrng.Float64()*800
		steps = append(steps, step{lo: []float64{x, y}, hi: []float64{x + 60, y + 60}, actual: float64(5 + i)})
	}
	steps = append(steps, step{reseed: true})
	for i := 0; i < stageSize*2; i++ {
		lo, hi := shiftedQuery(wrng, 125)
		steps = append(steps, step{lo: lo, hi: hi, actual: shiftedActual(geom.MustRect(lo, hi))})
	}

	snap := func(e *sthist.Estimator) []byte {
		var buf bytes.Buffer
		if err := e.SaveHistogram(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Reference: the synchronous path, snapshotted after every step.
	ref := make([][]byte, len(steps)+1)
	refEst := open()
	ref[0] = snap(refEst)
	for i, st := range steps {
		if st.reseed {
			if err := refEst.AdoptHistogram(cand.Hist.Clone()); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := refEst.Feedback(geom.MustRect(st.lo, st.hi), st.actual); err != nil {
				t.Fatal(err)
			}
		}
		ref[i+1] = snap(refEst)
	}

	total := len(steps)
	sawPartial, sawReseedSurvive, sawPromoteRefused := false, false, false
	// Write 1 is the manifest; the sweep kills every subsequent write once.
	// total+1 writes can never happen (batching only lowers the count), so
	// the last iteration is the crash-free control.
	for crash := 1; crash <= total+2; crash++ {
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
		for base := 0; base < len(steps); {
			if steps[base].reseed {
				// The promotion path exactly as the drift loop runs it:
				// journal the reseed record, then adopt, under jmu.
				ent.jmu.Lock()
				err := ent.promoteLocked(cand.Hist.Clone())
				ent.jmu.Unlock()
				if err != nil {
					// The injected fault (or the sticky error a previous write
					// failure left behind) hit the reseed append: the
					// promotion must be refused — the estimator keeps serving
					// the old histogram instead of adopting state no replay
					// could ever reproduce.
					if l.Err() == nil {
						t.Fatalf("crash %d: promote refused without a failed log: %v", crash, err)
					}
					sawPromoteRefused = true
				}
				base++
				continue
			}
			reqs := make([]*feedbackReq, 0, stageSize)
			for i := base; i < base+stageSize && i < len(steps) && !steps[i].reseed; i++ {
				reqs = append(reqs, inject(t, ent, steps[i].lo, steps[i].hi, steps[i].actual))
			}
			for _, r := range reqs {
				<-r.done
			}
			base += len(reqs)
		}
		s.DrainFeedback()
		_ = l.Close()

		// "Reboot": recover the table the way cmd/sthistd does.
		recovered, rc2, rv, err := recoverLog(dir, tab, opts)
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		n := len(rc2.Records)
		if n > total {
			t.Fatalf("crash %d: recovered %d records, more than the %d fed", crash, n, total)
		}
		if n > 0 && n < total {
			sawPartial = true
		}
		if crash == total+2 && n != total {
			t.Fatalf("crash-free control recovered %d records, want %d", n, total)
		}
		reseeds := 0
		for i, r := range rc2.Records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("crash %d: record %d has seq %d", crash, i, r.Seq)
			}
			if (r.Kind == wal.KindReseed) != steps[i].reseed {
				t.Fatalf("crash %d: record %d is a %v, step %d is not", crash, i, r.Kind, i)
			}
			if r.Kind == wal.KindReseed {
				reseeds++
				sawReseedSurvive = true
			}
		}
		if rv.Reseeds != reseeds {
			t.Fatalf("crash %d: RecoverTable replayed %d reseeds, the log holds %d", crash, rv.Reseeds, reseeds)
		}
		if got := snap(recovered); !bytes.Equal(got, ref[n]) {
			t.Errorf("crash %d: recovered histogram differs from the synchronous reference after %d steps", crash, n)
		}
	}
	if !sawPartial {
		t.Error("sweep never produced a partial prefix")
	}
	if !sawReseedSurvive {
		t.Error("sweep never recovered a surviving reseed record")
	}
	if !sawPromoteRefused {
		t.Error("sweep never refused a promotion on a failed journal append")
	}
}

// TestDriftConcurrentReadsDuringPromotion hammers wait-free reads and HTTP
// estimates while the drift loop detects, builds, scores and promotes.
// Meaningful under -race: it proves the probation bookkeeping and the
// atomic swap never race with concurrent readers. The writer waits for each
// background build, as the promotion tests do, so the round a build lands
// on, and with it the reservoir the next trigger sees, does not depend on
// how busy the machine is.
func TestDriftConcurrentReadsDuringPromotion(t *testing.T) {
	est, err := sthist.Open(uniformTable(t, 1), sthist.Options{Buckets: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ent := newDriftServer(t, est, nil, fastDriftConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo, hi := shiftedQuery(rng, 250)
				q := geom.MustRect(lo, hi)
				if e := est.Estimate(q); e < 0 {
					t.Errorf("negative estimate %g", e)
					return
				}
				_, _, _ = ent.estimate(q)
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(31))
	for round := 1; round <= 300; round++ {
		lo, hi := shiftedQuery(rng, 250)
		driveRound(t, ent, lo, hi, shiftedActual(geom.MustRect(lo, hi)))
		awaitBuild(t, ent)
		if ds := ent.driftStats(); ds.Promoted+ds.Rejected >= 1 {
			break
		}
	}
	close(stop)
	wg.Wait()
	ds := ent.driftStats()
	if ds.Triggers == 0 {
		t.Fatalf("drift never triggered under concurrency: %+v", ds)
	}
	if ds.Promoted+ds.Rejected == 0 {
		t.Fatalf("no probation resolved within 300 rounds: %+v", ds)
	}
}

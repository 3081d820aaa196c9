package httpapi

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"sthist"
	"sthist/internal/drift"
	"sthist/internal/metrics"
	"sthist/internal/reservoir"
	"sthist/internal/telemetry"
	"sthist/internal/wal"
)

// driftCtl is the per-table drift-adaptation loop state. It lives entirely
// inside the table's group-commit path: every field is guarded by entry.jmu,
// and every transition happens in driftStepLocked, which commitBatch calls
// once per batch. The only concurrency is the background candidate build,
// which runs over an immutable reservoir snapshot and delivers its result
// through buildCh (buffered, polled non-blocking by the next batch). builds
// tracks that goroutine so DrainFeedback can join it.
type driftCtl struct {
	cfg drift.Config
	det *drift.Detector
	res *reservoir.Reservoir[drift.Observation]

	shadow   *drift.Shadow // non-nil exactly while a candidate is on probation
	building bool          // a background build is in flight
	buildCh  chan buildResult
	builds   sync.WaitGroup
	buildSeq int64 // perturbs the build seed so retries explore different medoids

	promoted      uint64
	rejected      uint64
	buildFailures uint64
	lastOutcome   string
	lastScores    drift.Scores
	haveScores    bool

	// Telemetry instruments; EnableDrift requires telemetry.
	mTriggers *telemetry.Counter
	mPromoted *telemetry.Counter
	mRejected *telemetry.Counter
	mDuration *telemetry.Histogram
}

// buildCandidate is the re-seeder the background build runs; tests swap it
// to hold a build in flight.
var buildCandidate = drift.BuildCandidate

// buildResult is what the background re-seeder hands back to the writer.
type buildResult struct {
	cand *drift.Candidate
	err  error
	dur  time.Duration
}

// EnableDrift turns on drift-adaptive re-seeding for a registered table. The
// detector reads the table's rolling NAE from its telemetry recorder, so
// EnableTelemetry must have been called first. cfg zero-fields take defaults
// (drift.DefaultConfig). Enable before serving traffic.
func (s *Server) EnableDrift(name string, cfg drift.Config) error {
	ent, err := s.lookup(name)
	if err != nil {
		return err
	}
	if err := cfg.Sanitize(); err != nil {
		return err
	}
	if ent.rec == nil {
		return fmt.Errorf("httpapi: drift adaptation for %q needs telemetry (call EnableTelemetry first)", name)
	}
	det, err := drift.NewDetector(cfg)
	if err != nil {
		return err
	}
	res, err := reservoir.New[drift.Observation](cfg.ReservoirSize, driftSeed(name))
	if err != nil {
		return err
	}
	reg, lbl := s.Telemetry().Registry(), telemetry.L("table", name)
	d := &driftCtl{
		cfg: cfg, det: det, res: res, buildCh: make(chan buildResult, 1),
		mTriggers: reg.Counter("sthist_drift_triggers_total",
			"Drift detector firings (sustained rolling NAE above threshold).", lbl),
		mPromoted: reg.Counter("sthist_reseed_promoted_total",
			"Re-seeded candidate histograms promoted after probation.", lbl),
		mRejected: reg.Counter("sthist_reseed_rejected_total",
			"Re-seeded candidate histograms rejected after probation.", lbl),
		mDuration: reg.Histogram("sthist_reseed_duration_seconds",
			"Background candidate build duration.", telemetry.LatencyBuckets(), lbl),
	}
	ent.jmu.Lock()
	defer ent.jmu.Unlock()
	if ent.drift != nil {
		return fmt.Errorf("httpapi: drift adaptation already enabled for %q", name)
	}
	ent.drift = d
	return nil
}

// driftSeed derives a stable per-table reservoir seed from the table name,
// so restarts sample the same way without any global randomness.
func driftSeed(name string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211
	}
	return h
}

// driftPreApplyLocked captures the live estimator's answers for the batch
// BEFORE the feedback is applied — the live arm of the shadow comparison
// must be scored on what the estimator would have answered the optimizer,
// not on what it knows after learning from the very observation being
// scored. Only runs during probation, so the no-drift feedback path pays a
// nil check and nothing else. jmu held.
func (e *entry) driftPreApplyLocked(batch []*feedbackReq) []float64 {
	if e.drift == nil || e.drift.shadow == nil {
		return nil
	}
	ests := e.liveScratch[:0]
	for _, r := range batch {
		ests = append(ests, e.est.Estimate(r.q))
	}
	e.liveScratch = ests
	return ests
}

// driftStepLocked advances the adaptation loop by one committed batch:
// reservoir upkeep, build completion, probation scoring, probation verdict,
// and the detector tick, in that order. jmu held by commitBatch.
func (e *entry) driftStepLocked(obs []sthist.Observation, liveEsts []float64) {
	d := e.drift
	if d == nil {
		return
	}
	for i := range obs {
		d.res.Add(drift.Observation{Query: obs[i].Query, Actual: obs[i].Actual})
	}
	if d.building {
		select {
		case res := <-d.buildCh:
			d.building = false
			d.mDuration.Observe(res.dur.Seconds())
			e.startProbationLocked(res)
		default:
		}
	}
	if d.shadow != nil && len(liveEsts) == len(obs) {
		triv := metrics.TrivialEstimator{Domain: e.est.Domain(), Total: e.est.StatsSnapshot().TotalTuples}
		for i := range obs {
			d.shadow.Observe(obs[i].Query, liveEsts[i], triv.Estimate(obs[i].Query), obs[i].Actual)
		}
		if d.shadow.Rounds() >= d.cfg.Probation {
			e.resolveProbationLocked()
		}
	}
	n, _, nae := e.rec.Rolling()
	if d.det.Observe(n, nae) {
		d.mTriggers.Inc()
		e.startBuildLocked()
	}
}

// startBuildLocked kicks the background re-seeder over a reservoir snapshot.
// The detector stays suppressed until the attempt resolves. jmu held.
func (e *entry) startBuildLocked() {
	d := e.drift
	snap := d.res.Snapshot()
	if len(snap) < d.cfg.MinReservoir {
		d.buildFailures++
		d.lastOutcome = "starved"
		d.det.Rearm()
		return
	}
	d.building = true
	d.buildSeq++
	seed := d.res.Seed() + d.buildSeq
	dom := e.est.Domain()
	st := e.est.StatsSnapshot()
	cfg, ch, builds, build := d.cfg, d.buildCh, &d.builds, buildCandidate
	builds.Add(1)
	go func() {
		defer builds.Done()
		start := time.Now()
		cand, err := build(snap, dom, st.MaxBuckets, st.TotalTuples, cfg, seed)
		ch <- buildResult{cand: cand, err: err, dur: time.Since(start)}
	}()
}

// waitDriftBuild blocks until the table's background candidate build, if one
// is in flight, has delivered its result. Only the writer starts builds, so
// once the writer has exited no new one can begin.
func (e *entry) waitDriftBuild() {
	e.jmu.Lock()
	d := e.drift
	e.jmu.Unlock()
	if d != nil {
		d.builds.Wait()
	}
}

// startProbationLocked receives a finished build and opens the shadow
// comparison, or books the failure and rearms the detector. jmu held.
func (e *entry) startProbationLocked(res buildResult) {
	d := e.drift
	if res.err != nil {
		d.buildFailures++
		d.lastOutcome = "build-failed"
		d.det.Rearm()
		return
	}
	sh, err := drift.NewShadow(res.cand.Hist, e.est.Domain(), e.est.StatsSnapshot().TotalTuples)
	if err != nil {
		d.buildFailures++
		d.lastOutcome = "build-failed"
		d.det.Rearm()
		return
	}
	d.shadow = sh
}

// resolveProbationLocked closes the probation window: promote the candidate
// if it beat the live arm, drop it otherwise. Either way the detector rearms
// (starting its cooldown) and the shadow state is released. jmu held.
func (e *entry) resolveProbationLocked() {
	d := e.drift
	sc := d.shadow.Scores()
	d.lastScores, d.haveScores = sc, true
	cand := d.shadow.Candidate()
	d.shadow = nil
	d.det.Rearm()
	if !sc.Promote(d.cfg.PromoteRatio) {
		d.rejected++
		d.lastOutcome = "rejected"
		d.mRejected.Inc()
		return
	}
	if err := e.promoteLocked(cand); err != nil {
		d.buildFailures++
		d.lastOutcome = "promote-failed"
		return
	}
	d.promoted++
	d.lastOutcome = "promoted"
	d.mPromoted.Inc()
}

// promoteLocked installs the winning candidate: journal the replacement to
// the WAL first (a reseed record carrying the serialized histogram), then
// swap it in with one atomic snapshot publish. The candidate is validated
// before the journal write, so once the record is durable the adoption
// cannot fail — recovery replaying the record lands on exactly the
// histogram the serving path switched to.
//
// Unlike the feedback path, a failed journal append must REJECT the
// promotion: feedback records are individually small corrections whose loss
// degrades durability, but a reseed swaps the entire served histogram. WAL
// errors are sticky until a successful checkpoint, so adopting after a failed
// append would serve a histogram that no replay can ever reproduce — the next
// crash silently rolls the table back to the pre-reseed shape. The caller
// books the failure and rearms the detector, which retries once the log
// recovers. jmu held.
func (e *entry) promoteLocked(cand *sthist.Histogram) error {
	if err := cand.Validate(); err != nil {
		return fmt.Errorf("candidate failed post-probation validation: %w", err)
	}
	if cand.Dims() != e.est.Domain().Dims() {
		return fmt.Errorf("candidate has %d dims, domain %d", cand.Dims(), e.est.Domain().Dims())
	}
	if e.log != nil {
		blob, err := json.Marshal(cand)
		if err != nil {
			return fmt.Errorf("serializing candidate: %w", err)
		}
		if _, err := e.log.Append(wal.Record{Kind: wal.KindReseed, Blob: blob}); err != nil {
			e.appendErrors++
			return fmt.Errorf("journaling reseed: %w", err)
		}
		e.sinceCkpt++
	}
	return e.est.AdoptHistogram(cand)
}

// driftState names the loop's current phase for /stats and /healthz.
func (d *driftCtl) stateLocked() string {
	switch {
	case d.building:
		return "building"
	case d.shadow != nil:
		return "probation"
	case d.det.Suppressed():
		// Fired but the build/probation handoff has not landed yet.
		return "building"
	case d.det.Cooldown() > 0:
		return "cooldown"
	default:
		return "watching"
	}
}

// driftStats is the drift block of /stats and /healthz.
type driftStats struct {
	Enabled         bool          `json:"enabled"`
	State           string        `json:"state,omitempty"`
	Triggers        uint64        `json:"triggers,omitempty"`
	Promoted        uint64        `json:"promoted,omitempty"`
	Rejected        uint64        `json:"rejected,omitempty"`
	BuildFailures   uint64        `json:"build_failures,omitempty"`
	Reservoir       int           `json:"reservoir,omitempty"`
	ReservoirSeen   uint64        `json:"reservoir_seen,omitempty"`
	ProbationRounds int           `json:"probation_rounds,omitempty"`
	LastOutcome     string        `json:"last_outcome,omitempty"`
	LastScores      *drift.Scores `json:"last_scores,omitempty"`
}

func (e *entry) driftStats() driftStats {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	d := e.drift
	if d == nil {
		return driftStats{}
	}
	ds := driftStats{
		Enabled:       true,
		State:         d.stateLocked(),
		Triggers:      d.det.Triggers(),
		Promoted:      d.promoted,
		Rejected:      d.rejected,
		BuildFailures: d.buildFailures,
		Reservoir:     d.res.Len(),
		ReservoirSeen: d.res.Seen(),
		LastOutcome:   d.lastOutcome,
	}
	if d.shadow != nil {
		ds.ProbationRounds = d.shadow.Rounds()
	}
	if d.haveScores {
		sc := d.lastScores
		ds.LastScores = &sc
	}
	return ds
}

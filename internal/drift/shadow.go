package drift

import (
	"fmt"
	"math"

	"sthist/internal/geom"
	"sthist/internal/isomer"
	"sthist/internal/sthole"
)

// Shadow scores a candidate histogram against the live estimator on the
// feedback stream during probation. Three arms see every observation:
//
//   - live: the serving estimator (its estimate is taken BEFORE the feedback
//     is applied, and passed in by the embedder);
//   - cand: the re-seeded candidate, which estimates first and then drills
//     the same feedback, so it keeps learning while on trial;
//   - refine: a fresh ISOMER-style max-entropy histogram that learns from
//     the probation feedback alone — the arm the query-feedback line of work
//     (Markl et al., arXiv:1111.7295's lineage) would field. It is
//     informational: it shows whether re-clustering beats merely restarting
//     refinement, but never wins promotion itself.
//
// The promotion decision compares only cand vs live.
//
// Not concurrency-safe; the embedder's single writer owns it.
type Shadow struct {
	cand   *sthole.Histogram
	refine *isomer.Histogram

	rounds    int
	sumLive   float64
	sumCand   float64
	sumRefine float64
	sumTriv   float64
}

// NewShadow starts a probation for cand. The shadow takes ownership of cand
// (it drills it on every observation); domain and totalTuples seed the
// refine arm.
func NewShadow(cand *sthole.Histogram, domain geom.Rect, totalTuples float64) (*Shadow, error) {
	if cand == nil {
		return nil, fmt.Errorf("drift: nil candidate")
	}
	if cand.Dims() != domain.Dims() {
		return nil, fmt.Errorf("drift: candidate has %d dims, domain %d", cand.Dims(), domain.Dims())
	}
	ref, err := isomer.New(domain, isomer.DefaultConfig(), totalTuples)
	if err != nil {
		return nil, fmt.Errorf("drift: refine arm: %w", err)
	}
	return &Shadow{cand: cand, refine: ref}, nil
}

// Observe scores one feedback round. liveEst is the serving estimator's
// pre-apply estimate for q, trivial the single-bucket estimate (the NAE
// denominator term), actual the reported true cardinality. The candidate
// and refine arms estimate before learning from the same observation.
func (s *Shadow) Observe(q geom.Rect, liveEst, trivial, actual float64) {
	s.rounds++
	s.sumLive += math.Abs(liveEst - actual)
	s.sumCand += math.Abs(s.cand.Estimate(q) - actual)
	s.sumRefine += math.Abs(s.refine.Estimate(q) - actual)
	s.sumTriv += math.Abs(trivial - actual)
	s.cand.DrillScalar(q, actual)
	s.refine.Feedback(q, actual)
}

// Rounds returns how many observations have been scored.
func (s *Shadow) Rounds() int { return s.rounds }

// Candidate returns the candidate histogram under trial (still owned by the
// shadow until promotion).
func (s *Shadow) Candidate() *sthole.Histogram { return s.cand }

// Scores is the probation scoreboard: per-arm absolute-error sums and their
// NAE normalization over the probation window.
type Scores struct {
	Rounds    int     `json:"rounds"`
	LiveAbs   float64 `json:"live_abs"`
	CandAbs   float64 `json:"cand_abs"`
	RefineAbs float64 `json:"refine_abs"`
	TrivAbs   float64 `json:"triv_abs"`
	LiveNAE   float64 `json:"live_nae"`
	CandNAE   float64 `json:"cand_nae"`
	RefineNAE float64 `json:"refine_nae"`
}

// Scores returns the current scoreboard. NAE fields are zero when the
// trivial arm made no error (nothing to normalize by).
func (s *Shadow) Scores() Scores {
	sc := Scores{
		Rounds:    s.rounds,
		LiveAbs:   s.sumLive,
		CandAbs:   s.sumCand,
		RefineAbs: s.sumRefine,
		TrivAbs:   s.sumTriv,
	}
	if s.sumTriv > 0 {
		sc.LiveNAE = s.sumLive / s.sumTriv
		sc.CandNAE = s.sumCand / s.sumTriv
		sc.RefineNAE = s.sumRefine / s.sumTriv
	}
	return sc
}

// Promote decides the probation: the candidate wins when its absolute-error
// sum is at most ratio times the live arm's. The abs-error comparison is the
// NAE comparison (both arms share the trivial denominator) but stays defined
// when the trivial arm happens to be exact. A perfect live arm is never
// displaced by a merely-equal candidate.
func (sc Scores) Promote(ratio float64) bool {
	if sc.Rounds == 0 || sc.LiveAbs == 0 {
		return false
	}
	return sc.CandAbs <= ratio*sc.LiveAbs
}

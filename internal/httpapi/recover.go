package httpapi

import (
	"bytes"

	"sthist"
	"sthist/internal/wal"
)

// Recovered reports what RecoverTable rebuilt a table from.
type Recovered struct {
	// Checkpoint is true when the histogram was restored from the log's
	// checkpoint snapshot, false when it was seeded from the table's data.
	Checkpoint bool
	// CheckpointErr is why a checkpoint the log carried was rejected (it
	// failed LoadHistogram's validation); the table was then seeded from
	// its data instead.
	CheckpointErr error
	// Replayed counts the log-tail records applied, Reseeds how many of
	// those were KindReseed promotions, and Rejected the tail records the
	// estimator refused. Replayed + Rejected is the tail's length.
	Replayed, Reseeds, Rejected int
}

// RecoverTable rebuilds a durable table's estimator from what wal.Open
// recovered: the checkpoint snapshot when the log has a usable one, a fresh
// data-seeded histogram otherwise, then the log tail in order. Feedback
// records replay through Feedback and KindReseed records through
// LoadHistogram, the inverse of promoteLocked's journal-then-adopt, so the
// result is bit-identical to the estimator that wrote the log. A checkpoint
// that fails validation is treated like a missing one, and tail records the
// estimator refuses are counted, not fatal: the log is replayed as far as it
// can be. The only error is failing to open the estimator.
func RecoverTable(tab *sthist.Table, opts sthist.Options, rc *wal.Recovery) (*sthist.Estimator, Recovered, error) {
	var rv Recovered
	var est *sthist.Estimator
	if rc.Snapshot != nil {
		// The snapshot replaces the histogram wholesale, so the clustering
		// pass would be wasted.
		snapOpts := opts
		snapOpts.SkipInitialization = true
		e, err := sthist.Open(tab, snapOpts)
		if err != nil {
			return nil, rv, err
		}
		if rv.CheckpointErr = e.LoadHistogram(bytes.NewReader(rc.Snapshot)); rv.CheckpointErr == nil {
			est, rv.Checkpoint = e, true
		}
	}
	if est == nil {
		e, err := sthist.Open(tab, opts)
		if err != nil {
			return nil, rv, err
		}
		est = e
	}
	for _, r := range rc.Records {
		var err error
		if r.Kind == wal.KindReseed {
			// A journaled promotion: replace the histogram as AdoptHistogram
			// did live. Later feedback records refine it.
			if err = est.LoadHistogram(bytes.NewReader(r.Blob)); err == nil {
				rv.Reseeds++
			}
		} else {
			var q sthist.Rect
			if q, err = sthist.NewRect(r.Lo, r.Hi); err == nil {
				//sthlint:ignore walorder replays records read from this table's own log, which must not journal them again (the argument that exempts LoadHistogram)
				err = est.Feedback(q, r.Actual)
			}
		}
		if err != nil {
			rv.Rejected++
		} else {
			rv.Replayed++
		}
	}
	return est, rv, nil
}

package httpapi

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"sthist"
	"sthist/internal/geom"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
	"sthist/internal/wal"
)

// Defaults for the per-table feedback pipeline. The queue bounds how much
// accepted-but-uncommitted feedback a table can hold before the server pushes
// back with 429; the batch cap bounds how much one group commit may batch.
const (
	DefaultFeedbackQueueDepth = 1024
	DefaultFeedbackBatchMax   = 256
)

var (
	errQueueFull     = errors.New("feedback queue full; retry later")
	errTableDraining = errors.New("table draining; feedback no longer accepted")
)

// feedbackReq is one validated observation waiting for its group commit.
type feedbackReq struct {
	q      geom.Rect
	actual float64
	done   chan feedbackResult // buffered(1); written exactly once by the writer

	// Tracing (nil when the request is untraced): span is the node-side root
	// span owned by the handler, qspan covers the queue wait and is ended by
	// the writer at commit time. The writer must emit every stage event
	// BEFORE replying on done — the handler ends the root span right after,
	// which flushes the trace.
	span  *trace.Span
	qspan *trace.Span
}

// feedbackResult is the commit outcome handed back to the waiting handler.
type feedbackResult struct {
	seq uint64 // WAL sequence; 0 when the table is not durable or the append failed
	err error
}

// SetFeedbackQueue configures the feedback queue depth and the maximum
// observations per group commit for tables registered afterwards. Values < 1
// keep the current setting.
func (s *Server) SetFeedbackQueue(depth, batchMax int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if depth >= 1 {
		s.queueDepth = depth
	}
	if batchMax >= 1 {
		s.batchMax = batchMax
	}
}

// SetBatchWindow does nothing: a table's writer commits whatever has queued
// by the time it is free, so batching comes from arrival pressure alone.
//
// Deprecated: no window is configurable; the call can be deleted.
func (s *Server) SetBatchWindow(time.Duration) {}

// DrainFeedback stops accepting feedback and blocks until every queued
// observation has been committed (WAL-appended, applied, and acknowledged)
// and every in-flight drift candidate build has finished. Feedback posted
// afterwards is answered with 503. Call between shutting down the HTTP
// listener and the final checkpoint so the closing snapshot captures the
// last batch. Safe to call more than once.
func (s *Server) DrainFeedback() {
	s.mu.RLock()
	ents := make([]*entry, 0, len(s.tables))
	for _, ent := range s.tables {
		ents = append(ents, ent)
	}
	s.mu.RUnlock()
	for _, ent := range ents {
		ent.closeQueue()
	}
	for _, ent := range ents {
		<-ent.writerDone
		ent.waitDriftBuild()
	}
}

// enqueue hands one validated observation to the table's writer goroutine
// and waits for the commit outcome. It fails fast with errQueueFull when the
// queue is at capacity (the handler maps this to 429 + Retry-After) and with
// errTableDraining once DrainFeedback has closed the queue.
func (e *entry) enqueue(q geom.Rect, actual float64, sp *trace.Span) (uint64, error) {
	req := &feedbackReq{q: q, actual: actual, done: make(chan feedbackResult, 1)}
	if sp != nil {
		req.span = sp
		req.qspan = sp.StartChild("feedback.queue")
	}
	e.qmu.RLock()
	if e.qclosed {
		e.qmu.RUnlock()
		req.qspan.SetError(errTableDraining.Error())
		req.qspan.End()
		return 0, errTableDraining
	}
	select {
	case e.queue <- req:
		e.qmu.RUnlock()
	default:
		e.qmu.RUnlock()
		req.qspan.SetError(errQueueFull.Error())
		req.qspan.End()
		return 0, errQueueFull
	}
	res := <-req.done
	return res.seq, res.err
}

// closeQueue stops the writer once the queued tail has been committed.
// Idempotent. Holding qmu for the close means no enqueue can be between its
// qclosed check and its send when the channel closes.
func (e *entry) closeQueue() {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.qclosed {
		return
	}
	e.qclosed = true
	close(e.queue)
}

// writerLoop is the table's single mutation path: it drains the feedback
// queue, groups whatever is waiting into one batch (capped at batchMax), and
// commits the batch with one WAL append + at most one fsync and one
// histogram snapshot publish. Exits when closeQueue has run and the queue is
// empty, so a drain never drops an accepted observation.
func (e *entry) writerLoop() {
	defer close(e.writerDone)
	for {
		req, ok := <-e.queue
		if !ok {
			return
		}
		batch := e.gatherBatch(append(e.reqScratch[:0], req))
		e.commitBatch(batch)
		for i := range batch {
			batch[i] = nil // release the requests; the backing array is reused
		}
		e.reqScratch = batch[:0]
	}
}

// gatherBatch greedily drains queued requests into batch up to batchMax,
// without waiting for stragglers: an idle table commits each observation
// with single-record latency.
func (e *entry) gatherBatch(batch []*feedbackReq) []*feedbackReq {
	for len(batch) < e.batchMax {
		select {
		case r, ok := <-e.queue:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch turns the batch into one group commit: a single AppendBatch
// (one write, at most one fsync) followed by a single FeedbackBatch apply
// (at most one snapshot publish), all under jmu so a concurrent checkpoint
// can never capture a histogram state ahead of its log position. A failed
// append degrades durability, not availability: the batch is still applied
// and acknowledged without sequence numbers, exactly like the old
// single-record path.
func (e *entry) commitBatch(batch []*feedbackReq) {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	// Queue-wait spans end when their batch reaches the commit.
	traced := false
	for _, r := range batch {
		if r.span != nil {
			traced = true
			r.qspan.End()
		}
	}
	var firstSeq uint64
	var walStart time.Time
	var wt wal.Timings
	var walErr error
	if e.log != nil {
		recs := e.recScratch[:0]
		for _, r := range batch {
			recs = append(recs, wal.Record{Lo: r.q.Lo, Hi: r.q.Hi, Actual: r.actual})
		}
		e.recScratch = recs
		walStart = time.Now()
		firstSeq, wt, walErr = e.log.AppendBatch(recs)
		if walErr != nil {
			e.appendErrors += len(batch)
		} else {
			e.sinceCkpt += len(batch)
		}
	}
	appended := e.log != nil && walErr == nil
	obs := e.obsScratch[:0]
	for _, r := range batch {
		obs = append(obs, sthist.Observation{Query: r.q, Actual: r.actual})
	}
	e.obsScratch = obs
	if traced {
		// Traced requests ask for their round's detail; it rides their
		// feedback.apply span.
		for len(e.roundScratch) < len(batch) {
			e.roundScratch = append(e.roundScratch, sthist.Round{})
		}
		for i, r := range batch {
			if r.span != nil {
				obs[i].Round = &e.roundScratch[i]
			}
		}
	}
	// During probation the shadow comparison needs the live arm's answers
	// from BEFORE this batch is learned; nil (free) otherwise.
	liveEsts := e.driftPreApplyLocked(batch)
	applyStart := time.Now()
	errs, aerr := e.applyBatchLocked(obs)
	applyDur := time.Since(applyStart)
	// For a traced batch the drift step runs before the replies go out so its
	// duration can ride the batch's traces — a handler ends (and flushes) its
	// root span as soon as the reply lands. The step only reads obs/liveEsts,
	// so the order is free to flip; untraced batches keep the reply-first
	// order to get waiters unblocked as early as possible.
	var driftDur time.Duration
	if traced && aerr == nil {
		driftStart := time.Now()
		e.driftStepLocked(obs, liveEsts)
		driftDur = time.Since(driftStart)
	}
	if traced {
		seq0 := uint64(0)
		if appended {
			seq0 = firstSeq
		}
		e.emitStageSpansLocked(batch, errs, seq0, walStart, wt, walErr, applyStart, applyDur, driftDur)
	}
	for i, r := range batch {
		var res feedbackResult
		switch {
		case aerr != nil:
			res.err = aerr
		case errs[i] != nil:
			res.err = errs[i]
		case appended:
			res.seq = firstSeq + uint64(i)
		}
		r.done <- res
	}
	if !traced && aerr == nil {
		e.driftStepLocked(obs, liveEsts)
	}
	e.qmu.RLock()
	bs := e.batchSize
	e.qmu.RUnlock()
	if bs != nil {
		bs.Observe(float64(len(batch)))
	}
}

// emitStageSpansLocked duplicates the batch-level stage timings into every
// traced request of the batch: a group commit's append, fsync, apply and
// drift step belong to each request that rode it, and the "batch" attribute
// records how many shared the cost. A failed append marks the last WAL
// stage that ran. Each request's feedback.apply span also carries its own
// round: its WAL sequence number (when seq0, the batch's first, is set), the
// query, the estimate before the round, the truth, drills, skipped drills
// and the round's own duration, with one sthole.merge child per merge. errs
// is the apply's per-observation result (nil when the whole batch failed).
// Must run before the replies are sent (see commitBatch); jmu is held by the
// caller.
func (e *entry) emitStageSpansLocked(batch []*feedbackReq, errs []error, seq0 uint64, walStart time.Time, wt wal.Timings, walErr error, applyStart time.Time, applyDur, driftDur time.Duration) {
	batchAttr := trace.A("batch", strconv.Itoa(len(batch)))
	appendMsg, syncMsg := "", ""
	switch {
	case walErr != nil && wt.Synced:
		syncMsg = walErr.Error()
	case walErr != nil:
		appendMsg = walErr.Error()
	}
	for i, r := range batch {
		if r.span == nil {
			continue
		}
		if wt.Appended {
			r.span.Event("wal.append", walStart, wt.Append, appendMsg, batchAttr)
		}
		if wt.Synced {
			r.span.Event("wal.fsync", walStart.Add(wt.Append), wt.Sync, syncMsg, batchAttr)
		}
		attrs := append(make([]trace.Attr, 0, 9), batchAttr)
		var merges []telemetry.MergeOp
		if errs != nil && errs[i] == nil {
			if seq0 > 0 {
				attrs = append(attrs, trace.A("seq", strconv.FormatUint(seq0+uint64(i), 10)))
			}
			rd := &e.roundScratch[i]
			attrs = append(attrs,
				trace.A("lo", formatFloats(rd.Query.Lo)),
				trace.A("hi", formatFloats(rd.Query.Hi)),
				trace.A("est", formatFloat(rd.Estimate)),
				trace.A("actual", formatFloat(rd.Actual)),
				trace.A("drills", strconv.Itoa(rd.Drills)),
				trace.A("skipped", strconv.Itoa(rd.Skipped)),
				trace.A("ns", strconv.FormatInt(rd.Duration.Nanoseconds(), 10)))
			merges = rd.Merges
		}
		apply := r.span.StartChildAt("feedback.apply", applyStart, attrs...)
		for _, m := range merges {
			apply.Event("sthole.merge", m.Start, time.Duration(m.Nanos), "",
				trace.A("kind", m.Kind), trace.A("penalty", formatFloat(m.Penalty)))
		}
		apply.EndAt(applyStart.Add(applyDur))
		if e.drift != nil && driftDur > 0 {
			r.span.Event("drift.shadow", applyStart.Add(applyDur), driftDur, "")
		}
	}
}

// formatFloat renders v in the shortest form that parses back to v.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// formatFloats renders vs as a JSON array of shortest round-trip floats.
func formatFloats(vs []float64) string {
	var buf [64]byte
	b := append(buf[:0], '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return string(append(b, ']'))
}

// applyBatchLocked feeds the batch to the estimator; jmu is held by the
// caller (commitBatch) so the recovery path may bump panicRecovered
// directly. A panic quarantines the table and fails the whole batch.
func (e *entry) applyBatchLocked(obs []sthist.Observation) (errs []error, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.est.Quarantine(fmt.Errorf("panic during feedback: %v", p))
			e.panicRecovered++
			err = fmt.Errorf("feedback failed; table degraded to last good snapshot")
		}
	}()
	return e.est.FeedbackBatch(obs), nil
}

// notePressure counts one 429 rejection for the backpressure metric. It must
// stay off jmu: 429s are served precisely when the writer is busy inside a
// commit, i.e. while jmu is held.
func (e *entry) notePressure() {
	e.qmu.RLock()
	bp := e.backpressure
	e.qmu.RUnlock()
	if bp != nil {
		bp.Inc()
	}
}

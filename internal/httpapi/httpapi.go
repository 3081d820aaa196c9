// Package httpapi exposes a catalog of self-tuning estimators over HTTP, so
// non-Go clients (an optimizer prototype, a notebook, a dashboard) can ask
// for cardinality estimates and stream query feedback back. JSON in, JSON
// out; one estimator per registered table.
//
//	GET  /tables                         -> ["orders", "sensors"]
//	POST /estimate {"table","lo","hi"}   -> {"estimate","selectivity"}
//	POST /feedback {"table","lo","hi","actual"} -> {"ok":true,"seq":n}
//	GET  /stats?table=orders             -> maintenance counters + health + wal state
//	GET  /healthz                        -> readiness + per-table health
//	GET  /livez                          -> liveness (200 while the process serves)
//	GET  /readyz                         -> readiness only (503 while draining/recovering)
//	GET  /snapshot?table=orders          -> checkpoint+WAL archive for replica shipping
//
// The server is hardened for unattended operation: request bodies are
// size-capped, malformed or non-finite feedback is rejected with 400, and a
// panic inside an estimator quarantines that table (serving degrades to its
// last good snapshot) instead of killing the process.
//
// Accepted feedback flows through one writer goroutine per table that drains
// a bounded queue and applies observations in batches (group commit): tables
// registered with RegisterDurable get one WAL append + at most one fsync per
// batch, and every batch publishes at most one new histogram snapshot. When
// a table's queue is full the server pushes back with 429 + Retry-After
// instead of buffering unboundedly; DrainFeedback commits the queued tail on
// graceful shutdown, and periodic checkpoints run via Checkpoint /
// CheckpointAll (see internal/wal for the recovery protocol).
package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sthist"
	"sthist/internal/edge"
	"sthist/internal/geom"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
	"sthist/internal/wal"
)

// DefaultMaxBodyBytes caps request bodies; estimate/feedback requests are a
// few hundred bytes even at high dimensionality.
const DefaultMaxBodyBytes = 1 << 20

// entry is one served table: the estimator, its feedback pipeline, and its
// (optional) durability state. All mutation funnels through one writer
// goroutine (writerLoop) draining a bounded queue; jmu serializes the
// WAL-append + apply pair against checkpoints so a snapshot never captures a
// feedback its log position does not.
type entry struct {
	est *sthist.Estimator
	rec *telemetry.Recorder // nil when telemetry is disabled

	queue        chan *feedbackReq    // bounded feedback queue; send under qmu.RLock, closed by closeQueue
	qmu          sync.RWMutex         // serializes enqueue sends against queue close
	qclosed      bool                 // guarded by qmu
	batchSize    *telemetry.Histogram // observations per group commit; guarded by qmu
	backpressure *telemetry.Counter   // feedback rejected with 429; guarded by qmu
	writerDone   chan struct{}        // closed when writerLoop exits
	batchMax     int                  // max observations per group commit; immutable after register

	// Scratch buffers owned by the writer goroutine; reused across batches so
	// the steady-state commit path stops allocating once warmed.
	reqScratch   []*feedbackReq
	recScratch   []wal.Record
	obsScratch   []sthist.Observation
	roundScratch []sthist.Round // round detail of traced requests, by batch index

	// Drift adaptation (nil unless EnableDrift): reservoir, detector,
	// probation shadow, plus the live pre-apply estimate scratch. Guarded by
	// jmu and advanced by the writer inside commitBatch; the only escape is
	// the background candidate build, which works on an immutable snapshot.
	drift       *driftCtl // guarded by jmu
	liveScratch []float64 // writer-owned scratch like reqScratch

	jmu            sync.Mutex
	log            *wal.Log      // guarded by jmu
	appendErrors   int           // WAL appends that failed (served anyway, durability degraded); guarded by jmu
	sinceCkpt      int           // records appended since the last checkpoint; guarded by jmu
	panicRecovered int           // estimator panics recovered by the handler; guarded by jmu
	lastCkptAt     time.Time     // when the last successful checkpoint finished; guarded by jmu
	lastCkptDur    time.Duration // how long it took; guarded by jmu
}

// Server routes estimator traffic. Register tables before serving; handlers
// are safe for concurrent use (the Estimator itself is synchronized).
type Server struct {
	mu       sync.RWMutex
	tables   map[string]*entry // guarded by mu
	maxBody  int64             // immutable after construction
	draining atomic.Bool
	unready  atomic.Bool          // true while recovering/warming; inverted so the zero value serves
	tel      *telemetry.Telemetry // guarded by mu
	tracer   *trace.Tracer        // guarded by mu

	queueDepth int // feedback queue depth for tables registered later; guarded by mu
	batchMax   int // max observations per group commit; guarded by mu
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		tables:     make(map[string]*entry),
		maxBody:    DefaultMaxBodyBytes,
		queueDepth: DefaultFeedbackQueueDepth,
		batchMax:   DefaultFeedbackBatchMax,
	}
}

// SetMaxBodyBytes overrides the request body cap (values < 1 keep the
// default).
func (s *Server) SetMaxBodyBytes(n int64) {
	if n >= 1 {
		s.maxBody = n
	}
}

// Register adds an estimator under the given table name.
func (s *Server) Register(name string, est *sthist.Estimator) error {
	return s.register(name, est, nil)
}

// RegisterDurable adds an estimator whose accepted feedback is appended to
// the write-ahead log before being applied. The caller owns recovery (replay
// into est before registering) and the log's lifetime; use Checkpoint /
// CheckpointAll to rotate snapshots.
func (s *Server) RegisterDurable(name string, est *sthist.Estimator, l *wal.Log) error {
	if l == nil {
		return fmt.Errorf("httpapi: nil wal for %q", name)
	}
	return s.register(name, est, l)
}

func (s *Server) register(name string, est *sthist.Estimator, l *wal.Log) error {
	if name == "" {
		return fmt.Errorf("httpapi: empty table name")
	}
	if est == nil {
		return fmt.Errorf("httpapi: nil estimator for %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("httpapi: table %q already registered", name)
	}
	ent := &entry{
		est:        est,
		log:        l,
		queue:      make(chan *feedbackReq, s.queueDepth),
		writerDone: make(chan struct{}),
		batchMax:   s.batchMax,
	}
	s.tables[name] = ent
	s.wireTelemetryLocked(name, ent)
	go ent.writerLoop()
	return nil
}

// EnableTelemetry attaches the telemetry plane: every table (already
// registered or registered later) gets a recorder wired into its estimator
// (round instruments and the rolling accuracy window) plus structural gauges
// (bucket count, tree depth, subspace buckets) collected at scrape time, and
// Handler() additionally mounts GET /metrics and instruments every route
// with request counters and latency histograms. Call before Handler.
func (s *Server) EnableTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = t
	for name, ent := range s.tables {
		s.wireTelemetryLocked(name, ent)
	}
}

// wireTelemetryLocked connects one table to the telemetry plane. s.mu held.
func (s *Server) wireTelemetryLocked(name string, ent *entry) {
	if s.tel == nil || ent.rec != nil {
		return
	}
	ent.rec = s.tel.Table(name)
	ent.est.SetRecorder(ent.rec)
	reg := s.tel.Registry()
	lbl := telemetry.L("table", name)
	buckets := reg.Gauge("sthist_buckets", "Non-root buckets currently held.", lbl)
	depth := reg.Gauge("sthist_tree_depth", "Maximum depth of the bucket tree.", lbl)
	subspace := reg.Gauge("sthist_subspace_buckets", "Buckets spanning the full domain on >= 1 dimension.", lbl)
	maxBuckets := reg.Gauge("sthist_max_buckets", "Bucket budget.", lbl)
	qdepth := reg.Gauge("sthist_feedback_queue_depth", "Feedback observations waiting for the table's writer.", lbl)
	ent.qmu.Lock()
	ent.batchSize = reg.Histogram("sthist_feedback_batch_size",
		"Observations per feedback group commit.", telemetry.ExponentialBuckets(1, 2, 12), lbl)
	ent.backpressure = reg.Counter("sthist_feedback_backpressure_total",
		"Feedback requests rejected with 429 because the queue was full.", lbl)
	ent.qmu.Unlock()
	est := ent.est
	queue := ent.queue
	reg.RegisterCollector(func() {
		st := est.StatsSnapshot()
		buckets.Set(float64(st.Buckets))
		depth.Set(float64(st.TreeDepth))
		subspace.Set(float64(st.SubspaceBuckets))
		maxBuckets.Set(float64(st.MaxBuckets))
		qdepth.Set(float64(len(queue)))
	})
}

// SetTracer attaches the distributed-tracing plane: every request gets a
// node-side root span continuing the caller's traceparent (or starting a
// fresh trace), the feedback pipeline records stage spans (queue wait, WAL
// append, fsync, apply with the round's detail, drift shadow), and the
// /debug/trace/spans and /debug/trace/exemplars routes start answering. Call
// before Handler. A nil tracer is a no-op.
func (s *Server) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// Telemetry returns the attached telemetry plane, or nil.
func (s *Server) Telemetry() *telemetry.Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tel
}

// SetDraining flips the readiness state: while draining, /healthz and
// /readyz return 503 so load balancers stop routing new traffic, but
// in-flight and straggler requests are still served. Called at the start of
// graceful shutdown.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// SetReady flips the not-draining half of readiness. A server marked
// not-ready (recovering, warming a shipped snapshot, on probation) answers
// /readyz and /healthz with 503 so the proxy tier routes around it, while
// /livez keeps answering 200 — the process is alive, just not serving yet.
// Servers start ready.
func (s *Server) SetReady(r bool) { s.unready.Store(!r) }

// readiness returns the current routing state: "ready", "draining" or
// "starting" (not yet ready).
func (s *Server) readiness() string {
	switch {
	case s.draining.Load():
		return "draining"
	case s.unready.Load():
		return "starting"
	default:
		return "ready"
	}
}

// drainRetryAfterSeconds is the Retry-After hint on readiness 503s: drains
// and warm-ups resolve in seconds, so clients and the proxy should re-probe
// soon rather than back off for minutes.
const drainRetryAfterSeconds = "1"

// Handler returns the HTTP handler with every route behind the request edge
// (internal/edge): a wrong method is a JSON 405; with a tracer attached each
// request gets a "node <route>" root span continuing the caller's
// traceparent; with telemetry, per-route latency and request counts by
// route and code are recorded and GET /metrics is mounted; and a panic that
// escapes a handler is answered with 500 instead of unwinding the whole
// server. (Estimator panics are additionally caught per-table and
// quarantine the estimator — see entry.estimate and
// entry.applyBatchLocked.) The tracer and the telemetry plane are read once,
// here, so SetTracer and EnableTelemetry must come first.
func (s *Server) Handler() http.Handler {
	s.mu.RLock()
	tel, tr := s.tel, s.tracer
	s.mu.RUnlock()
	e := edge.New("node", tr, requestMetrics(tel))
	mux := http.NewServeMux()
	e.Handle(mux, "/tables", http.MethodGet, s.handleTables)
	e.Handle(mux, "/estimate", http.MethodPost, s.handleEstimate)
	e.Handle(mux, "/feedback", http.MethodPost, s.handleFeedback)
	e.Handle(mux, "/stats", http.MethodGet, s.handleStats)
	e.Handle(mux, "/healthz", http.MethodGet, s.handleHealthz)
	e.Handle(mux, "/livez", http.MethodGet, s.handleLivez)
	e.Handle(mux, "/readyz", http.MethodGet, s.handleReadyz)
	e.Handle(mux, "/snapshot", http.MethodGet, s.handleSnapshot)
	// The span endpoints are always mounted (they answer 404 until a tracer
	// is attached) so debug tooling has one stable URL space.
	e.Handle(mux, "/debug/trace/spans", http.MethodGet, edge.Spans(tr,
		func(_ context.Context, id string) []trace.SpanData { return tr.Spans(id) }))
	e.Handle(mux, "/debug/trace/exemplars", http.MethodGet, e.Exemplars)
	if tel != nil {
		e.Handle(mux, "/metrics", http.MethodGet, tel.MetricsHandler().ServeHTTP)
	}
	// Every other path counts and traces as one route, bounding the label
	// cardinality.
	mux.Handle("/", e.Wrap(edge.Other, "", http.NotFound))
	return mux
}

// requestMetrics mints the node's HTTP instruments, or returns nil without
// telemetry.
func requestMetrics(tel *telemetry.Telemetry) *edge.Metrics {
	if tel == nil {
		return nil
	}
	reg := tel.Registry()
	return &edge.Metrics{
		Duration: func(route string) *telemetry.Histogram {
			return reg.Histogram("sthist_http_request_duration_seconds",
				"HTTP request latency by route.", telemetry.LatencyBuckets(), telemetry.L("route", route))
		},
		Requests: func(route string, code int) *telemetry.Counter {
			return reg.Counter("sthist_http_requests_total",
				"HTTP requests by route and status code.", edge.Labels(route, code))
		},
	}
}

func (s *Server) lookup(name string) (*entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return ent, nil
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	edge.WriteJSON(w, http.StatusOK, names)
}

// queryRequest is the shared body of /estimate and /feedback.
type queryRequest struct {
	Table  string    `json:"table"`
	Lo     []float64 `json:"lo"`
	Hi     []float64 `json:"hi"`
	Actual *float64  `json:"actual,omitempty"` // feedback only
}

func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (*entry, geom.Rect, *queryRequest, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	// Unknown fields are client bugs (a misspelled "actual" would otherwise
	// silently drop the observation); reject them loudly.
	dec.DisallowUnknownFields()
	var req queryRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, geom.Rect{}, nil, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, geom.Rect{}, nil, fmt.Errorf("decoding request: %w", err)
	}
	ent, err := s.lookup(req.Table)
	if err != nil {
		return nil, geom.Rect{}, nil, err
	}
	q, err := geom.NewRect(req.Lo, req.Hi)
	if err != nil {
		return nil, geom.Rect{}, nil, err
	}
	if q.Dims() != ent.est.Domain().Dims() {
		return nil, geom.Rect{}, nil, fmt.Errorf("query has %d dimensions, table %q has %d", q.Dims(), req.Table, ent.est.Domain().Dims())
	}
	return ent, q, &req, nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	ent, q, _, err := s.decodeQuery(w, r)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	est, sel, err := ent.estimate(q)
	d := time.Since(start)
	ent.rec.RecordEstimate(d)
	if sp := trace.FromContext(r.Context()); sp != nil {
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		sp.Event("estimate.compute", start, d, errMsg)
	}
	if err != nil {
		edge.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]float64{
		"estimate":    est,
		"selectivity": sel,
	})
}

// estimate serves an estimate, quarantining the table if the histogram
// panics instead of propagating the panic to the server.
func (e *entry) estimate(q geom.Rect) (est, sel float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			e.est.Quarantine(fmt.Errorf("panic during estimate: %v", p))
			e.jmu.Lock()
			e.panicRecovered++
			e.jmu.Unlock()
			err = fmt.Errorf("estimate failed; table degraded to last good snapshot")
		}
	}()
	est, sel = e.est.EstimateSelectivity(q)
	return est, sel, nil
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	ent, q, req, err := s.decodeQuery(w, r)
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Actual == nil {
		ent.rec.RecordRejected()
		edge.WriteError(w, http.StatusBadRequest, "feedback needs an \"actual\" row count")
		return
	}
	actual := *req.Actual
	if math.IsNaN(actual) || math.IsInf(actual, 0) || actual < 0 {
		ent.rec.RecordRejected()
		edge.WriteError(w, http.StatusBadRequest, fmt.Sprintf("feedback \"actual\" must be finite and non-negative, got %g", actual))
		return
	}
	// Full validation (domain overlap etc.) before the record is logged:
	// the WAL must only ever contain replayable feedback.
	if err := ent.est.ValidateFeedback(q, actual); err != nil {
		ent.rec.RecordRejected()
		edge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	seq, err := ent.enqueue(q, actual, trace.FromContext(r.Context()))
	switch {
	case errors.Is(err, errQueueFull):
		ent.notePressure()
		// The queue drains at group-commit speed; a second is a generous
		// upper bound for a full queue to clear.
		w.Header().Set("Retry-After", "1")
		edge.WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, errTableDraining):
		// Like the 429 path, tell well-behaved clients when to come back:
		// a drain either finishes (the node exits; they reroute) or the
		// node returns to readiness shortly.
		w.Header().Set("Retry-After", drainRetryAfterSeconds)
		edge.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		edge.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := map[string]any{"ok": true}
	if seq > 0 {
		resp["seq"] = seq
	}
	edge.WriteJSON(w, http.StatusOK, resp)
}

// Checkpoint snapshots the named table's histogram and rotates its WAL.
// Tables without durability are a no-op.
func (s *Server) Checkpoint(name string) error {
	ent, err := s.lookup(name)
	if err != nil {
		return err
	}
	return ent.checkpoint()
}

func (e *entry) checkpoint() error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	if e.log == nil {
		return nil
	}
	start := time.Now()
	var buf bytes.Buffer
	if err := e.est.SaveHistogram(&buf); err != nil {
		return fmt.Errorf("snapshotting: %w", err)
	}
	if err := e.log.Checkpoint(buf.Bytes()); err != nil {
		return err
	}
	e.sinceCkpt = 0
	e.lastCkptDur = time.Since(start)
	e.lastCkptAt = time.Now()
	return nil
}

// CheckpointAll checkpoints every durable table, returning the first error
// after attempting all of them.
func (s *Server) CheckpointAll() error {
	var first error
	for _, name := range s.names() {
		if err := s.Checkpoint(name); err != nil && first == nil {
			first = fmt.Errorf("checkpointing %q: %w", name, err)
		}
	}
	return first
}

// CheckpointDue checkpoints the durable tables that have logged at least
// minRecords since their last checkpoint, or whose WAL is in a failed state
// (a successful checkpoint rotates to a fresh segment and heals it).
func (s *Server) CheckpointDue(minRecords int) error {
	var first error
	for _, name := range s.names() {
		ent, err := s.lookup(name)
		if err != nil {
			continue
		}
		ent.jmu.Lock()
		due := ent.log != nil && (ent.sinceCkpt >= minRecords || ent.log.Err() != nil)
		ent.jmu.Unlock()
		if !due {
			continue
		}
		if err := ent.checkpoint(); err != nil && first == nil {
			first = fmt.Errorf("checkpointing %q: %w", name, err)
		}
	}
	return first
}

func (s *Server) names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// walStats is the durability block of /stats and /healthz.
type walStats struct {
	Enabled          bool    `json:"enabled"`
	LastSeq          uint64  `json:"last_seq,omitempty"`
	AppendErrors     int     `json:"append_errors"`
	RecordsSinceCkpt int     `json:"records_since_checkpoint"`
	Failed           bool    `json:"failed"`
	FailedError      string  `json:"failed_error,omitempty"`
	PanicsRecovered  int     `json:"panics_recovered"`
	LastCkptSeconds  float64 `json:"last_checkpoint_seconds,omitempty"` // duration of the last checkpoint
	LastCkptAge      float64 `json:"last_checkpoint_age_seconds,omitempty"`
}

func (e *entry) walStats() walStats {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	ws := walStats{AppendErrors: e.appendErrors, PanicsRecovered: e.panicRecovered}
	if e.log != nil {
		ws.Enabled = true
		ws.LastSeq = e.log.LastSeq()
		ws.RecordsSinceCkpt = e.sinceCkpt
		if err := e.log.Err(); err != nil {
			ws.Failed = true
			ws.FailedError = err.Error()
		}
		if !e.lastCkptAt.IsZero() {
			ws.LastCkptSeconds = e.lastCkptDur.Seconds()
			ws.LastCkptAge = time.Since(e.lastCkptAt).Seconds()
		}
	}
	return ws
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ent, err := s.lookup(r.URL.Query().Get("table"))
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// StatsSnapshot copies the counters under the estimator's read lock;
	// reading h.Stats fields directly here would race with feedback rounds.
	st := ent.est.StatsSnapshot()
	// The domain lets clients (cmd/sthload, dashboards) generate valid
	// queries without out-of-band schema knowledge.
	dom := ent.est.Domain()
	edge.WriteJSON(w, http.StatusOK, map[string]any{
		"domain":               map[string][]float64{"lo": dom.Lo, "hi": dom.Hi},
		"buckets":              st.Buckets,
		"max_buckets":          st.MaxBuckets,
		"tree_depth":           st.TreeDepth,
		"queries":              st.Queries,
		"drills":               st.Drills,
		"skipped_exact_drills": st.SkippedExactDrills,
		"parent_child_merges":  st.ParentChildMerges,
		"sibling_merges":       st.SiblingMerges,
		"subspace_buckets":     st.SubspaceBuckets,
		"health":               ent.est.Health(),
		"wal":                  ent.walStats(),
		"drift":                ent.driftStats(),
	})
}

// handleHealthz is the detailed health report: 200 while serving, 503 while
// not ready (draining or recovering). The body details per-table degradation
// so dashboards can alert on quarantined tables or failing WALs even though
// the server keeps answering. Routing decisions should use the cheaper
// /readyz; liveness checks use /livez — a node that is live but not ready
// (warming a shipped snapshot, draining) answers 200 there and 503 here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	overall := "ok"
	if rd := s.readiness(); rd != "ready" {
		status, overall = http.StatusServiceUnavailable, rd
		w.Header().Set("Retry-After", drainRetryAfterSeconds)
	}
	type tableHealth struct {
		Health sthist.Health `json:"health"`
		WAL    walStats      `json:"wal"`
		Drift  driftStats    `json:"drift"`
	}
	tables := make(map[string]tableHealth)
	for _, name := range s.names() {
		ent, err := s.lookup(name)
		if err != nil {
			continue
		}
		th := tableHealth{Health: ent.est.Health(), WAL: ent.walStats(), Drift: ent.driftStats()}
		if overall == "ok" && (th.Health.State != "ok" || th.WAL.Failed) {
			overall = "degraded"
		}
		tables[name] = th
	}
	edge.WriteJSON(w, status, map[string]any{"status": overall, "live": true, "tables": tables})
}

// handleLivez is the liveness probe: 200 whenever the process can serve
// HTTP at all. It deliberately ignores draining, recovery and per-table
// degradation — restarting a node because it is draining would turn every
// graceful shutdown into a crash loop.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	edge.WriteJSON(w, http.StatusOK, map[string]any{"status": "live"})
}

// handleReadyz is the routing probe: 200 only when the node should receive
// traffic. Draining (graceful shutdown) and starting (recovering or warming
// a shipped snapshot) both answer 503 + Retry-After so the proxy tier routes
// around the node while /livez still reports it alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.readiness()
	if rd != "ready" {
		w.Header().Set("Retry-After", drainRetryAfterSeconds)
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": rd})
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]any{"status": rd})
}

// handleSnapshot ships the table's durable state (checkpoint MANIFEST +
// snapshot + WAL tail) as one self-verifying archive — the transport for
// warm replica promotion (see internal/wal ship protocol and sthistd
// -warm-from). Tables without durability have no portable state to ship and
// answer 404.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ent, err := s.lookup(r.URL.Query().Get("table"))
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	data, lastSeq, err := ent.shipArchive()
	switch {
	case errors.Is(err, errNotDurable):
		edge.WriteError(w, http.StatusNotFound, err.Error())
		return
	case err != nil:
		edge.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Sthist-Last-Seq", strconv.FormatUint(lastSeq, 10))
	_, _ = w.Write(data) // client gone: nothing useful to do
}

var errNotDurable = errors.New("table has no durable state to ship (no -data-dir)")

// shipArchive buffers the WAL archive under jmu, so the cut is consistent
// with the feedback pipeline: no group commit or checkpoint rotation can
// interleave with the archived state. Buffering (rather than streaming to
// the client) keeps the jmu hold time bounded by local I/O, not by the
// replica's network speed.
func (e *entry) shipArchive() ([]byte, uint64, error) {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	if e.log == nil {
		return nil, 0, errNotDurable
	}
	var buf bytes.Buffer
	if err := e.log.WriteArchive(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), e.log.LastSeq(), nil
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sthist/internal/edge"
	"sthist/internal/telemetry"
	"sthist/internal/trace"
)

// Defaults for ProxyOptions fields left zero.
const (
	DefaultRequestTimeout = 5 * time.Second
	// DefaultMaxRetries bounds the extra attempts on idempotent reads after
	// the first request fails. Two retries cover a dead primary plus one
	// unlucky replica without letting a full outage multiply client load.
	DefaultMaxRetries = 2
	// DefaultRetryBase / DefaultRetryMax shape the jittered exponential
	// backoff between retries: base*2^attempt, uniformly jittered into
	// [d/2, d], capped at max.
	DefaultRetryBase = 25 * time.Millisecond
	DefaultRetryMax  = 1 * time.Second
	// DefaultHedgeAfter is how long the first estimate attempt may run before
	// a hedge request is fired at the next replica. Estimates are
	// microsecond-scale server-side, so a first byte that has not arrived
	// after 100ms almost always means a dying target, not a slow one.
	DefaultHedgeAfter = 100 * time.Millisecond
	// DefaultReplicas is the candidate depth per table: primary + 1 replica.
	DefaultReplicas = 2
	// maxUpstreamBody bounds a buffered upstream response (snapshot archives
	// are the largest payload; see wal.MaxShipFileBytes for the per-file cap).
	maxUpstreamBody = 1 << 30
	// idleConnsPerTarget sizes the upstream keep-alive pool. A proxy funnels
	// many client connections into few targets, so http.DefaultTransport's 2
	// idle conns per host would churn TCP on every concurrent burst.
	idleConnsPerTarget = 64
	// proxyRetryAfterSeconds is the Retry-After hint on 503s the proxy
	// originates itself (all candidates down).
	proxyRetryAfterSeconds = "1"
)

// Proxy metric names. Constant (sthlint errflow enforces the sthist_* naming
// contract at every Registry call site).
const (
	metricProxyRetries   = "sthist_proxy_retries_total"
	metricProxyHedges    = "sthist_proxy_hedges_total"
	metricProxyStale     = "sthist_proxy_stale_serves_total"
	metricProxyUnhealthy = "sthist_proxy_target_unhealthy"
	metricProxyShipDur   = "sthist_proxy_snapshot_ship_seconds"
	metricProxyRequests  = "sthist_proxy_requests_total"
	metricProxyDuration  = "sthist_proxy_request_duration_seconds"
)

// ProxyOptions configures NewProxy. Targets is required; everything else has
// a default.
type ProxyOptions struct {
	// Targets are the sthistd base URLs forming the ring.
	Targets []string
	// Vnodes per target; zero uses DefaultVnodes.
	Vnodes int
	// Replicas is the candidate depth per table (primary + Replicas-1
	// fallbacks). Zero uses DefaultReplicas; clamped to len(Targets).
	Replicas int
	// RequestTimeout bounds each upstream attempt. Zero uses
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxRetries bounds extra attempts on idempotent reads. Negative disables
	// retries; zero uses DefaultMaxRetries.
	MaxRetries int
	// RetryBase / RetryMax shape the backoff. Zero uses the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter is the hedge delay for estimates. Negative disables hedging;
	// zero uses DefaultHedgeAfter.
	HedgeAfter time.Duration
	// Transport is the upstream round tripper (chaos injection wraps here).
	// Nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Health configures the membership monitor. Health.Probe defaults to the
	// HTTP /readyz probe against each target.
	Health MonitorOptions
	// Registry receives the proxy metrics. Nil creates a private registry.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records a proxy-side root span per proxied
	// request, a child span per upstream attempt (with retry/hedge attrs),
	// injects traceparent into every upstream call, and serves the
	// cross-process trace assembly at /debug/trace/spans.
	Tracer *trace.Tracer
	// Seed seeds the backoff jitter. Zero derives one from the clock (jitter
	// quality does not need determinism, tests that do pass a seed).
	Seed int64
}

// Proxy is the stateless routing tier: it places each table on the ring,
// filters candidates through the health monitor, retries idempotent reads
// with jittered exponential backoff, hedges slow estimates to a replica, and
// degrades gracefully (serving from a stale replica, propagating 429/503
// backpressure with Retry-After) instead of failing hard. Build with
// NewProxy, probe with Start, serve Handler.
type Proxy struct {
	ring   *Ring
	mon    *Monitor
	opts   ProxyOptions
	client *http.Client
	reg    *telemetry.Registry

	tracer *trace.Tracer

	retries *telemetry.Counter
	hedges  *telemetry.Counter
	stale   *telemetry.Counter
	shipDur *telemetry.Histogram

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu
}

// upstreamTransport is the default upstream round tripper: DefaultTransport
// semantics with the idle pool resized for proxy fan-in (idleConnsPerTarget
// keep-alive conns per target instead of DefaultTransport's 2).
func upstreamTransport() http.RoundTripper {
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t := base.Clone()
	t.MaxIdleConnsPerHost = idleConnsPerTarget
	t.MaxIdleConns = 0 // uncapped globally; the per-target cap governs
	return t
}

// NewProxy validates opts, builds the ring and the health monitor (not yet
// probing; call Start) and registers the proxy metrics.
func NewProxy(opts ProxyOptions) (*Proxy, error) {
	ring, err := NewRing(opts.Targets, opts.Vnodes)
	if err != nil {
		return nil, err
	}
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	if opts.Replicas > len(opts.Targets) {
		opts.Replicas = len(opts.Targets)
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = DefaultRetryMax
	}
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = DefaultHedgeAfter
	}
	transport := opts.Transport
	if transport == nil {
		transport = upstreamTransport()
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := &Proxy{
		ring: ring,
		opts: opts,
		// The client timeout stays 0: per-attempt deadlines come from the
		// request context so a hedged pair shares one budget.
		client: &http.Client{Transport: transport},
		reg:    reg,
		tracer: opts.Tracer,
		rng:    rand.New(rand.NewSource(seed)),
	}
	p.retries = reg.Counter(metricProxyRetries,
		"Idempotent-read retry attempts beyond the first request.", nil)
	p.hedges = reg.Counter(metricProxyHedges,
		"Hedge requests fired at a replica because the primary was slow.", nil)
	p.stale = reg.Counter(metricProxyStale,
		"Reads served by a non-primary replica (possibly stale state).", nil)
	p.shipDur = reg.Histogram(metricProxyShipDur,
		"Snapshot ship duration through the proxy in seconds.",
		telemetry.LatencyBuckets(), nil)
	unhealthy := make(map[string]*telemetry.Gauge, len(opts.Targets))
	for _, t := range ring.Targets() {
		g := reg.Gauge(metricProxyUnhealthy,
			"1 while the target is considered unready, 0 while ready.",
			telemetry.L("target", t))
		g.Set(1) // targets start unready until absorbed by the monitor
		unhealthy[t] = g
	}
	userChange := opts.Health.OnChange
	health := opts.Health
	health.OnChange = func(target string, ready bool) {
		if g, ok := unhealthy[target]; ok {
			if ready {
				g.Set(0)
			} else {
				g.Set(1)
			}
		}
		if userChange != nil {
			userChange(target, ready)
		}
	}
	p.mon = NewMonitor(ring.Targets(), health)
	return p, nil
}

// Start runs one synchronous probe round and launches the probe loop.
func (p *Proxy) Start() { p.mon.Start() }

// Stop halts the probe loop.
func (p *Proxy) Stop() { p.mon.Stop() }

// Monitor returns the proxy's health monitor (tests drive ProbeOnce through
// it; sthproxy logs its FailoverDeadline).
func (p *Proxy) Monitor() *Monitor { return p.mon }

// Registry returns the registry holding the proxy metrics.
func (p *Proxy) Registry() *telemetry.Registry { return p.reg }

// Handler returns the proxy's HTTP surface behind the request edge
// (internal/edge): the five proxied sthistd routes, each with a "proxy
// <route>" root span when a tracer is set and with per-route latency and
// request counts by route and code, plus the proxy's own health split,
// cluster view, debug plane and metrics, which are neither traced nor
// counted.
func (p *Proxy) Handler() http.Handler {
	reg := p.reg
	e := edge.New("proxy", p.tracer, &edge.Metrics{
		Duration: func(route string) *telemetry.Histogram {
			return reg.Histogram(metricProxyDuration,
				"Proxied request latency by route, client-side of the proxy.",
				telemetry.LatencyBuckets(), telemetry.L("route", route))
		},
		Requests: func(route string, code int) *telemetry.Counter {
			return reg.Counter(metricProxyRequests,
				"Proxied requests by route and status code.", edge.Labels(route, code))
		},
	})
	bare := edge.New("proxy", nil, nil)
	mux := http.NewServeMux()
	e.Handle(mux, "/estimate", http.MethodPost, p.handleEstimate)
	e.Handle(mux, "/feedback", http.MethodPost, p.handleFeedback)
	e.Handle(mux, "/stats", http.MethodGet, p.handleStats)
	e.Handle(mux, "/tables", http.MethodGet, p.handleTables)
	e.Handle(mux, "/snapshot", http.MethodGet, p.handleSnapshot)
	bare.Handle(mux, "/livez", http.MethodGet, p.handleLivez)
	bare.Handle(mux, "/readyz", http.MethodGet, p.handleReadyz)
	bare.Handle(mux, "/healthz", http.MethodGet, p.handleReadyz) // the proxy holds no state: healthy == ready
	bare.Handle(mux, "/cluster", http.MethodGet, p.handleCluster)
	bare.Handle(mux, "/debug/trace/spans", http.MethodGet, edge.Spans(p.tracer, p.gatherSpans))
	bare.Handle(mux, "/debug/trace/exemplars", http.MethodGet, e.Exemplars)
	mux.Handle("/metrics", p.reg.MetricsHandler())
	return mux
}

// gatherSpans assembles one cross-process trace: the proxy's own retained
// spans merged with the spans every ready target still holds for the ID,
// deduplicated into one timeline.
func (p *Proxy) gatherSpans(ctx context.Context, id string) []trace.SpanData {
	groups := [][]trace.SpanData{p.tracer.Spans(id)}
	for _, target := range p.ring.Targets() {
		if !p.mon.Ready(target) {
			continue
		}
		u, err := p.send(ctx, http.MethodGet, target, "/debug/trace/spans?trace="+id, "", nil)
		if err != nil || u.status != http.StatusOK {
			continue // a target without tracing (404) or mid-failover contributes nothing
		}
		var part struct {
			Spans []trace.SpanData `json:"spans"`
		}
		if err := json.Unmarshal(u.body, &part); err == nil {
			groups = append(groups, part.Spans)
		}
	}
	return trace.Merge(groups...)
}

// candidates returns the ready-filtered targets for table in ring preference
// order. When the monitor sees nothing ready (startup, or it lags a mass
// event) the unfiltered candidate list is returned: attempting a possibly
// dead target beats refusing outright.
func (p *Proxy) candidates(table string) []string {
	all := p.ring.Lookup(table, p.opts.Replicas)
	ready := all[:0:0]
	for _, t := range all {
		if p.mon.Ready(t) {
			ready = append(ready, t)
		}
	}
	if len(ready) == 0 {
		return all
	}
	return ready
}

// upstream is one buffered upstream response.
type upstream struct {
	status int
	header http.Header
	body   []byte
	target string
}

// retryable reports whether an idempotent read may be re-attempted at
// another candidate after this status: transient server conditions and
// backpressure, never client errors.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// send performs one upstream attempt with the per-request timeout. When the
// context carries a trace span, the attempt gets its own child span (named
// "proxy.attempt", tagged with the ring target plus any caller attrs) whose
// context is injected as the upstream traceparent — that handoff is what lets
// the node's spans land in the same trace.
func (p *Proxy) send(ctx context.Context, method, target, pathq, contentType string, body []byte, attrs ...trace.Attr) (*upstream, error) {
	sp := trace.FromContext(ctx).StartChild("proxy.attempt", append(attrs, trace.A("target", target))...)
	defer sp.End()
	ctx, cancel := context.WithTimeout(ctx, p.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, target+pathq, bytes.NewReader(body))
	if err != nil {
		sp.SetError(err.Error())
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	trace.Inject(sp.Context(), req)
	resp, err := p.client.Do(req)
	if err != nil {
		sp.SetError(err.Error())
		return nil, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	cerr := resp.Body.Close()
	if err != nil {
		sp.SetError(err.Error())
		return nil, err
	}
	if cerr != nil {
		sp.SetError(cerr.Error())
		return nil, cerr
	}
	sp.SetAttr("code", strconv.Itoa(resp.StatusCode))
	if retryable(resp.StatusCode) {
		sp.SetError(http.StatusText(resp.StatusCode))
	}
	return &upstream{status: resp.StatusCode, header: resp.Header, body: data, target: target}, nil
}

// backoff sleeps the jittered exponential delay for retry attempt n (0-based)
// unless ctx ends first.
func (p *Proxy) backoff(ctx context.Context, n int) {
	d := p.opts.RetryBase << uint(n)
	if d > p.opts.RetryMax || d <= 0 {
		d = p.opts.RetryMax
	}
	p.rngMu.Lock()
	jittered := d/2 + time.Duration(p.rng.Int63n(int64(d/2)+1))
	p.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// hedged races one attempt at first against a delayed hedge at second: if
// first has not answered within HedgeAfter, the hedge fires and whichever
// returns a non-retryable answer first wins. Exactly one winner is returned;
// the loser's context is cancelled by the caller's attempt deadline.
func (p *Proxy) hedged(ctx context.Context, method, pathq, contentType string, body []byte, first, second string) (*upstream, error) {
	type outcome struct {
		u   *upstream
		err error
	}
	results := make(chan outcome, 2)
	attempt := func(target, role string) {
		u, err := p.send(ctx, method, target, pathq, contentType, body,
			trace.A("attempt", "0"), trace.A("hedge", role))
		results <- outcome{u, err}
	}
	go attempt(first, "first")
	timer := time.NewTimer(p.opts.HedgeAfter)
	defer timer.Stop()
	pending := 1
	hedgedYet := false
	var last outcome
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil && !retryable(r.u.status) {
				if hedgedYet {
					// The losing attempt's span identifies itself by not being
					// this target; the winner is recorded on the root span.
					trace.FromContext(ctx).SetAttr("hedge_winner", r.u.target)
				}
				return r.u, nil
			}
			last = r
			if pending == 0 {
				return last.u, last.err
			}
		case <-timer.C:
			if !hedgedYet {
				hedgedYet = true
				pending++
				p.hedges.Inc()
				go attempt(second, "hedge")
			}
		case <-ctx.Done():
			if last.u != nil || last.err != nil {
				return last.u, last.err
			}
			return nil, ctx.Err()
		}
	}
}

// forwardIdempotent runs the retry/hedge policy for an idempotent read over
// the candidate list and returns the winning response (or the last failure).
func (p *Proxy) forwardIdempotent(ctx context.Context, method, pathq, contentType string, body []byte, cands []string, hedge bool) (*upstream, error) {
	attempts := 1 + p.opts.MaxRetries
	var last *upstream
	var lastErr error
	for i := 0; i < attempts; i++ {
		target := cands[i%len(cands)]
		var u *upstream
		var err error
		if i == 0 && hedge && p.opts.HedgeAfter > 0 && len(cands) > 1 {
			u, err = p.hedged(ctx, method, pathq, contentType, body, target, cands[1])
		} else {
			u, err = p.send(ctx, method, target, pathq, contentType, body,
				trace.A("attempt", strconv.Itoa(i)))
		}
		if err == nil && !retryable(u.status) {
			return u, nil
		}
		last, lastErr = u, err
		if i < attempts-1 {
			p.retries.Inc()
			p.backoff(ctx, i)
		}
		if ctx.Err() != nil {
			break
		}
	}
	return last, lastErr
}

// relay writes an upstream response to the client, preserving the headers
// that carry protocol meaning (content type, backpressure hints, snapshot
// metadata).
func relay(w http.ResponseWriter, u *upstream) {
	for _, h := range []string{"Content-Type", "Retry-After", "X-Sthist-Last-Seq"} {
		if v := u.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(u.status)
	_, _ = w.Write(u.body)
}

// unavailable is the proxy-originated degradation response: every candidate
// failed, tell the client when to come back rather than just failing.
func unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", proxyRetryAfterSeconds)
	msg := "no candidate target available"
	if err != nil {
		msg = err.Error()
	}
	edge.WriteError(w, http.StatusServiceUnavailable, msg)
}

// readTableBody reads a bounded JSON request body and extracts the table
// name that routes it.
func readTableBody(w http.ResponseWriter, r *http.Request) (string, []byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		edge.WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return "", nil, false
	}
	var probe struct {
		Table string `json:"table"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.Table == "" {
		edge.WriteError(w, http.StatusBadRequest, "body carries no table name")
		return "", nil, false
	}
	return probe.Table, body, true
}

func (p *Proxy) handleEstimate(w http.ResponseWriter, r *http.Request) {
	table, body, ok := readTableBody(w, r)
	if !ok {
		return
	}
	cands := p.candidates(table)
	u, err := p.forwardIdempotent(r.Context(), http.MethodPost, "/estimate", r.Header.Get("Content-Type"), body, cands, true)
	if u == nil {
		unavailable(w, err)
		return
	}
	if u.status < 300 && u.target != p.ring.Primary(table) {
		// Graceful degradation: a replica answered. Its histogram may lag the
		// primary's feedback stream, so mark the response stale.
		w.Header().Set("X-Sthist-Stale", "true")
		p.stale.Inc()
		trace.FromContext(r.Context()).SetAttr("stale", "true")
	}
	trace.FromContext(r.Context()).SetAttr("served_by", u.target)
	w.Header().Set("X-Sthist-Served-By", u.target)
	relay(w, u)
}

func (p *Proxy) handleFeedback(w http.ResponseWriter, r *http.Request) {
	table, body, ok := readTableBody(w, r)
	if !ok {
		return
	}
	// Feedback is not idempotent: exactly one attempt, at the first ready
	// candidate (ownership moves to the replica once the monitor marks the
	// primary down). Failures propagate as backpressure the client retries.
	target := p.candidates(table)[0]
	u, err := p.send(r.Context(), http.MethodPost, target, "/feedback", r.Header.Get("Content-Type"), body)
	if err != nil {
		unavailable(w, err)
		return
	}
	trace.FromContext(r.Context()).SetAttr("served_by", u.target)
	w.Header().Set("X-Sthist-Served-By", u.target)
	relay(w, u)
}

func (p *Proxy) handleStats(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing table parameter")
		return
	}
	cands := p.candidates(table)
	u, err := p.forwardIdempotent(r.Context(), http.MethodGet, "/stats?table="+table, "", nil, cands, false)
	if u == nil {
		unavailable(w, err)
		return
	}
	w.Header().Set("X-Sthist-Served-By", u.target)
	relay(w, u)
}

// handleTables unions the table listings of every ready target: tables are
// sharded across the cluster, so no single node knows them all.
func (p *Proxy) handleTables(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	var names []string
	var lastErr error
	for _, target := range p.ring.Targets() {
		if !p.mon.Ready(target) {
			continue
		}
		u, err := p.send(r.Context(), http.MethodGet, target, "/tables", "", nil)
		if err != nil {
			lastErr = err
			continue
		}
		if u.status != http.StatusOK {
			continue
		}
		var part []string
		if err := json.Unmarshal(u.body, &part); err != nil {
			continue
		}
		for _, n := range part {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	if names == nil && lastErr != nil {
		unavailable(w, lastErr)
		return
	}
	sort.Strings(names)
	edge.WriteJSON(w, http.StatusOK, names)
}

func (p *Proxy) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	if table == "" {
		edge.WriteError(w, http.StatusBadRequest, "missing table parameter")
		return
	}
	// Snapshots ship from the table's authoritative owner: the first ready
	// candidate, not a retried sweep (a half-shipped archive from a dying
	// node is rejected by the restore side's verification anyway).
	target := p.candidates(table)[0]
	start := time.Now()
	u, err := p.send(r.Context(), http.MethodGet, target, "/snapshot?table="+table, "", nil)
	if err != nil {
		unavailable(w, err)
		return
	}
	if u.status == http.StatusOK {
		p.shipDur.Observe(time.Since(start).Seconds())
	}
	w.Header().Set("X-Sthist-Served-By", u.target)
	relay(w, u)
}

func (p *Proxy) handleLivez(w http.ResponseWriter, _ *http.Request) {
	edge.WriteJSON(w, http.StatusOK, map[string]string{"status": "live"})
}

// handleReadyz: the proxy is ready when it can route somewhere — at least one
// target absorbed as ready.
func (p *Proxy) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready := p.mon.ReadyCount()
	if ready == 0 {
		w.Header().Set("Retry-After", proxyRetryAfterSeconds)
		edge.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready targets"})
		return
	}
	edge.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "ready_targets": ready})
}

// handleCluster exposes the membership view and failover deadline for
// operators and the smoke test.
func (p *Proxy) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := map[string]any{
		"targets":              p.mon.Snapshot(),
		"ready_targets":        p.mon.ReadyCount(),
		"failover_deadline_ms": p.mon.FailoverDeadline().Milliseconds(),
		"replicas":             p.opts.Replicas,
	}
	if table := r.URL.Query().Get("table"); table != "" {
		view["table"] = table
		view["placement"] = p.ring.Lookup(table, p.opts.Replicas)
	}
	edge.WriteJSON(w, http.StatusOK, view)
}

package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sthist/internal/trace"
)

// Defaults for MonitorOptions fields left zero.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	// DefaultDownAfter marks a target unready after this many consecutive
	// failed probes. >1 so a single dropped probe does not flap the target.
	DefaultDownAfter = 2
	// DefaultUpAfter marks a target that has failed a probe ready again
	// after this many consecutive successful probes. >1 so a node that
	// answers one probe mid-crash-loop does not immediately reabsorb
	// traffic. A target that has never failed needs one success.
	DefaultUpAfter = 2
)

// ProbeFunc checks one target's readiness; nil error means ready. The
// default probe issues GET <target>/readyz and treats any 2xx as ready, so a
// draining or recovering node (503 from /readyz) is routed around while
// still being live.
type ProbeFunc func(target string) error

// MonitorOptions configures NewMonitor.
type MonitorOptions struct {
	// Interval between probe rounds. Zero uses DefaultProbeInterval.
	Interval time.Duration
	// Timeout per probe for the default HTTP probe. Zero uses
	// DefaultProbeTimeout.
	Timeout time.Duration
	// DownAfter / UpAfter are the hysteresis thresholds: consecutive failed
	// probes before ready->unready, consecutive successes before
	// unready->ready once the target has failed a probe. Zero uses the
	// defaults.
	DownAfter int
	UpAfter   int
	// Probe overrides the probe implementation (tests, chaos). Nil uses the
	// HTTP /readyz probe.
	Probe ProbeFunc
	// OnChange, when non-nil, is called after a target's readiness flips
	// (outside the monitor's lock). Used to drive the per-target unhealthy
	// gauge and failover logging.
	OnChange func(target string, ready bool)
}

// TargetHealth is one target's state in a Snapshot.
type TargetHealth struct {
	Target  string    `json:"target"`
	Ready   bool      `json:"ready"`
	Streak  int       `json:"streak"` // consecutive probes agreeing with the pending direction
	LastErr string    `json:"last_error,omitempty"`
	LastAt  time.Time `json:"last_probe,omitempty"`
}

// targetState is the mutable per-target probe state. Every field is
// protected by the owning Monitor's mutex.
type targetState struct {
	ready   bool
	okRun   int  // consecutive successful probes
	failRun int  // consecutive failed probes
	failed  bool // some probe failed since the monitor was built
	lastErr error
	lastAt  time.Time
}

// Monitor maintains the readiness view of a fixed target set by probing each
// target on an interval and applying hysteresis. Targets start unready. A
// target is absorbed on its first successful probe if no probe of it has
// failed yet; once one has, it needs UpAfter consecutive successes, so a
// crash-looping or rejoining node is not reabsorbed on one lucky answer.
// Start runs one synchronous probe round first, so a freshly started proxy
// sees live targets before it serves. All methods are safe for concurrent
// use.
type Monitor struct {
	targets []string
	opts    MonitorOptions

	mu      sync.Mutex
	states  map[string]*targetState // guarded by mu
	started bool                    // guarded by mu; Start launched the loop

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewMonitor builds a monitor for the targets (not yet probing; call Start,
// or ProbeOnce for a single synchronous round).
func NewMonitor(targets []string, opts MonitorOptions) *Monitor {
	if opts.Interval <= 0 {
		opts.Interval = DefaultProbeInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultProbeTimeout
	}
	if opts.DownAfter <= 0 {
		opts.DownAfter = DefaultDownAfter
	}
	if opts.UpAfter <= 0 {
		opts.UpAfter = DefaultUpAfter
	}
	if opts.Probe == nil {
		opts.Probe = HTTPProbe(opts.Timeout)
	}
	m := &Monitor{
		targets: append([]string(nil), targets...),
		opts:    opts,
		states:  make(map[string]*targetState, len(targets)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	sort.Strings(m.targets)
	for _, t := range m.targets {
		m.states[t] = &targetState{}
	}
	return m
}

// HTTPProbe returns the default readiness probe: GET <target>/readyz with
// the given timeout, ready on any 2xx. The request carries a real deadline
// context (so cancellation reaches the wire, not just the client's read
// loop) and flows through traceparent injection — a no-op for the untraced
// probe loop, but probes issued under a traced context join its trace.
func HTTPProbe(timeout time.Duration) ProbeFunc {
	client := &http.Client{Timeout: timeout}
	return func(target string) error {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/readyz", nil)
		if err != nil {
			return err
		}
		trace.InjectContext(ctx, req)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		if cerr := resp.Body.Close(); cerr != nil {
			return cerr
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return fmt.Errorf("readyz returned %d", resp.StatusCode)
		}
		return nil
	}
}

// FailoverDeadline is the worst-case time between a target dying and the
// monitor marking it unready: one in-flight probe round, DownAfter failing
// rounds, plus the probe timeout of the last round.
func (m *Monitor) FailoverDeadline() time.Duration {
	return time.Duration(m.opts.DownAfter+1)*m.opts.Interval + m.opts.Timeout
}

// Start launches the probe loop (after one synchronous round) and returns.
// Stop it with Stop.
func (m *Monitor) Start() {
	m.ProbeOnce()
	m.mu.Lock()
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(m.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.ProbeOnce()
		}
	}
}

// Stop halts the probe loop and waits for it to exit. Safe to call more than
// once, and before Start (the loop then never runs). The join must block: a
// non-blocking receive here would let Stop return while a probe round is
// still in flight, and a caller tearing down its probe targets right after
// Stop would race the stragglers.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// ProbeOnce runs one probe round over every target (concurrently) and
// applies hysteresis. Exposed so tests can advance the monitor
// deterministically without a ticker.
func (m *Monitor) ProbeOnce() {
	type result struct {
		target string
		err    error
	}
	results := make(chan result, len(m.targets))
	for _, t := range m.targets {
		go func(t string) { results <- result{t, m.opts.Probe(t)} }(t)
	}
	type change struct {
		target string
		ready  bool
	}
	var changes []change
	for range m.targets {
		r := <-results
		m.mu.Lock()
		st := m.states[r.target]
		st.lastAt = time.Now()
		st.lastErr = r.err
		if r.err == nil {
			st.okRun++
			st.failRun = 0
			if !st.ready && (!st.failed || st.okRun >= m.opts.UpAfter) {
				st.ready = true
				changes = append(changes, change{r.target, true})
			}
		} else {
			st.failRun++
			st.okRun = 0
			st.failed = true
			if st.ready && st.failRun >= m.opts.DownAfter {
				st.ready = false
				changes = append(changes, change{r.target, false})
			}
		}
		m.mu.Unlock()
	}
	if m.opts.OnChange != nil {
		for _, c := range changes {
			m.opts.OnChange(c.target, c.ready)
		}
	}
}

// Ready reports whether the target is currently absorbed as ready. Unknown
// targets are never ready.
func (m *Monitor) Ready(target string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[target]
	return ok && st.ready
}

// ReadyCount returns how many targets are currently ready.
func (m *Monitor) ReadyCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.states {
		if st.ready {
			n++
		}
	}
	return n
}

// Snapshot returns the per-target health view, sorted by target.
func (m *Monitor) Snapshot() []TargetHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]TargetHealth, 0, len(m.targets))
	for _, t := range m.targets {
		st := m.states[t]
		th := TargetHealth{Target: t, Ready: st.ready, LastAt: st.lastAt}
		if st.ready || st.okRun > 0 {
			th.Streak = st.okRun
		} else {
			th.Streak = st.failRun
		}
		if st.lastErr != nil {
			th.LastErr = st.lastErr.Error()
		}
		out = append(out, th)
	}
	return out
}

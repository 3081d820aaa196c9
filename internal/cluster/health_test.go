package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeProbe is a settable probe result per target.
type fakeProbe struct {
	mu  sync.Mutex
	err map[string]error // guarded by mu
}

func (p *fakeProbe) set(target string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = make(map[string]error)
	}
	p.err[target] = err
}

func (p *fakeProbe) probe(target string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err[target]
}

func TestMonitorHysteresis(t *testing.T) {
	probe := &fakeProbe{}
	var changes []string
	var cmu sync.Mutex
	m := NewMonitor([]string{"a", "b"}, MonitorOptions{
		DownAfter: 2,
		UpAfter:   2,
		Probe:     probe.probe,
		OnChange: func(target string, ready bool) {
			cmu.Lock()
			changes = append(changes, fmt.Sprintf("%s=%v", target, ready))
			cmu.Unlock()
		},
	})

	// Targets start unready. One that has never failed a probe is absorbed
	// on its first success: UpAfter applies only after a failure.
	if m.Ready("a") || m.Ready("b") {
		t.Fatal("target ready before any probe")
	}
	m.ProbeOnce()
	if !m.Ready("a") || !m.Ready("b") {
		t.Fatal("targets that never failed not ready after their first successful probe")
	}
	if m.ReadyCount() != 2 {
		t.Fatalf("ReadyCount = %d, want 2", m.ReadyCount())
	}

	// One failed probe must not flap the target down (DownAfter=2)...
	probe.set("a", fmt.Errorf("connection refused"))
	m.ProbeOnce()
	if !m.Ready("a") {
		t.Fatal("target dropped after a single failed probe despite DownAfter=2")
	}
	// ...but a sustained failure must.
	m.ProbeOnce()
	if m.Ready("a") {
		t.Fatal("target still ready after DownAfter failed probes")
	}
	if m.Ready("b") != true {
		t.Fatal("healthy target caught in neighbor's failure")
	}

	// Recovery needs UpAfter consecutive successes again, and an interleaved
	// failure resets the streak.
	probe.set("a", nil)
	m.ProbeOnce()
	probe.set("a", fmt.Errorf("flap"))
	m.ProbeOnce()
	probe.set("a", nil)
	m.ProbeOnce()
	if m.Ready("a") {
		t.Fatal("interleaved failure did not reset the up-streak")
	}
	m.ProbeOnce()
	if !m.Ready("a") {
		t.Fatal("target not readmitted after UpAfter clean probes")
	}

	cmu.Lock()
	defer cmu.Unlock()
	want := []string{"a=true", "b=true", "a=false", "a=true"}
	// OnChange order within one round is nondeterministic across targets, so
	// compare as multisets of the per-target sequences.
	var aSeq, bSeq []string
	for _, c := range changes {
		if c[0] == 'a' {
			aSeq = append(aSeq, c)
		} else {
			bSeq = append(bSeq, c)
		}
	}
	if len(aSeq) != 3 || aSeq[0] != "a=true" || aSeq[1] != "a=false" || aSeq[2] != "a=true" {
		t.Fatalf("a transitions = %v, want [a=true a=false a=true] (full log %v, want %v)", aSeq, changes, want)
	}
	if len(bSeq) != 1 || bSeq[0] != "b=true" {
		t.Fatalf("b transitions = %v, want [b=true]", bSeq)
	}

	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Target != "a" || !snap[0].Ready {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// A target whose first probe fails has lost the fast start: it needs
// UpAfter consecutive successes like any recovering target.
func TestMonitorFirstProbeFails(t *testing.T) {
	probe := &fakeProbe{}
	probe.set("a", fmt.Errorf("connection refused"))
	m := NewMonitor([]string{"a"}, MonitorOptions{UpAfter: 3, Probe: probe.probe})
	m.ProbeOnce()
	probe.set("a", nil)
	for i := 1; i < 3; i++ {
		m.ProbeOnce()
		if m.Ready("a") {
			t.Fatalf("target that failed its first probe ready after %d successes despite UpAfter=3", i)
		}
	}
	m.ProbeOnce()
	if !m.Ready("a") {
		t.Fatal("target not ready after UpAfter successes")
	}
}

func TestMonitorUnknownTargetNeverReady(t *testing.T) {
	m := NewMonitor([]string{"a"}, MonitorOptions{Probe: func(string) error { return nil }, UpAfter: 1})
	m.ProbeOnce()
	if m.Ready("nope") {
		t.Fatal("unknown target reported ready")
	}
}

// The default HTTP probe must treat a 503 /readyz (draining or recovering
// node) as not ready while the process is plainly still live.
func TestHTTPProbeReadyz(t *testing.T) {
	var code atomic503
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(code.get())
	}))
	defer srv.Close()

	probe := HTTPProbe(time.Second)
	code.set(http.StatusOK)
	if err := probe(srv.URL); err != nil {
		t.Fatalf("200 readyz probed not-ready: %v", err)
	}
	code.set(http.StatusServiceUnavailable)
	if err := probe(srv.URL); err == nil {
		t.Fatal("503 readyz probed ready")
	}
	srv.Close()
	if err := probe(srv.URL); err == nil {
		t.Fatal("dead listener probed ready")
	}
}

type atomic503 struct {
	mu sync.Mutex
	v  int // guarded by mu
}

func (a *atomic503) set(v int) { a.mu.Lock(); a.v = v; a.mu.Unlock() }
func (a *atomic503) get() int  { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestMonitorStartStop(t *testing.T) {
	probe := &fakeProbe{}
	m := NewMonitor([]string{"a"}, MonitorOptions{Interval: 5 * time.Millisecond, UpAfter: 1, Probe: probe.probe})
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for !m.Ready("a") {
		if time.Now().After(deadline) {
			t.Fatal("monitor loop never absorbed the target")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
}

func TestFailoverDeadline(t *testing.T) {
	m := NewMonitor([]string{"a"}, MonitorOptions{Interval: 100 * time.Millisecond, DownAfter: 3, Timeout: time.Second})
	if got, want := m.FailoverDeadline(), 4*100*time.Millisecond+time.Second; got != want {
		t.Fatalf("FailoverDeadline = %v, want %v", got, want)
	}
}

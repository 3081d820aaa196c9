package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ChaosMode is what a chaotic target does to requests.
type ChaosMode int

const (
	// ChaosNone forwards normally (the zero value; clearing a fault).
	ChaosNone ChaosMode = iota
	// ChaosDrop fails the request immediately with a transport error —
	// a crashed process with the port closed.
	ChaosDrop
	// ChaosDelay holds the request for the configured latency, then
	// forwards — a saturated or GC-stalled node.
	ChaosDelay
	// ChaosBlackhole accepts the connection and never answers; the request
	// runs until its context deadline — a partitioned or wedged node, the
	// case that distinguishes timeout handling from error handling.
	ChaosBlackhole
)

func (m ChaosMode) String() string {
	switch m {
	case ChaosNone:
		return "none"
	case ChaosDrop:
		return "drop"
	case ChaosDelay:
		return "delay"
	case ChaosBlackhole:
		return "blackhole"
	}
	return fmt.Sprintf("ChaosMode(%d)", int(m))
}

// chaosFault is one target's injected behavior.
type chaosFault struct {
	mode  ChaosMode
	delay time.Duration
}

// Chaos is an http.RoundTripper that injects per-target faults in front of a
// real transport. Faults key on the request's scheme://host, so one Chaos
// wraps the proxy's whole upstream set and kills targets selectively —
// the transport-level half of the kill-a-node test (the process-level half
// is the smoke script's SIGKILL). Safe for concurrent use.
type Chaos struct {
	next http.RoundTripper

	mu     sync.Mutex
	faults map[string]chaosFault // guarded by mu
}

// NewChaos wraps next (nil uses http.DefaultTransport) with no faults set.
func NewChaos(next http.RoundTripper) *Chaos {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Chaos{next: next, faults: make(map[string]chaosFault)}
}

// Set injects mode for the target base URL (e.g. "http://127.0.0.1:9081").
// delay only matters for ChaosDelay. ChaosNone clears the fault.
func (c *Chaos) Set(target string, mode ChaosMode, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mode == ChaosNone {
		delete(c.faults, target)
		return
	}
	c.faults[target] = chaosFault{mode: mode, delay: delay}
}

// RoundTrip applies the target's fault, if any, then forwards.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Scheme + "://" + req.URL.Host
	c.mu.Lock()
	f, ok := c.faults[key]
	c.mu.Unlock()
	if !ok {
		return c.next.RoundTrip(req)
	}
	switch f.mode {
	case ChaosDrop:
		return nil, fmt.Errorf("cluster: chaos: target %s dropped", key)
	case ChaosDelay:
		t := time.NewTimer(f.delay)
		defer t.Stop()
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-t.C:
		}
		return c.next.RoundTrip(req)
	case ChaosBlackhole:
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return c.next.RoundTrip(req)
}

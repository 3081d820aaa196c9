package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The generator is one process with at most senders goroutines and as many
// keep-alive connections.
const (
	senders   = 2
	opTimeout = 5 * time.Second
)

// opHeader carries the generator's operation id, so the traced run can join
// the spans one request leaves in every layer.
const opHeader = "X-Bench-Op"

// sample is one finished request. Times are seconds since the phase start:
// due is when the schedule wanted it sent (open loop only), start and end
// bracket the HTTP exchange, and late is how long after due an idle sender
// woke to send it.
type sample struct {
	kind                  opKind
	due, start, end, late float64
	code                  int     // HTTP status; 0 when the exchange failed
	value                 float64 // estimate, for estimates
	seq                   uint64  // WAL sequence, for feedback
	bad                   bool    // a 200 whose body did not parse
}

func (s sample) ok() bool { return s.code == http.StatusOK && !s.bad }

// latency is the open-loop latency, timed from when the request was due;
// a failed request counts as missing every latency limit.
func (s sample) latency() float64 {
	if !s.ok() {
		return inf
	}
	return s.end - s.due
}

// client is the generator's HTTP side: one transport capped at senders
// connections, shared by every phase of a run.
type client struct {
	hc    *http.Client
	tr    *http.Transport
	ids   atomic.Int64
	spans *spanLog // non-nil in the traced run: every request leaves a client span
}

func newClient(spans *spanLog) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     senders,
		MaxIdleConnsPerHost: senders,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: opTimeout}, tr: tr, spans: spans}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// exec sends one operation to base and parses the answer.
func (c *client) exec(ctx context.Context, base string, t0 time.Time, o op) sample {
	s := sample{kind: o.kind, start: time.Since(t0).Seconds()}
	id := c.ids.Add(1)
	var begin int64
	if c.spans != nil {
		begin = c.spans.now()
	}
	code, data, err := c.post(ctx, base+o.kind.path(), o.body, id)
	s.end = time.Since(t0).Seconds()
	if c.spans != nil {
		c.spans.add(span{Op: id, Name: "client", Route: o.kind.path(), Start: begin, End: c.spans.now(), Code: code})
	}
	if err != nil {
		return s
	}
	s.code = code
	if code != http.StatusOK {
		return s
	}
	if o.kind == opEstimate {
		var r struct {
			Estimate *float64 `json:"estimate"`
		}
		if json.Unmarshal(data, &r) != nil || r.Estimate == nil {
			s.bad = true
		} else {
			s.value = *r.Estimate
		}
	} else {
		var r struct {
			OK  bool   `json:"ok"`
			Seq uint64 `json:"seq"`
		}
		if json.Unmarshal(data, &r) != nil || !r.OK {
			s.bad = true
		}
		s.seq = r.Seq
	}
	return s
}

func (c *client) post(ctx context.Context, url string, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// turns admits the closed loop's feedback operations one at a time, in
// stream order. The histogram is order-sensitive: two observations in
// flight together reach it in either order, and later drills then cost
// differently.
type turns struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int // guarded by mu
}

func newTurns() *turns {
	t := &turns{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// send executes o; with t non-nil a feedback first waits for its turn.
func (c *client) send(ctx context.Context, base string, t0 time.Time, o op, t *turns) sample {
	if t == nil || o.kind != opFeedback {
		return c.exec(ctx, base, t0, o)
	}
	t.mu.Lock()
	for t.next != o.fb {
		t.cond.Wait()
	}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.next++
		t.mu.Unlock()
		t.cond.Broadcast()
	}()
	return c.exec(ctx, base, t0, o)
}

// schedule hands out the open loop's ops in due order.
type schedule struct {
	ops     []op
	mu      sync.Mutex
	fb, est []int // indices of the ops not yet taken, in due order; guarded by mu
}

func newSchedule(ops []op) *schedule {
	s := &schedule{ops: ops}
	for i, o := range ops {
		if o.kind == opFeedback {
			s.fb = append(s.fb, i)
		} else {
			s.est = append(s.est, i)
		}
	}
	return s
}

// take returns the index of the earliest op not yet taken; without
// withFb, the earliest estimate.
func (s *schedule) take(withFb bool) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &s.est
	if withFb && len(s.fb) > 0 && (len(s.est) == 0 || s.ops[s.fb[0]].due <= s.ops[s.est[0]].due) {
		next = &s.fb
	}
	if len(*next) == 0 {
		return 0, false
	}
	i := (*next)[0]
	*next = (*next)[1:]
	return i, true
}

// openLoop sends ops on their schedule from senders goroutines. A sender
// that finishes late takes its next op at once, so a stall delays later
// requests and their latency, timed from the due time, shows it. Both
// senders send estimates. With serial, only the first sends feedback, so
// feedback goes one request at a time in stream order while estimates keep
// the other sender.
func (c *client) openLoop(ctx context.Context, base string, ops []op, serial bool) []sample {
	sched := newSchedule(ops)
	out := make([]sample, len(ops))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		withFb := w == 0 || !serial
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i, ok := sched.take(withFb)
				if !ok {
					return
				}
				late := 0.0
				if ops[i].due > time.Since(t0).Seconds() {
					sleepUntil(t0.Add(time.Duration(ops[i].due * 1e9)))
					late = time.Since(t0).Seconds() - ops[i].due
				}
				s := c.exec(ctx, base, t0, ops[i])
				s.due, s.late = ops[i].due, late
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs senders clients back to back for d: each sends its next
// op as soon as the previous one is answered.
func (c *client) closedLoop(ctx context.Context, base string, d time.Duration, serial bool, next func(j int) op) []sample {
	var t *turns
	if serial {
		t = newTurns()
	}
	var j atomic.Int64
	parts := make([][]sample, senders)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < d {
				s := c.send(ctx, base, t0, next(int(j.Add(1)-1)), t)
				s.due = s.start
				parts[w] = append(parts[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// sequential sends every body in turn, one request at a time, and fails on
// the first that is not answered 200.
func (c *client) sequential(ctx context.Context, base string, kind opKind, bodies [][]byte) ([]sample, error) {
	out := make([]sample, len(bodies))
	t0 := time.Now()
	for i, b := range bodies {
		out[i] = c.exec(ctx, base, t0, op{kind: kind, body: b})
		if !out[i].ok() {
			return out[:i+1], fmt.Errorf("%s %d of %d: status %d", kind, i, len(bodies), out[i].code)
		}
	}
	return out, nil
}

// probe asks for the estimates of bodies, one at a time.
func (c *client) probe(ctx context.Context, base string, bodies [][]byte) ([]sample, error) {
	return c.sequential(ctx, base, opEstimate, bodies)
}

// get fetches a JSON document.
func (c *client) get(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// walState is the part of GET /stats the harness reads.
type walState struct {
	WAL struct {
		LastSeq          uint64 `json:"last_seq"`
		RecordsSinceCkpt int    `json:"records_since_checkpoint"`
	} `json:"wal"`
}

func (c *client) stats(ctx context.Context, node, table string) (walState, error) {
	var st walState
	err := c.get(ctx, node+"/stats?table="+table, &st)
	return st, err
}

// sleepUntil blocks until deadline. time.Sleep wakes through an epoll wait
// of whole milliseconds on Linux, about half a millisecond late on average,
// which an open loop timed from due times would charge to the server;
// nanosleep wakes within tens of microseconds. A wait lasts at most one
// inter-arrival gap, so it does not watch for cancellation.
func sleepUntil(deadline time.Time) {
	for d := time.Until(deadline); d > 0; d = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted by a signal: sleep the rest
	}
}

package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sthist/internal/faultfs"
	"sthist/internal/wal"
)

// span is one timed interval at a layer boundary of the traced run. Spans
// of one request share Op, the generator's operation id; WAL spans carry no
// Op and are joined to requests by time.
type span struct {
	Op    int64  `json:"op,omitempty"`
	Name  string `json:"name"` // client, cluster, upstream, httpapi, wal.append, wal.fsync, wal.checkpoint
	Route string `json:"route,omitempty"`
	Start int64  `json:"start_ns"` // since the run started
	End   int64  `json:"end_ns"`
	Code  int    `json:"code,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps every span of a traced run in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// ended records a span of length d that ends now.
func (l *spanLog) ended(name string, d time.Duration) {
	end := l.now()
	l.add(span{Name: name, Start: end - int64(d), End: end})
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

type opKey struct{}

func headerOp(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64) // absent: 0, outside the schedule
	return id
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware times next as the named layer. The operation id rides the
// request context so the proxy's upstream transport can pass it on.
func (l *spanLog) middleware(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := headerOp(r)
		r = r.WithContext(context.WithValue(r.Context(), opKey{}, id))
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		start := l.now()
		next.ServeHTTP(cw, r)
		l.add(span{Op: id, Name: name, Route: r.URL.Path, Start: start, End: l.now(), Code: cw.code})
	})
}

// timedTransport is the proxy's upstream round tripper in the traced run:
// it times every attempt and forwards the operation id to the node.
type timedTransport struct {
	base  http.RoundTripper
	spans *spanLog
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(opKey{}).(int64)
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	start := t.spans.now()
	resp, err := t.base.RoundTrip(req)
	code := 0
	if err == nil {
		code = resp.StatusCode
	}
	t.spans.add(span{Op: id, Name: "upstream", Route: req.URL.Path, Start: start, End: t.spans.now(), Code: code})
	return resp, err
}

// walTap records the WAL's durability timings as spans and passes them on
// to the telemetry observer sthistd installs.
type walTap struct {
	next  wal.Observer
	spans *spanLog
}

func (t walTap) ObserveAppend(d time.Duration, err error) {
	t.spans.ended("wal.append", d)
	t.next.ObserveAppend(d, err)
}

func (t walTap) ObserveSync(d time.Duration, err error) {
	t.spans.ended("wal.fsync", d)
	t.next.ObserveSync(d, err)
}

func (t walTap) ObserveCheckpoint(d time.Duration, err error) {
	t.spans.ended("wal.checkpoint", d)
	t.next.ObserveCheckpoint(d, err)
}

// countingFS is the real filesystem, counting the bytes the WAL writes and
// the fsyncs it issues (file and directory).
type countingFS struct {
	faultfs.OS
	bytes, syncs atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(name string) error {
	c.syncs.Add(1)
	return c.OS.SyncDir(name)
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// opTrace is one request's time in each layer, in nanoseconds.
type opTrace struct {
	client   int64 // client span: the whole exchange as the generator saw it
	cluster  int64 // proxy handler span (0 without a proxy)
	upstream int64 // the proxy's upstream attempts, summed
	attempts int
	node     int64 // node handler spans, summed
	wal      int64 // append + fsync of the WAL batch charged to a feedback
}

// top is the outermost server-side span: the part of the client span the
// server layers account for.
func (t opTrace) top() int64 {
	if t.attempts > 0 {
		return t.cluster
	}
	return t.node
}

// breakdown joins the spans of every request whose client span started in
// [from, to) and returns them per operation type. A feedback request is
// charged the append and fsync of the last WAL batch that ended inside its
// node handler span: under group commit that is the batch which carried it.
func breakdown(spans []span, from, to int64) map[opKind][]opTrace {
	type batch struct{ end, cost int64 }
	var walSpans []span
	byOp := map[int64][]span{}
	for _, s := range spans {
		switch {
		case s.Name == "wal.append" || s.Name == "wal.fsync":
			walSpans = append(walSpans, s)
		case s.Op != 0:
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	sort.Slice(walSpans, func(i, j int) bool { return walSpans[i].Start < walSpans[j].Start })
	var batches []batch
	for i := 0; i+1 < len(walSpans); i++ {
		if walSpans[i].Name == "wal.append" && walSpans[i+1].Name == "wal.fsync" {
			batches = append(batches, batch{end: walSpans[i+1].End, cost: walSpans[i].dur() + walSpans[i+1].dur()})
			i++
		}
	}
	out := map[opKind][]opTrace{}
	for _, ss := range byOp {
		var t opTrace
		var kind opKind
		var in bool
		var nodes []span
		for _, s := range ss {
			switch s.Name {
			case "client":
				in = s.Start >= from && s.Start < to && s.Code == http.StatusOK
				t.client = s.dur()
				if s.Route == opFeedback.path() {
					kind = opFeedback
				}
			case "cluster":
				t.cluster += s.dur()
			case "upstream":
				t.upstream += s.dur()
				t.attempts++
			case "httpapi":
				t.node += s.dur()
				nodes = append(nodes, s)
			}
		}
		if !in {
			continue
		}
		if kind == opFeedback {
			for _, h := range nodes {
				i := sort.Search(len(batches), func(i int) bool { return batches[i].end > h.End })
				if i > 0 && batches[i-1].end >= h.Start {
					t.wal += batches[i-1].cost
				}
			}
		}
		out[kind] = append(out[kind], t)
	}
	return out
}

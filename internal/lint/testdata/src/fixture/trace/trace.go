// Package trace is a lint-fixture stub of sthist's internal/trace: just
// enough surface for the spanend analyzer, which matches the Start* methods
// by name and by their *trace.Span result type. The package is itself named
// trace so the analyzer's self-exemption for the real implementation does
// NOT apply to clients importing it — only to this package's own bodies.
package trace

import (
	"net/http"
	"time"
)

// TraceparentHeader is the W3C propagation header.
const TraceparentHeader = "traceparent"

// SpanContext identifies a trace across processes.
type SpanContext struct {
	TraceID string
}

// Inject stamps the traceparent onto an outbound request. The ctxflow
// analyzer recognizes any trace-package call taking the request as
// propagation.
func Inject(sc SpanContext, req *http.Request) {
	if req == nil || sc.TraceID == "" {
		return
	}
	req.Header.Set(TraceparentHeader, sc.TraceID)
}

// Span is one traced operation.
type Span struct{}

// Tracer mints spans.
type Tracer struct{}

// StartRoot begins a fresh trace.
func (t *Tracer) StartRoot(name string) *Span { return &Span{} }

// StartRemote continues a propagated context.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span { return &Span{} }

// StartChild begins a child span.
func (s *Span) StartChild(name string) *Span { return &Span{} }

// StartChildAt begins a child span timed after the fact.
func (s *Span) StartChildAt(name string, start time.Time) *Span { return &Span{} }

// End completes the span.
func (s *Span) End() {}

// EndAt completes the span at a given time.
func (s *Span) EndAt(end time.Time) {}

// SetError marks the span failed.
func (s *Span) SetError(msg string) {}

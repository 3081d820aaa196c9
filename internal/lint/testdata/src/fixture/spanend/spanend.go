// Package spanend is a lint fixture for the spanend analyzer: spans minted
// by StartRoot/StartRemote/StartChild/StartChildAt must reach End() or
// EndAt on every return path, unless ownership visibly moves elsewhere.
package spanend

import (
	"errors"
	"time"

	"fixture/trace"
)

var errOp = errors.New("op failed")

// holder mimics the writer pipeline's request struct: it owns spans whose
// End happens in a later stage.
type holder struct {
	sp *trace.Span
}

func keep(sp *trace.Span) {}

// GoodDefer is the canonical shape: defer covers every path.
func GoodDefer(tr *trace.Tracer) {
	sp := tr.StartRoot("op")
	defer sp.End()
}

// GoodExplicit ends the span before each return.
func GoodExplicit(tr *trace.Tracer, fail bool) error {
	sp := tr.StartRoot("op")
	if fail {
		sp.SetError("boom")
		sp.End()
		return errOp
	}
	sp.End()
	return nil
}

// GoodConditional mirrors the HTTP middlewares: the span is minted inside a
// guard and the defer registers right there.
func GoodConditional(tr *trace.Tracer, on bool) {
	var sp *trace.Span
	if on {
		sp = tr.StartRoot("op")
		defer sp.End()
	}
	_ = sp
}

// GoodChildLoop ends each iteration's child with no returns in sight.
func GoodChildLoop(tr *trace.Tracer, n int) {
	root := tr.StartRoot("op")
	defer root.End()
	for i := 0; i < n; i++ {
		c := root.StartChild("step")
		c.End()
	}
}

// GoodPostHoc records a stage timed after the fact, ended with EndAt.
func GoodPostHoc(root *trace.Span, start time.Time, d time.Duration) {
	c := root.StartChildAt("stage", start)
	c.EndAt(start.Add(d))
}

// GoodEscapeField hands the span to a struct for a later stage to end.
func GoodEscapeField(tr *trace.Tracer, h *holder) {
	h.sp = tr.StartRoot("op")
}

// GoodEscapeCompositeAndArg moves ownership via a literal and a call.
func GoodEscapeCompositeAndArg(tr *trace.Tracer) *holder {
	sp := tr.StartRoot("op")
	keep(sp)
	child := sp.StartChild("stage")
	return &holder{sp: child}
}

// GoodEscapeReturn returns the span to the caller.
func GoodEscapeReturn(tr *trace.Tracer) *trace.Span {
	sp := tr.StartRoot("op")
	return sp
}

// BadLeak never ends the span at all.
func BadLeak(tr *trace.Tracer) {
	sp := tr.StartRoot("op") // want spanend
	sp.SetError("boom")
}

// BadEarlyReturn ends the happy path but leaks on the error path.
func BadEarlyReturn(tr *trace.Tracer, fail bool) error {
	sp := tr.StartRoot("op") // want spanend
	if fail {
		return errOp
	}
	sp.End()
	return nil
}

// BadDiscard drops the span on the floor as a bare statement.
func BadDiscard(tr *trace.Tracer) {
	tr.StartRoot("op") // want spanend
}

// BadBlank visibly discards, which still leaks the span.
func BadBlank(tr *trace.Tracer) {
	_ = tr.StartRoot("op") // want spanend
}

// BadChild leaks a child even though the root is covered.
func BadChild(tr *trace.Tracer) {
	root := tr.StartRoot("op")
	defer root.End()
	c := root.StartChild("stage") // want spanend
	c.SetError("boom")
}

// BadPostHoc starts a post-hoc stage and returns before ending it.
func BadPostHoc(root *trace.Span, start time.Time, fail bool) error {
	c := root.StartChildAt("stage", start) // want spanend
	if fail {
		return errOp
	}
	c.EndAt(start)
	return nil
}

// IgnoredLeak exercises the escape hatch: the directive suppresses the
// diagnostic because it names the check and carries a reason.
func IgnoredLeak(tr *trace.Tracer) {
	//sthlint:ignore spanend fixture exercises the suppression path
	tr.StartRoot("op")
}

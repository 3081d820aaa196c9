package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Service() != "" || tr.Spans("x") != nil || tr.Recent(5) != nil {
		t.Fatalf("nil tracer leaked state")
	}
	if sc := tr.NewContext(); sc.Valid() {
		t.Fatalf("nil tracer minted a context")
	}
	sp := tr.StartRoot("root")
	if sp != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	// Every span method must be callable on nil.
	sp.SetAttr("k", "v")
	sp.SetError("boom")
	sp.Event("e", time.Now(), time.Millisecond, "")
	child := sp.StartChild("child")
	if child != nil {
		t.Fatalf("nil span returned non-nil child")
	}
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span trace ID %q", got)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatalf("nil span stored in context")
	}
}

func TestSampledTraceRetained(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Seed: 1})
	root := tr.StartRoot("root")
	child := root.StartChild("child", A("k", "v"))
	child.End()
	root.Event("posthoc", time.Now(), 3*time.Millisecond, "", A("stage", "wal"))
	root.End()

	spans := tr.Spans(root.TraceID())
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
		if sd.TraceID != root.TraceID() {
			t.Fatalf("span %q has trace %q, want %q", sd.Name, sd.TraceID, root.TraceID())
		}
		if sd.Service != "svc" {
			t.Fatalf("span %q service %q", sd.Name, sd.Service)
		}
	}
	rootID := byName["root"].SpanID
	if byName["child"].ParentID != rootID || byName["posthoc"].ParentID != rootID {
		t.Fatalf("children not parented under root: %+v", byName)
	}
	if byName["root"].ParentID != "" {
		t.Fatalf("local root has parent %q", byName["root"].ParentID)
	}
	if len(byName["child"].Attrs) != 1 || byName["child"].Attrs[0] != A("k", "v") {
		t.Fatalf("child attrs %+v", byName["child"].Attrs)
	}
	if byName["posthoc"].DurationNs != int64(3*time.Millisecond) {
		t.Fatalf("posthoc duration %d", byName["posthoc"].DurationNs)
	}
}

func TestUnsampledTraceDropped(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 0, Seed: 1})
	root := tr.StartRoot("root")
	root.StartChild("child").End()
	root.End()
	if spans := tr.Spans(root.TraceID()); len(spans) != 0 {
		t.Fatalf("unsampled clean trace retained: %+v", spans)
	}
}

func TestErrorTraceAlwaysKept(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 0, Seed: 1})
	root := tr.StartRoot("root")
	c := root.StartChild("attempt")
	c.SetError("connection refused")
	c.End()
	root.End()
	spans := tr.Spans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("error trace not tail-retained: %+v", spans)
	}
	var found bool
	for _, sd := range spans {
		if sd.Name == "attempt" && sd.Error == "connection refused" {
			found = true
		}
	}
	if !found {
		t.Fatalf("error message lost: %+v", spans)
	}
}

func TestSlowTraceAlwaysKept(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 0, SlowThreshold: time.Millisecond, Seed: 1})
	root := tr.StartRoot("root")
	root.Event("slow-stage", time.Now(), 5*time.Millisecond, "")
	root.End()
	if spans := tr.Spans(root.TraceID()); len(spans) != 2 {
		t.Fatalf("slow trace not tail-retained: %+v", spans)
	}
}

func TestRemoteContinuationKeepsTraceAndSampling(t *testing.T) {
	client := New(Options{Service: "client", SampleRate: 1, Seed: 7})
	sc := client.NewContext()

	server := New(Options{Service: "server", SampleRate: 0, Seed: 8})
	parsed, err := ParseTraceparent(sc.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	sp := server.StartRemote(parsed, "node./estimate")
	if sp.TraceID() != sc.TraceID.String() {
		t.Fatalf("remote span trace %q, want %q", sp.TraceID(), sc.TraceID)
	}
	sp.End()
	// The upstream sampling decision overrides the server's 0 rate.
	spans := server.Spans(sc.TraceID.String())
	if len(spans) != 1 {
		t.Fatalf("propagated sampled trace dropped: %+v", spans)
	}
	if spans[0].ParentID != sc.SpanID.String() {
		t.Fatalf("remote span parent %q, want caller span %q", spans[0].ParentID, sc.SpanID)
	}

	// Invalid context degrades to a fresh root.
	orphan := server.StartRemote(SpanContext{}, "node./estimate")
	if orphan == nil || orphan.TraceID() == sc.TraceID.String() {
		t.Fatalf("invalid context did not mint a fresh trace")
	}
	orphan.End()
}

func TestLateChildAfterRootFlushIsDropped(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Seed: 3})
	root := tr.StartRoot("root")
	loser := root.StartChild("hedge-loser")
	root.End()
	loser.End() // races in after the response went out
	for _, sd := range tr.Spans(root.TraceID()) {
		if sd.Name == "hedge-loser" {
			t.Fatalf("late child retained after flush")
		}
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Seed: 3})
	root := tr.StartRoot("root")
	c := root.StartChild("c")
	c.End()
	c.End()
	root.End()
	if spans := tr.Spans(root.TraceID()); len(spans) != 2 {
		t.Fatalf("double End duplicated span: %+v", spans)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Capacity: 8, Seed: 5})
	var ids []string
	for i := 0; i < 16; i++ {
		sp := tr.StartRoot(fmt.Sprintf("r%d", i))
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if got := tr.Spans(ids[0]); len(got) != 0 {
		t.Fatalf("oldest trace survived eviction")
	}
	if got := tr.Spans(ids[15]); len(got) != 1 {
		t.Fatalf("newest trace evicted")
	}
	if got := tr.Recent(4); len(got) != 4 {
		t.Fatalf("Recent(4) returned %d spans", len(got))
	}
}

func TestErrorTracesSurviveSampledChurn(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Capacity: 8, Seed: 5})
	bad := tr.StartRoot("failed-request")
	bad.SetError("boom")
	bad.End()
	// A flood of healthy sampled traces must not evict the error trace.
	for i := 0; i < 100; i++ {
		sp := tr.StartRoot("ok")
		sp.End()
	}
	if got := tr.Spans(bad.TraceID()); len(got) != 1 {
		t.Fatalf("error trace evicted by sampled churn: %+v", got)
	}
}

// TestConcurrentRecordAndScrape hammers record and scrape paths together;
// run with -race this is the ring's data-race gate.
func TestConcurrentRecordAndScrape(t *testing.T) {
	tr := New(Options{Service: "svc", SampleRate: 1, Capacity: 64, Seed: 9})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				root := tr.StartRoot("root")
				c := root.StartChild("child", A("w", fmt.Sprint(w)))
				if i%7 == 0 {
					c.SetError("synthetic")
				}
				c.End()
				root.Event("stage", time.Now(), time.Microsecond, "")
				root.End()
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sd := range tr.Recent(32) {
					_ = tr.Spans(sd.TraceID)
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(tr.Recent(0)) == 0 {
		t.Fatalf("hammer retained nothing")
	}
}

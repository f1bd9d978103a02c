package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerNilSafety(t *testing.T) {
	// The whole point of the nil-tolerance contract: instrumented code
	// must run untraced with no branches at call sites.
	var tr *Tracer
	sp := tr.StartRoot("root")
	if sp != nil {
		t.Fatalf("nil Tracer.StartRoot = %v, want nil", sp)
	}
	if c := sp.StartChild("child"); c != nil {
		t.Fatalf("nil TraceSpan.StartChild = %v, want nil", c)
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("nil TraceSpan.End = %v, want 0", d)
	}
	if id := sp.Trace(); id != 0 {
		t.Fatalf("nil TraceSpan.Trace = %d, want 0", id)
	}
	snap := tr.Snapshot()
	if snap == nil || snap.CompletedSpans != 0 {
		t.Fatalf("nil Tracer.Snapshot = %+v, want empty snapshot", snap)
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if got := SpanFromContext(ctx); got != nil {
		t.Fatalf("SpanFromContext after nil ContextWithSpan = %v, want nil", got)
	}
	ctx2, child := StartTraceSpan(ctx, "phase")
	if child != nil || ctx2 != ctx {
		t.Fatalf("StartTraceSpan without a span = (%v, %v), want unchanged ctx and nil", ctx2, child)
	}
}

func TestTraceParentLinks(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("serve.job")
	ctx := ContextWithSpan(context.Background(), root)

	ctx, admit := StartTraceSpan(ctx, "serve.admit")
	admit.End()
	_, attempt := StartTraceSpan(ctx, "serve.attempt")
	attempt.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(snap.Slowest))
	}
	rec := snap.Slowest[0]
	if rec.Root != "serve.job" || rec.Trace != root.Trace() {
		t.Fatalf("retained trace = %+v, want root serve.job trace %d", rec, root.Trace())
	}
	byName := map[string]SpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	if len(byName) != 3 {
		t.Fatalf("spans = %v, want serve.job, serve.admit, serve.attempt", rec.Spans)
	}
	if byName["serve.admit"].Parent != byName["serve.job"].Span {
		t.Errorf("serve.admit parent = %d, want root span %d",
			byName["serve.admit"].Parent, byName["serve.job"].Span)
	}
	if byName["serve.attempt"].Parent != byName["serve.admit"].Span {
		t.Errorf("serve.attempt parent = %d, want serve.admit span %d (ctx carried the admit span)",
			byName["serve.attempt"].Parent, byName["serve.admit"].Span)
	}
	for _, sp := range rec.Spans {
		if sp.Trace != root.Trace() {
			t.Errorf("span %s trace = %d, want %d", sp.Name, sp.Trace, root.Trace())
		}
	}
}

func TestTraceEndIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("job")
	root.End()
	root.End() // defensive double-End must not double-record
	snap := tr.Snapshot()
	if snap.CompletedSpans != 1 {
		t.Fatalf("completed spans after double End = %d, want 1", snap.CompletedSpans)
	}
	if len(snap.Slowest) != 1 {
		t.Fatalf("retained traces after double End = %d, want 1", len(snap.Slowest))
	}
}

func TestTailSamplingKeepsSlowest(t *testing.T) {
	tr := NewTracer(TracerConfig{Slowest: 2})
	// Durations are synthesized by back-dating span starts, so the test
	// does not depend on real sleep timing.
	durations := []time.Duration{
		5 * time.Millisecond, 50 * time.Millisecond, time.Millisecond,
		20 * time.Millisecond, 9 * time.Millisecond,
	}
	for _, d := range durations {
		sp := tr.StartRoot("job")
		sp.start = time.Now().Add(-d)
		sp.End()
	}
	snap := tr.Snapshot()
	if len(snap.Slowest) != 2 {
		t.Fatalf("retained traces = %d, want K=2", len(snap.Slowest))
	}
	if snap.Slowest[0].Dur < snap.Slowest[1].Dur {
		t.Errorf("retained traces not slowest-first: %d then %d ns",
			snap.Slowest[0].Dur, snap.Slowest[1].Dur)
	}
	// The two slowest offered were 50ms and 20ms.
	if got := time.Duration(snap.Slowest[0].Dur); got < 50*time.Millisecond {
		t.Errorf("slowest retained = %v, want >= 50ms", got)
	}
	if got := time.Duration(snap.Slowest[1].Dur); got < 20*time.Millisecond || got >= 50*time.Millisecond {
		t.Errorf("second retained = %v, want the 20ms trace", got)
	}
}

func TestTraceRingBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 8, Slowest: 1})
	for i := 0; i < 50; i++ {
		tr.StartRoot("job").End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 8 {
		t.Fatalf("recent spans = %d, want ring size 8", len(snap.Recent))
	}
	if snap.CompletedSpans != 50 {
		t.Fatalf("completed spans = %d, want 50", snap.CompletedSpans)
	}
	// The ring holds the newest 8 — strictly increasing span IDs.
	for i := 1; i < len(snap.Recent); i++ {
		if snap.Recent[i].Span <= snap.Recent[i-1].Span {
			t.Fatalf("ring not oldest-first: %v", snap.Recent)
		}
	}
}

func TestTraceActiveEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxActiveTraces: 2})
	a := tr.StartRoot("a")
	b := tr.StartRoot("b")
	c := tr.StartRoot("c") // evicts a
	snap := tr.Snapshot()
	if snap.ActiveTraces != 2 || snap.EvictedTraces != 1 {
		t.Fatalf("active=%d evicted=%d, want 2 active and 1 evicted",
			snap.ActiveTraces, snap.EvictedTraces)
	}
	a.End() // straggler: ring only
	b.End()
	c.End()
	snap = tr.Snapshot()
	if snap.OrphanedSpans != 1 {
		t.Errorf("orphaned spans = %d, want 1 (evicted trace's late root)", snap.OrphanedSpans)
	}
	if len(snap.Slowest) > 2 {
		t.Errorf("retained %d traces, evicted trace must not be retained whole", len(snap.Slowest))
	}
}

func TestTraceSpanCapPerTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpansPerTrace: 3})
	root := tr.StartRoot("job")
	for i := 0; i < 10; i++ {
		root.StartChild("gen").End()
	}
	root.End()
	snap := tr.Snapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(snap.Slowest))
	}
	rec := snap.Slowest[0]
	if len(rec.Spans) != 3 {
		t.Errorf("stored spans = %d, want cap 3", len(rec.Spans))
	}
	if rec.DroppedSpans != 8 { // 10 children + root = 11 ends, 3 stored
		t.Errorf("dropped spans = %d, want 8", rec.DroppedSpans)
	}
}

func TestTraceCrossGoroutineEnd(t *testing.T) {
	// The queue-wait span starts on the HTTP goroutine and ends on the
	// worker that claims the job; run with -race in make check.
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("job")
	wait := root.StartChild("queue.wait")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wait.End()
	}()
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if len(snap.Slowest) != 1 || len(snap.Slowest[0].Spans) != 2 {
		t.Fatalf("snapshot after cross-goroutine End = %+v, want 1 trace with 2 spans", snap)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 64, Slowest: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartRoot("job")
				root.StartChild("phase").End()
				root.End()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if snap.CompletedSpans != 8*50*2 {
		t.Fatalf("completed spans = %d, want %d", snap.CompletedSpans, 8*50*2)
	}
	if len(snap.Slowest) != 4 {
		t.Fatalf("retained traces = %d, want K=4", len(snap.Slowest))
	}
	if snap.ActiveTraces != 0 {
		t.Fatalf("active traces = %d, want 0 after all roots ended", snap.ActiveTraces)
	}
}

func TestWriteChrome(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("serve.job")
	root.StartChild("queue.wait").End()
	root.End()

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  uint64  `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if !strings.Contains(ev.Name, "process_name") {
				t.Errorf("metadata event name = %q, want process_name", ev.Name)
			}
		case "X":
			complete++
			if ev.Pid != root.Trace() {
				t.Errorf("event pid = %d, want trace %d", ev.Pid, root.Trace())
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 1 || complete != 2 {
		t.Errorf("events = %d metadata + %d complete, want 1 + 2", meta, complete)
	}
}

func TestObsTracerWiring(t *testing.T) {
	o := New("run-1", nil, nil)
	if o.Tracer() != nil {
		t.Fatalf("tracing must be off by default")
	}
	tr := NewTracer(TracerConfig{})
	o.SetTracer(tr)
	if o.Tracer() != tr {
		t.Fatalf("Tracer() did not return the installed tracer")
	}
	o.Tracer().StartRoot("job").End()
	snap := NewRunSnapshot(o, "c432")
	if snap.Traces == nil || len(snap.Traces.Slowest) != 1 {
		t.Fatalf("run snapshot did not embed traces: %+v", snap.Traces)
	}
	// Untraced runs stay trace-free (snapshot bytes unchanged vs. v1).
	plain := NewRunSnapshot(New("run-2", nil, nil), "c432")
	if plain.Traces != nil {
		t.Fatalf("untraced run snapshot has traces stanza: %+v", plain.Traces)
	}
	var nilObs *Obs
	nilObs.SetTracer(tr)
	if nilObs.Tracer() != nil {
		t.Fatalf("nil Obs.Tracer() = %v, want nil", nilObs.Tracer())
	}
}

// Phase spans nest through the context: each one joins the trace the
// context carries, and each feeds its own latency histogram and the
// debug event stream. Trace-only spans (the root here) get no histogram.
func TestSpanNesting(t *testing.T) {
	var b strings.Builder
	o := New("r-1", nil, NewLogger(&b, FormatText, LevelDebug).WithClock(pinnedClock()))
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("serve.attempt")
	ctx := ContextWithSpan(context.Background(), root)

	outer := o.StartSpan(ctx, "optimize", "circuit", "c17")
	inner := o.StartSpan(ContextWithSpan(ctx, outer), "generation")
	if d := inner.End(); d < 0 {
		t.Errorf("End returned negative duration %v", d)
	}
	outer.End("modules", 3)
	root.End()

	out := b.String()
	for _, want := range []string{
		"span begin", "span=optimize circuit=c17", "span=generation",
		"span end", "modules=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	s := o.Registry().Snapshot()
	for _, name := range []string{"span.optimize.seconds", "span.generation.seconds"} {
		if s.Histograms[name].Count != 1 {
			t.Errorf("%s Count = %d, want 1", name, s.Histograms[name].Count)
		}
	}
	if _, ok := s.Histograms["span.serve.attempt.seconds"]; ok {
		t.Error("a trace-only root span must not feed a histogram")
	}
	snap := tr.Snapshot()
	if len(snap.Slowest) != 1 {
		t.Fatalf("retained traces = %d, want 1", len(snap.Slowest))
	}
	parent := map[string]uint64{}
	id := map[string]uint64{}
	for _, sp := range snap.Slowest[0].Spans {
		parent[sp.Name], id[sp.Name] = sp.Parent, sp.Span
	}
	if parent["optimize"] != id["serve.attempt"] || parent["generation"] != id["optimize"] {
		t.Errorf("phase spans not linked under the context's trace: %+v", snap.Slowest[0].Spans)
	}
}

func TestSpanNil(t *testing.T) {
	var o *Obs
	ctx := context.Background()
	sp := o.StartSpan(ctx, "x")
	if sp != nil {
		t.Fatal("nil Obs without a context span must yield a nil span")
	}
	if sp.StartChild("y") != nil {
		t.Error("nil span StartChild must stay nil")
	}
	if sp.End("k", 1) != 0 {
		t.Error("nil span End must return 0")
	}
	if n := testing.AllocsPerRun(100, func() {
		o.StartSpan(ctx, "phase", "k", "v").End("modules", 3)
	}); n != 0 {
		t.Errorf("unobserved, untraced StartSpan+End allocates %v, want 0", n)
	}
	// Under a traced context a nil Obs still yields a trace span.
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("root")
	child := o.StartSpan(ContextWithSpan(ctx, root), "phase")
	if child == nil || child.Trace() != root.Trace() {
		t.Fatalf("nil Obs under a traced context: span %v, want a child of trace %d", child, root.Trace())
	}
	child.End("ignored", true)
	root.End()
	if got := tr.Snapshot().CompletedSpans; got != 2 {
		t.Errorf("completed spans = %d, want 2", got)
	}
}

func TestSpanWithoutDebugLoggingStillRecords(t *testing.T) {
	var b strings.Builder
	o := New("r-1", nil, NewLogger(&b, FormatText, LevelWarn))
	sp := o.StartSpan(context.Background(), "quiet")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d < time.Millisecond {
		t.Errorf("duration %v, want >= 1ms", d)
	}
	if sp.End() != 0 {
		t.Error("a second End must not record again")
	}
	if b.Len() != 0 {
		t.Errorf("no span events expected above debug level, got %q", b.String())
	}
	if o.Registry().Snapshot().Histograms["span.quiet.seconds"].Count != 1 {
		t.Error("span duration must be recorded once, even when debug logging is off")
	}
}

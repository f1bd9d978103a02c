// Causal tracing: context-propagated trace/span identity over the whole
// request path — HTTP accept, admission, per-tenant queue wait, worker
// claim, the core retry/degrade loop, per-generation evolution phases,
// result publish. Where the metrics registry answers "how often and how
// long on average", a trace answers "where did *this* request's
// milliseconds go": every TraceSpan carries its trace ID and parent link,
// completed spans land in a fixed-size ring buffer, and a tail sampler
// always retains the K slowest completed traces with their full span
// trees — the traces worth looking at are by definition the ones you
// cannot pick in advance.
//
// The design follows the package's rules: nil-tolerant everywhere (a nil
// *Tracer or *TraceSpan makes every operation a no-op, so instrumented
// code reads identically whether tracing is armed or not, and the
// disabled path costs one pointer comparison and zero allocations), and
// lock-cheap (one short mutex hold per span *end*; span start is
// allocation-only; nothing on the per-descendant optimizer hot path is
// ever traced — spans cover phases, not individual cost evaluations).
//
// A phase span ((*Obs).StartSpan) is a TraceSpan that also reports to
// an Obs: its End feeds the "span.<name>.seconds" histogram and the
// debug begin/end events, and it joins the context's trace when one is
// armed. One call times a synthesis phase for both the metrics snapshot
// and the causal trace.
//
// Exports: Snapshot (JSON, embeddable in run snapshots) and Chrome
// trace_event JSON (chrome://tracing, Perfetto) via the /tracez debug
// endpoint.

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer sampling and bounding defaults.
const (
	// DefaultTraceRing is the completed-span ring size.
	DefaultTraceRing = 2048
	// DefaultSlowestTraces is K, the number of slowest completed traces
	// the tail sampler retains.
	DefaultSlowestTraces = 8
	// DefaultMaxSpansPerTrace bounds one trace's recorded spans; spans
	// beyond the cap are counted, not stored.
	DefaultMaxSpansPerTrace = 4096
	// DefaultMaxActiveTraces bounds concurrently open traces; beyond it
	// the oldest active trace is evicted (its spans keep landing in the
	// ring, but it can no longer be retained whole).
	DefaultMaxActiveTraces = 256
)

// TracerConfig bounds a Tracer. Zero values select the defaults above.
type TracerConfig struct {
	Ring             int // completed-span ring size
	Slowest          int // K slowest completed traces retained
	MaxSpansPerTrace int
	MaxActiveTraces  int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Ring <= 0 {
		c.Ring = DefaultTraceRing
	}
	if c.Slowest <= 0 {
		c.Slowest = DefaultSlowestTraces
	}
	if c.MaxSpansPerTrace <= 0 {
		c.MaxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	if c.MaxActiveTraces <= 0 {
		c.MaxActiveTraces = DefaultMaxActiveTraces
	}
	return c
}

// SpanRecord is one completed span.
type SpanRecord struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"` // 0 for a trace's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_nano"`
	Dur    int64  `json:"duration_nanos"`
}

// TraceRecord is one completed trace: the root span's identity and
// duration plus every span recorded under it (bounded; DroppedSpans
// counts the overflow).
type TraceRecord struct {
	Trace        uint64       `json:"trace"`
	Root         string       `json:"root"`
	Start        int64        `json:"start_unix_nano"`
	Dur          int64        `json:"duration_nanos"`
	DroppedSpans int          `json:"dropped_spans,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// activeTrace accumulates the spans of one open trace until its root ends.
type activeTrace struct {
	rootSpan uint64
	spans    []SpanRecord
	dropped  int
}

// Tracer owns span identity, the completed-span ring, and the tail
// sampler. All methods are safe for concurrent use and no-ops on nil.
type Tracer struct {
	cfg TracerConfig
	seq atomic.Uint64 // span/trace ID allocator; IDs are process-unique

	mu          sync.Mutex
	ring        []SpanRecord            // guarded by mu; fixed-size, next is the write cursor
	next        int                     // guarded by mu
	total       uint64                  // guarded by mu; completed spans ever
	active      map[uint64]*activeTrace // guarded by mu
	activeOrder []uint64                // guarded by mu; FIFO eviction order
	slowest     []*TraceRecord          // guarded by mu; sorted slowest-first, len <= K
	evicted     uint64                  // guarded by mu; active traces evicted over the cap
	orphaned    uint64                  // guarded by mu; spans whose trace was already gone
}

// NewTracer builds a tracer with the given bounds.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:    cfg,
		ring:   make([]SpanRecord, cfg.Ring),
		active: make(map[uint64]*activeTrace),
	}
}

// TraceSpan is one timed phase of one trace. Start/End may run on
// different goroutines when the span hands off through a synchronized
// structure (a queue-wait span ends on the worker that claims the job);
// End is idempotent so a defensive double-End cannot double-record.
// A phase span (StartSpan) also carries its Obs; its tracer is nil when
// the context it started under carried no trace.
type TraceSpan struct {
	tr     *Tracer
	o      *Obs
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
	ended  atomic.Bool
}

// StartRoot opens a new trace and returns its root span.
func (t *Tracer) StartRoot(name string) *TraceSpan {
	if t == nil {
		return nil
	}
	id := t.seq.Add(1)
	sp := &TraceSpan{tr: t, trace: id, id: id, name: name, start: time.Now()}
	t.mu.Lock()
	t.active[id] = &activeTrace{rootSpan: id}
	t.activeOrder = append(t.activeOrder, id)
	if len(t.activeOrder) > t.cfg.MaxActiveTraces {
		// Evict the oldest open trace (a crash-looping or abandoned job
		// whose root never ended): it can no longer be retained whole.
		old := t.activeOrder[0]
		t.activeOrder = t.activeOrder[1:]
		if _, ok := t.active[old]; ok {
			delete(t.active, old)
			t.evicted++
		}
	}
	t.mu.Unlock()
	return sp
}

// StartChild opens a child span under sp (same trace, parent link set).
// Nil-safe: a nil receiver returns nil, so an untraced call path costs
// nothing.
func (sp *TraceSpan) StartChild(name string) *TraceSpan {
	if sp == nil || sp.tr == nil {
		return nil
	}
	return &TraceSpan{
		tr: sp.tr, trace: sp.trace, id: sp.tr.seq.Add(1), parent: sp.id,
		name: name, start: time.Now(),
	}
}

// StartSpan opens a phase span: a child of the context's span (so it
// joins that trace, if any) that also reports to o when it ends. It logs
// a debug begin event with kv. It returns nil only when o is nil and ctx
// carries no traced span, so the unobserved, untraced path allocates
// nothing.
func (o *Obs) StartSpan(ctx context.Context, name string, kv ...any) *TraceSpan {
	sp := SpanFromContext(ctx).StartChild(name)
	if o == nil {
		return sp
	}
	if l := o.Log(); l.Enabled(LevelDebug) {
		l.Debug("span begin", append([]any{"span", name}, kv...)...)
	}
	if sp == nil {
		sp = &TraceSpan{name: name, start: time.Now()}
	}
	sp.o = o
	return sp
}

// End completes the span. A phase span records its elapsed seconds into
// the histogram "span." + name + ".seconds" and logs a debug end event
// with kv. A traced span's record lands in the ring and in its trace's
// accumulator; ending a root span finalizes the trace through the tail
// sampler. Idempotent and nil-safe. Returns the elapsed time.
func (sp *TraceSpan) End(kv ...any) time.Duration {
	if sp == nil || sp.ended.Swap(true) {
		return 0
	}
	d := time.Since(sp.start)
	if o := sp.o; o != nil {
		o.Histogram("span."+sp.name+".seconds", nil).Observe(d.Seconds())
		if l := o.Log(); l.Enabled(LevelDebug) {
			l.Debug("span end", append([]any{"span", sp.name, "seconds", d.Seconds()}, kv...)...)
		}
	}
	if sp.tr == nil {
		return d
	}
	rec := SpanRecord{
		Trace: sp.trace, Span: sp.id, Parent: sp.parent, Name: sp.name,
		Start: sp.start.UnixNano(), Dur: int64(d),
	}
	t := sp.tr
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.total++
	at, ok := t.active[sp.trace]
	if !ok {
		t.orphaned++
		t.mu.Unlock()
		return d
	}
	if len(at.spans) < t.cfg.MaxSpansPerTrace {
		at.spans = append(at.spans, rec)
	} else {
		at.dropped++
	}
	if rec.Span == at.rootSpan {
		t.finalizeLocked(sp.trace, at, rec)
	}
	t.mu.Unlock()
	return d
}

// Trace returns the span's trace ID (0 on nil) — the handle /tracez
// exports and load reports link by.
func (sp *TraceSpan) Trace() uint64 {
	if sp == nil {
		return 0
	}
	return sp.trace
}

// finalizeLocked closes a trace and offers it to the tail sampler: the
// K slowest completed traces survive, everything faster is forgotten.
// Called with t.mu held.
func (t *Tracer) finalizeLocked(trace uint64, at *activeTrace, root SpanRecord) {
	delete(t.active, trace)
	for i, id := range t.activeOrder {
		if id == trace {
			t.activeOrder = append(t.activeOrder[:i], t.activeOrder[i+1:]...)
			break
		}
	}
	if len(t.slowest) >= t.cfg.Slowest && root.Dur <= t.slowest[len(t.slowest)-1].Dur {
		return // faster than every retained trace
	}
	tr := &TraceRecord{
		Trace: trace, Root: root.Name, Start: root.Start, Dur: root.Dur,
		DroppedSpans: at.dropped,
		Spans:        at.spans, // ownership transfers; the active entry is gone
	}
	// Insert sorted slowest-first, then trim to K.
	i := 0
	for i < len(t.slowest) && t.slowest[i].Dur >= tr.Dur {
		i++
	}
	t.slowest = append(t.slowest, nil)
	copy(t.slowest[i+1:], t.slowest[i:])
	t.slowest[i] = tr
	if len(t.slowest) > t.cfg.Slowest {
		t.slowest = t.slowest[:t.cfg.Slowest]
	}
}

// TraceSnapshot is the tracer's frozen state: the retained slowest
// traces (slowest first), the recent completed spans, and the loss
// accounting. It marshals to JSON and embeds in run snapshots.
type TraceSnapshot struct {
	Slowest        []TraceRecord `json:"slowest,omitempty"`
	Recent         []SpanRecord  `json:"recent,omitempty"`
	ActiveTraces   int           `json:"active_traces"`
	CompletedSpans uint64        `json:"completed_spans"`
	EvictedTraces  uint64        `json:"evicted_traces,omitempty"`
	OrphanedSpans  uint64        `json:"orphaned_spans,omitempty"`
}

// Snapshot freezes the tracer. Nil-safe (returns an empty snapshot).
func (t *Tracer) Snapshot() *TraceSnapshot {
	s := &TraceSnapshot{}
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ActiveTraces = len(t.active)
	s.CompletedSpans = t.total
	s.EvictedTraces = t.evicted
	s.OrphanedSpans = t.orphaned
	s.Slowest = make([]TraceRecord, 0, len(t.slowest))
	for _, tr := range t.slowest {
		cp := *tr
		cp.Spans = append([]SpanRecord(nil), tr.Spans...)
		s.Slowest = append(s.Slowest, cp)
	}
	// Oldest-first walk of the ring, skipping never-written slots.
	n := len(t.ring)
	count := int(t.total)
	if count > n {
		count = n
	}
	s.Recent = make([]SpanRecord, 0, count)
	start := (t.next - count + n) % n
	for i := 0; i < count; i++ {
		s.Recent = append(s.Recent, t.ring[(start+i)%n])
	}
	return s
}

// chromeEvent is one Chrome trace_event record ("X" complete events plus
// "M" process-name metadata), the JSON chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the snapshot's retained traces as Chrome
// trace_event JSON: one "process" row per retained trace, spans as
// complete ("X") events with trace/span/parent identity in args.
func (s *TraceSnapshot) WriteChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, 64)
	for _, tr := range s.Slowest {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: tr.Trace, Tid: 1,
			Args: map[string]any{"name": fmt.Sprintf("trace %d — %s (%.3fms)",
				tr.Trace, tr.Root, float64(tr.Dur)/1e6)},
		})
		for _, sp := range tr.Spans {
			events = append(events, chromeEvent{
				Name: sp.Name, Ph: "X",
				Ts:  float64(sp.Start) / 1e3,
				Dur: float64(sp.Dur) / 1e3,
				Pid: tr.Trace, Tid: 1,
				Args: map[string]any{"span": sp.Span, "parent": sp.Parent},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: chrome trace export: %w", err)
	}
	return nil
}

// spanCtxKey carries the current TraceSpan on a context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp (ctx unchanged for a nil
// span), so child phases deeper in the call chain can attach to it.
func ContextWithSpan(ctx context.Context, sp *TraceSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil. The nil
// result is safe to use directly — every TraceSpan method tolerates it.
func SpanFromContext(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return sp
}

// StartTraceSpan opens a child of the context's current span and returns
// a context carrying the child. With no span on ctx (tracing off) it
// returns (ctx, nil) at zero cost — the no-trace fast path of every
// instrumented call site.
func StartTraceSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

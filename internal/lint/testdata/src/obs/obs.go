// Package obs is a miniature stand-in for the real internal/obs: its base
// name is "obs", which makes it an observation-exempt package for
// determtaint — values it consumes or produces never feed optimization.
package obs

import "time"

type Histogram struct{ n int }

func (h *Histogram) Observe(v float64)         { h.n++ }
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }
func (h *Histogram) Count() int                { return h.n }

type Logger struct{}

func (l *Logger) Info(msg string, kv ...interface{}) {}

// StartedAt returns a wall-clock value; determtaint must treat it as
// clean for callers because it comes from an observation package.
func StartedAt() time.Time { return time.Now() }

// TraceSpan mirrors the real tracing API's span: spanend recognizes the
// named type (in a package named "obs") plus the Start* producer naming
// convention.
type TraceSpan struct{ name string }

func (sp *TraceSpan) End(kv ...interface{}) time.Duration { return 0 }
func (sp *TraceSpan) StartChild(name string) *TraceSpan   { return &TraceSpan{name: name} }
func (sp *TraceSpan) Trace() uint64                       { return 0 }

// Obs mirrors the phase-span constructor: StartSpan returns a TraceSpan
// that also reports to the Obs.
type Obs struct{}

func (o *Obs) StartSpan(ctx spanCtx, name string, kv ...interface{}) *TraceSpan {
	return &TraceSpan{name: name}
}

type Tracer struct{}

func (t *Tracer) StartRoot(name string) *TraceSpan { return &TraceSpan{name: name} }

type spanCtx interface{}

// StartTraceSpan mirrors the tuple-returning producer.
func StartTraceSpan(ctx spanCtx, name string) (spanCtx, *TraceSpan) {
	return ctx, &TraceSpan{name: name}
}

// SpanFromContext is retrieval, not production: the caller does not own
// the result's End, and spanend must not track it.
func SpanFromContext(ctx spanCtx) *TraceSpan { return nil }

// ContextWithSpan is a handoff sink for escape tests.
func ContextWithSpan(ctx spanCtx, sp *TraceSpan) spanCtx { return ctx }

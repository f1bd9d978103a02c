// Package spanend is the golden input for the spanend analyzer.
package spanend

import "obs"

type job struct {
	root  *obs.TraceSpan
	qwait *obs.TraceSpan
}

// Bad: the producer result is unreachable — nobody can ever End it.
func dropped(t *obs.Tracer) {
	t.StartRoot("serve.job") // want `span from t.StartRoot is dropped`
}

// Bad: bound to blank, same hole.
func blank(t *obs.Tracer) {
	_ = t.StartRoot("serve.job") // want `span from t.StartRoot is bound to _`
}

// Bad: the tuple producer's span result is discarded.
func blankTuple(ctx interface{}) interface{} {
	ctx2, _ := obs.StartTraceSpan(ctx, "phase") // want `span from obs.StartTraceSpan is bound to _`
	return ctx2
}

// Bad: started, assigned, then forgotten.
func forgotten(t *obs.Tracer) {
	sp := t.StartRoot("serve.job") // want `span sp is started but never ended`
	_ = sp
}

// Bad: spawning children is a use, but it neither ends the parent nor
// hands it off — the parent still leaks.
func parentLeaks(t *obs.Tracer) {
	root := t.StartRoot("serve.job") // want `span root is started but never ended`
	c := root.StartChild("phase")
	c.End()
}

// Good: the straightforward start/End pair.
func paired(t *obs.Tracer) {
	sp := t.StartRoot("serve.job")
	sp.End()
}

// Good: deferred End, including from inside a closure.
func deferred(t *obs.Tracer) {
	sp := t.StartRoot("serve.job")
	defer sp.End()
	child := sp.StartChild("phase")
	defer func() { child.End() }()
}

// Good: the tuple producer with both results kept and the span ended.
func tuple(ctx interface{}) interface{} {
	ctx2, sp := obs.StartTraceSpan(ctx, "phase")
	sp.End()
	return ctx2
}

// Good: ownership hands off through a call — the cross-goroutine
// queue-wait pattern, where the claimer Ends the span.
func handoffCall(ctx interface{}, t *obs.Tracer) interface{} {
	sp := t.StartRoot("serve.job")
	return obs.ContextWithSpan(ctx, sp)
}

// Good: escape into a struct field at birth; the worker that claims the
// job owns the End.
func handoffField(j *job, t *obs.Tracer) {
	j.root = t.StartRoot("serve.job")
	j.qwait = j.root.StartChild("queue.wait")
}

// Good: returned spans are the caller's to end.
func handoffReturn(t *obs.Tracer) *obs.TraceSpan {
	return t.StartRoot("serve.job")
}

// Good: retrieval is not production — SpanFromContext's result is not
// owned here, so never ending it is fine.
func retrieved(ctx interface{}) {
	psp := obs.SpanFromContext(ctx)
	c := psp.StartChild("phase")
	c.End()
}

// Good: a method value visibly reaches End.
func methodValue(t *obs.Tracer, run func(done func() interface{})) {
	sp := t.StartRoot("serve.job")
	run(func() interface{} { return sp.End() })
}

// Bad: a phase span that is never ended records no histogram and leaves
// a hole in the trace.
func phaseUnended(o *obs.Obs, ctx interface{}) {
	sp := o.StartSpan(ctx, "core.annotate", "circuit", "c17") // want `span sp is started but never ended`
	_ = sp
}

// Good: an ended phase span, with fields on both ends.
func phaseEnded(o *obs.Obs, ctx interface{}) {
	sp := o.StartSpan(ctx, "core.optimize", "method", "evolution")
	sp.End("modules", 3)
}

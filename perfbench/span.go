package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one synthesis or one request
// share a Trace; Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (0 = a new trace) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	trace := id
	if parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	return r.spans[id-1].Dur()
}

// add records a span from timestamps taken elsewhere (the serve client
// stamps its requests as they happen and turns them into spans after
// the load phase, so tracing adds nothing to the measured path).
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	trace := id
	if parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Overlapping children (parallel work) are
// counted once, and a child's stretch outside the parent is ignored.
func selfTime(parent Span, spans []Span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != parent.ID || s.ID == parent.ID {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return time.Duration(parent.End - parent.Start - covered)
}

// writeSpans writes every span, with each span's self time, as JSON.
func writeSpans(path string, spans []Span) error {
	type out struct {
		Span
		SelfNS int64 `json:"self_ns"`
	}
	byParent := map[int][]Span{}
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{Span: s, SelfNS: selfTime(s, byParent[s.ID]).Nanoseconds()}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

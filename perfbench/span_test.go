package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	root := Span{ID: 1, Start: 0, End: 100}
	spans := []Span{
		root,
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 2, Start: 12, End: 28},  // grandchild: already inside span 2
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 6, Parent: 1, Start: 60, End: 60},  // empty
	}
	if got, want := selfTime(root, spans), time.Duration(100-40-10); got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(spans[1], spans); got != 20-16 {
		t.Errorf("child self time = %v, want 4", got)
	}
	leaf := spans[3]
	if got := selfTime(leaf, spans); got != leaf.Dur() {
		t.Errorf("leaf self time = %v, want its duration %v", got, leaf.Dur())
	}
}

func TestRecorderNestsTraces(t *testing.T) {
	r := newRecorder()
	a := r.begin("a", 0)
	b := r.begin("b", a)
	r.end(b)
	r.end(a)
	c := r.begin("c", 0)
	r.end(c)
	s := r.snapshot()
	if s[b-1].Trace != s[a-1].Trace || s[b-1].Parent != a {
		t.Errorf("child span not in its parent's trace: %+v", s[b-1])
	}
	if s[c-1].Trace == s[a-1].Trace {
		t.Errorf("new root joined an old trace: %+v", s[c-1])
	}
	if s[a-1].End < s[b-1].End || s[b-1].Start < s[a-1].Start {
		t.Errorf("child outside parent: %+v in %+v", s[b-1], s[a-1])
	}
}

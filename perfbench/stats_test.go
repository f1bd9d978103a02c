package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile, capped at maxQ, with at
// least ten samples beyond it; below twenty samples it is the median.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		maxQ float64
		q    float64
	}{
		{5, 0.9, 0.5},
		{19, 0.9, 0.5},
		{20, 0.9, 0.5},
		{99, 0.9, 0.5},
		{100, 0.9, 0.9},
		{999, 0.999, 0.9},
		{1000, 0.999, 0.99},
		{10000, 0.999, 0.999},
		{10000, 0.9, 0.9},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, q, n := tail(xs, c.maxQ)
		if q != c.q || n != c.n {
			t.Errorf("n=%d maxQ=%v: percentile %v over %d, want %v over %d", c.n, c.maxQ, q, n, c.q, c.n)
		}
		if beyond := float64(c.n) * (1 - q); q > 0.5 && beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: p%v has %v samples beyond it", c.n, 100*q, beyond)
		}
		if want := quantile(xs, q); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
}

func TestLatenessFromDueTime(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms}
	sent := []time.Duration{0, 15 * ms, 18 * ms} // on time, 5 ms late, early
	got := lateness(due, sent)
	want := []float64{0, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// A ratio's base is explicit: an empty base reads 0, not NaN or Inf.
func TestRatioBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	l := &layerRun{s: map[string][]float64{}, accepted: 30, applied: 120, singletons: 5, starts: 20}
	res := newResult()
	l.rec = newRecorder()
	l.finish(res)
	if got := res.values["evolution.accept_ratio"]; got != 0.25 {
		t.Errorf("accept ratio = %v, want accepted/applied = 0.25", got)
	}
	if got := res.values["standard.singleton_share"]; got != 0.25 {
		t.Errorf("singleton share = %v, want singletons/start modules = 0.25", got)
	}
	if got := res.values["core.trace_overhead_pct"]; got != 0 {
		t.Errorf("trace overhead without an untraced base = %v, want 0", got)
	}
}

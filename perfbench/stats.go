package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read from fewer is one or two outliers, not a percentile.
const minBeyond = 10

// quantile returns the q-th quantile (0..1) of xs by linear
// interpolation between closest ranks (the "inclusive" rule of Python's
// statistics.quantiles and of numpy's default). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail may be reported at, highest
// first; p50 is the floor every sample set can report.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tail applies the reporting rule for a timing tail: the highest
// percentile, no higher than maxQ, that has at least minBeyond samples
// above it. With too few samples for any tail the median is reported.
// It returns the value, the percentile used and the sample count.
func tail(xs []float64, maxQ float64) (v, q float64, n int) {
	q = tailQuantile(len(xs), maxQ)
	return quantile(xs, q), q, len(xs)
}

// tailQuantile is the percentile tail reports for n samples.
func tailQuantile(n int, maxQ float64) float64 {
	for _, q := range tailLadder {
		if q <= maxQ && float64(n)*(1-q) >= minBeyond-1e-9 { // 100·(1-0.9) is 9.999…
			return q
		}
	}
	return 0.5
}

// ratio is num/den with an explicit base: a zero denominator means the
// ratio is undefined for this run, reported as 0 rather than NaN/Inf
// (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lateness is how far behind schedule each arrival was sent: the send
// time minus its due time, clamped at zero (an early send is on time).
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = float64(d) / float64(time.Millisecond)
		}
	}
	return out
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

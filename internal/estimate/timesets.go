// Package estimate implements the paper's logic-level estimators (§3):
// the transition-time sets and maximum transient current of a gate group
// (§3.1), the nominal and BIC-degraded circuit delays on the unit-delay
// time grid (§3.2), the separation parameter of the interconnection cost
// (§3.3), and the test-application-time overhead (§3.4). These estimators
// trade accuracy for speed so the evolution algorithm can evaluate a large
// number of partitions: they are deliberately pessimistic (all gates at
// equal path depth are assumed to switch simultaneously) but computable in
// time linear in the circuit size.
package estimate

import (
	"math/bits"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
)

// bitset is a fixed-capacity set of small integers (transition times).
type bitset []uint64

func newBitset(capacity int) bitset {
	return make(bitset, (capacity+64)/64)
}

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }
func (b bitset) orShift1(src bitset) {
	// b |= src << 1, the "transition arrives one stage later" transfer.
	var carry uint64
	for i := range src {
		b[i] |= src[i]<<1 | carry
		carry = src[i] >> 63
	}
	if carry != 0 && len(b) > len(src) {
		b[len(src)] |= carry
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// TimeSets holds, for every gate g, the set of possible transition times
// {t₁ⁱ, ..., t_Lᵢⁱ} of §3.1: the lengths of all input→g paths on the
// unit-delay grid. A gate can switch only at times in its set, and the
// pessimistic simultaneity assumption is that all gates sharing a time
// actually do switch together.
type TimeSets struct {
	c     *circuit.Circuit
	depth int
	sets  []bitset
}

// TransitionTimes computes the transition-time sets of all gates by a
// single topological pass: T(input) = {0}, T(g) = ⋃_{f∈fanin(g)} T(f)+1.
func TransitionTimes(c *circuit.Circuit) *TimeSets {
	depth := c.Depth()
	ts := &TimeSets{c: c, depth: depth, sets: make([]bitset, c.NumGates())}
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		b := newBitset(depth + 1)
		if g.Type == circuit.Input {
			b.set(0)
		} else {
			for _, f := range g.Fanin {
				b.orShift1(ts.sets[f])
			}
		}
		ts.sets[id] = b
	}
	return ts
}

// Depth returns the time-grid extent (the circuit depth).
func (ts *TimeSets) Depth() int { return ts.depth }

// Has reports whether gate can have a transition at grid time t.
func (ts *TimeSets) Has(gate, t int) bool {
	if t < 0 || t > ts.depth {
		return false
	}
	return ts.sets[gate].has(t)
}

// Times returns the ascending list of possible transition times of gate.
func (ts *TimeSets) Times(gate int) []int {
	var out []int
	for t := 0; t <= ts.depth; t++ {
		if ts.sets[gate].has(t) {
			out = append(out, t)
		}
	}
	return out
}

// NumTimes returns |T(gate)|, the Lᵢ of §3.1.
func (ts *TimeSets) NumTimes(gate int) int { return ts.sets[gate].count() }

// ActivityProfile returns n(t) for a group of gates: the number of group
// members that can switch at each grid time t — the activity term of the
// §3.2 delay degradation model, and the profile whose current-weighted
// maximum is îDD,max.
func (ts *TimeSets) ActivityProfile(gates []int) []int {
	//lint:ignore hotalloc the profile is retained in the returned Module estimate, which the partition caches per module
	prof := make([]int, ts.depth+1)
	for _, g := range gates {
		for wi, w := range ts.sets[g] {
			for ; w != 0; w &= w - 1 {
				prof[wi*64+bits.TrailingZeros64(w)]++
			}
		}
	}
	return prof
}

// MaxCurrent returns the §3.1 upper bound on the maximum transient current
// of a gate group:
//
//	îDD,max = max_t Σ_{g : t ∈ T(g)} îDD,max(g)
//
// i.e. the worst grid instant, assuming every gate that can switch at that
// instant does and their peak currents add. The estimate is pessimistic
// (blocked paths are not analysed) but computable in one pass.
func (ts *TimeSets) MaxCurrent(a *celllib.Annotated, gates []int) float64 {
	return ts.maxCurrentScratch(a, gates, make([]float64, ts.depth+1))
}

// maxCurrentScratch is MaxCurrent against a caller-provided profile
// buffer of length depth+1 (any contents; it is zeroed here). It visits
// only the set bits of each time set; the gates still add into every
// prof[t] in the order given, so the float sums do not depend on how the
// bits are found.
func (ts *TimeSets) maxCurrentScratch(a *celllib.Annotated, gates []int, prof []float64) float64 {
	prof = prof[:ts.depth+1]
	for t := range prof {
		prof[t] = 0
	}
	for _, g := range gates {
		peak := a.Peak[g]
		for wi, w := range ts.sets[g] {
			for ; w != 0; w &= w - 1 {
				prof[wi*64+bits.TrailingZeros64(w)] += peak
			}
		}
	}
	var max float64
	for _, v := range prof {
		if v > max {
			max = v
		}
	}
	return max
}

// MaxActivityOver returns the largest group activity n(t) over the
// transition times of one gate — the worst simultaneity the gate can see
// while it is itself switching.
func (ts *TimeSets) MaxActivityOver(gate int, profile []int) int {
	b := ts.sets[gate]
	max := 0
	for t := 0; t <= ts.depth; t++ {
		if b.has(t) && profile[t] > max {
			max = profile[t]
		}
	}
	if max == 0 {
		max = 1
	}
	return max
}

// Package standard implements the non-evolutionary partitioning pieces of
// the paper: the chain-based start-partition constructor of §4.2, the
// average-parameter module-size estimator used to seed it, and the greedy
// "standard partitioning" of §5 that serves as the baseline the evolution
// algorithm is compared against in Table 1.
package standard

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

// EstimateModuleSize implements the §4.2 pre-pass: "first the appropriate
// module size is estimated ... by evaluating c₁ and c₂ by average numbers
// for the required parameters and by abstraction from structural
// information". It scans candidate sizes with a fully averaged model —
// every gate carries the mean peak current, leakage, resistance and
// capacitance, and a module of size s switches with the circuit's mean
// simultaneity — and returns the size minimising the averaged weighted
// cost, never exceeding the largest size the discriminability constraint
// d(M) ≥ d allows.
func EstimateModuleSize(e *estimate.Estimator, w partition.Weights, cons partition.Constraints) int {
	c := e.A.Circuit
	logic := c.LogicGates()
	n := len(logic)
	if n == 0 {
		return 1
	}
	var peakSum, leakSum, rgSum, coutSum, delaySum float64
	for _, g := range logic {
		peakSum += e.A.Peak[g]
		leakSum += e.A.LeakMax[g]
		rgSum += e.A.Rg[g]
		coutSum += e.A.Cout[g]
		delaySum += e.A.Delay[g]
	}
	fn := float64(n)
	peakAvg, leakAvg := peakSum/fn, leakSum/fn
	rgAvg, coutAvg, delayAvg := rgSum/fn, coutSum/fn, delaySum/fn

	// Mean simultaneity: what fraction of a group switches at the worst
	// grid instant, estimated from the whole circuit's activity profile.
	prof := e.TS.ActivityProfile(logic)
	maxAct := 0
	for _, v := range prof {
		if v > maxAct {
			maxAct = v
		}
	}
	phi := float64(maxAct) / fn
	if phi <= 0 {
		phi = 1 / fn
	}

	// The discriminability constraint caps the module size:
	// s·leakAvg ≤ IDDQ,th / d.
	sMax := int(e.P.IDDQth / (cons.MinDiscriminability * leakAvg))
	if sMax < 1 {
		sMax = 1
	}
	if sMax > n {
		sMax = n
	}

	best, bestCost := 1, math.Inf(1)
	for s := 1; s <= sMax; s++ {
		fs := float64(s)
		k := math.Ceil(fn / fs)
		iMax := phi * fs * peakAvg // averaged îDD,max of one module
		if iMax <= 0 {
			continue
		}
		rs := e.P.RailLimit / iMax
		area := k * (e.P.AreaA0 + e.P.AreaA1/rs)
		cs := e.P.CsSensor + fs*coutAvg
		nAct := phi * fs
		if nAct < 1 {
			nAct = 1
		}
		damp := 1 - math.Exp(-delayAvg/(rs*cs))
		c2 := nAct * rs / rgAvg * damp // averaged per-stage degradation ≈ overhead
		cost := w.Area*math.Log1p(area) + w.Delay*c2 + w.Modules*k
		if cost < bestCost {
			bestCost = cost
			best = s
		}
	}
	return best
}

// ChainStartPartition builds one §4.2 start partition: beginning at gates
// close to the primary inputs, chains are grown towards a primary output.
// A chain stops when it reaches a primary output, no free successor
// remains, or the maximum module size is reached. Because the evolution
// operators can merge but never create modules, a module keeps absorbing
// fresh chains (restarted from a free gate adjacent to it) until it
// reaches the target size, so the start population already has the module
// granularity the size estimator asked for. Chains are formed while free
// gates remain; different rng streams produce the different start
// partitions of the start population.
func ChainStartPartition(c *circuit.Circuit, maxModuleSize int, rng *rand.Rand) [][]int {
	if maxModuleSize < 1 {
		maxModuleSize = 1
	}
	levels := c.Levels()
	order := c.LogicGates()
	free := make([]bool, c.NumGates())
	for _, g := range order {
		free[g] = true
	}
	// Chain starts are "as near to a primary input as possible".
	sort.Slice(order, func(i, j int) bool {
		if levels[order[i]] != levels[order[j]] {
			return levels[order[i]] < levels[order[j]]
		}
		return order[i] < order[j]
	})

	front := frontier{on: make([]bool, c.NumGates())}
	var nexts []int
	var groups [][]int
	for _, start := range order {
		if !free[start] {
			continue
		}
		module := []int{start}
		free[start] = false
		front.reset()
		front.join(c, start, free)
		cur := start
		for len(module) < maxModuleSize {
			nexts = nexts[:0]
			if !c.IsOutput(cur) {
				for _, f := range c.Gates[cur].Fanout {
					if free[f] {
						nexts = append(nexts, f)
					}
				}
			}
			cands := nexts
			if len(cands) == 0 {
				// Chain ended (primary output or no free successor):
				// restart from a free gate adjacent to the module so the
				// module stays connected.
				cands = front.gates
				if len(cands) == 0 {
					break
				}
			}
			cur = cands[rng.Intn(len(cands))]
			free[cur] = false
			module = append(module, cur)
			front.join(c, cur, free)
		}
		sort.Ints(module)
		groups = append(groups, module)
	}
	return groups
}

// frontier is the set of free gates directly connected to the module
// being grown, kept ascending as gates join so that a chain restart draws
// from it without a rescan or a sort.
type frontier struct {
	gates []int  // ascending
	on    []bool // per gate ID: in gates
}

// join updates the frontier for gate g having joined the module (and so
// no longer being free): g leaves it, g's free neighbours enter it.
func (f *frontier) join(c *circuit.Circuit, g int, free []bool) {
	if f.on[g] {
		i, _ := slices.BinarySearch(f.gates, g)
		f.gates = slices.Delete(f.gates, i, i+1)
		f.on[g] = false
	}
	for _, nb := range c.Neighbors(g) {
		if free[nb] && !f.on[nb] {
			f.on[nb] = true
			i, _ := slices.BinarySearch(f.gates, nb)
			f.gates = slices.Insert(f.gates, i, nb)
		}
	}
}

// reset empties the frontier for the next module.
func (f *frontier) reset() {
	for _, g := range f.gates {
		f.on[g] = false
	}
	f.gates = f.gates[:0]
}

// StandardPartition implements the §5 baseline: "the process starts with
// a gate as near to a primary input as possible. New gates are added
// until a specified size of the module is generated. The new gate added
// is that gate whose path length to all the gates already clustered gives
// a minimum sum. If there are multiple choices, a gate of this set is
// selected such that the path lengths to all the gates not yet clustered
// give a maximum sum." Path lengths are undirected hop distances capped
// at rho (unreachable pairs count rho), matching the separation parameter.
func StandardPartition(c *circuit.Circuit, moduleSize, rho int) [][]int {
	if moduleSize < 1 {
		moduleSize = 1
	}
	if rho < 1 {
		rho = 1
	}
	levels := c.Levels()
	logic := c.LogicGates()
	free := make(map[int]bool, len(logic))
	for _, g := range logic {
		free[g] = true
	}

	// distTo returns hop distances from g capped at rho.
	distTo := func(g int) map[int]int { return c.BoundedDistances(g, rho) }
	capDist := func(d map[int]int, to int) int {
		if v, ok := d[to]; ok {
			return v
		}
		return rho
	}

	var groups [][]int
	for len(free) > 0 {
		// Start gate: free gate nearest a primary input (lowest level,
		// lowest ID breaks ties deterministically).
		start := -1
		for _, g := range logic {
			if !free[g] {
				continue
			}
			if start == -1 || levels[g] < levels[start] || (levels[g] == levels[start] && g < start) {
				start = g
			}
		}
		module := []int{start}
		delete(free, start)
		// distSum[g] accumulates Σ over clustered gates of dist(cl, g).
		distSum := make(map[int]float64, len(free))
		addDistances := func(from int) {
			d := distTo(from)
			for g := range free {
				distSum[g] += float64(capDist(d, g))
			}
		}
		addDistances(start)

		for len(module) < moduleSize && len(free) > 0 {
			// Minimum summed path length to the cluster.
			bestSum := math.Inf(1)
			var tied []int
			for g := range free {
				s := distSum[g]
				switch {
				case s < bestSum-1e-12:
					bestSum = s
					tied = tied[:0]
					tied = append(tied, g)
				case math.Abs(s-bestSum) <= 1e-12:
					tied = append(tied, g)
				}
			}
			sort.Ints(tied)
			next := tied[0]
			if len(tied) > 1 {
				// Tie-break: maximum summed path length to the gates not
				// yet clustered.
				bestOut := math.Inf(-1)
				for _, g := range tied {
					d := distTo(g)
					var out float64
					for h := range free {
						if h == g {
							continue
						}
						out += float64(capDist(d, h))
					}
					if out > bestOut {
						bestOut = out
						next = g
					}
				}
			}
			module = append(module, next)
			delete(free, next)
			delete(distSum, next)
			addDistances(next)
		}
		sort.Ints(module)
		groups = append(groups, module)
	}
	return groups
}

// StandardPartitionK runs StandardPartition with the module size that
// yields (approximately) k modules — Table 1 compares the methods at the
// module counts found by the evolution algorithm ("in our case we take
// the numbers obtained by the evolution based algorithm").
func StandardPartitionK(c *circuit.Circuit, k, rho int) [][]int {
	n := c.NumLogicGates()
	if k < 1 {
		k = 1
	}
	size := (n + k - 1) / k
	return StandardPartition(c, size, rho)
}

// Package estimatetest holds test-only reference implementations of the
// estimator's kernels, kept as oracles for the optimized code in package
// estimate. Only tests import it.
package estimatetest

import (
	"fmt"

	"iddqsyn/internal/circuit"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/estimate"
)

// LongestPath is the per-gate longest-path pass that BICDelay and
// NominalDelay replaced: it walks the whole topological order over gate
// IDs, primary inputs included, and evaluates every gate's degradation
// δ(g, t) on the spot. With mods == nil it returns the nominal delay D,
// otherwise D_BIC, where a gate whose module entry is missing or nil
// keeps its nominal delay. It must agree with the estimator bit for bit.
// The error is the degradation model's, for inputs it rejects.
func LongestPath(e *estimate.Estimator, moduleOf []int, mods []*estimate.Module) (float64, error) {
	c := e.A.Circuit
	arrival := make([]float64, c.NumGates())
	levels := c.Levels()
	var worst float64
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			continue
		}
		var in float64
		for _, f := range g.Fanin {
			if arrival[f] > in {
				in = arrival[f]
			}
		}
		d := e.A.Delay[id]
		if mods != nil {
			if mi := moduleOf[id]; mi >= 0 && mi < len(mods) && mods[mi] != nil {
				m := mods[mi]
				n := 1
				if t := levels[id]; t < len(m.Activity) && m.Activity[t] > 1 {
					n = m.Activity[t]
				}
				f, err := electrical.DelayDegradation(n, m.Rs, e.A.Rg[id], e.A.Delay[id], m.Cs)
				if err != nil {
					return 0, fmt.Errorf("estimatetest: gate %s: %w", g.Name, err)
				}
				d *= f
			}
		}
		arrival[id] = in + d
		if arrival[id] > worst {
			worst = arrival[id]
		}
	}
	return worst, nil
}

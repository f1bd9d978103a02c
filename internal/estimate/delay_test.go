package estimate_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/estimate/estimatetest"
	"iddqsyn/internal/standard"
)

// randomAssignment groups the logic gates of c into k modules: scattered
// at random, or as one chain start partition (connected modules) when
// chain is set. It returns the groups and the gate → module map, -1 for
// primary inputs.
func randomAssignment(c *circuit.Circuit, k int, chain bool, rng *rand.Rand) ([][]int, []int) {
	var groups [][]int
	if chain {
		groups = standard.ChainStartPartition(c, max(1, c.NumLogicGates()/k), rng)
	} else {
		groups = make([][]int, k)
		for _, g := range c.LogicGates() {
			mi := rng.Intn(k)
			groups[mi] = append(groups[mi], g)
		}
	}
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = -1
	}
	for mi, grp := range groups {
		for _, g := range grp {
			moduleOf[g] = mi
		}
	}
	return groups, moduleOf
}

// TestPathDelayMatchesReference checks the flat arrival kernel against
// the per-gate longest-path pass it replaced: the nominal delay and D_BIC
// must agree bit for bit, on scattered and chain-grown partitions whose
// module list has nil entries (those gates keep their nominal delay) or
// stops short of the highest module index.
func TestPathDelayMatchesReference(t *testing.T) {
	rand2k, err := circuits.RandomLogic(circuits.Spec{
		Name: "rand2k", Inputs: 120, Outputs: 60, Gates: 2000, Depth: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{
		circuits.C17(), circuits.MustISCAS85Like("c432"), circuits.MustISCAS85Like("c1908"),
		circuits.MustISCAS85Like("c6288"), rand2k,
	} {
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		e := estimate.New(a, estimate.DefaultParams())
		want, err := estimatetest.LongestPath(e, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.NominalDelay(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: NominalDelay = %x, reference %x", c.Name, got, want)
		}
		rng := rand.New(rand.NewSource(int64(c.NumGates())))
		for trial := 0; trial < 8; trial++ {
			k := 1 + rng.Intn(min(40, c.NumLogicGates()))
			groups, moduleOf := randomAssignment(c, k, trial%2 == 1, rng)
			mods := make([]*estimate.Module, len(groups))
			for mi, grp := range groups {
				if trial == 0 || rng.Intn(4) > 0 {
					mods[mi] = e.EvalModule(grp)
				}
			}
			if trial%4 == 3 {
				mods = mods[:len(mods)/2]
			}
			want, err := estimatetest.LongestPath(e, moduleOf, mods)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.BICDelay(moduleOf, mods); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s trial %d (%d modules): BICDelay = %x, reference %x", c.Name, trial, len(groups), got, want)
			}
			if trial == 0 && want <= e.NominalDelay() {
				t.Errorf("%s: fully degraded D_BIC %g does not exceed D %g", c.Name, want, e.NominalDelay())
			}
		}
	}
}

// TestNominalDelayThroughEveryGate makes each logic gate in turn far
// slower than the rest of the circuit, so the critical path runs through
// it and on through its whole fanout cone: a fanin edge the arrival
// kernel lost anywhere on that path changes the delay, even where it
// never carries the critical path of the unmodified circuit.
func TestNominalDelayThroughEveryGate(t *testing.T) {
	for _, c := range []*circuit.Circuit{circuits.C17(), circuits.MustISCAS85Like("c432")} {
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range c.LogicGates() {
			slow := *a
			slow.Delay = slices.Clone(a.Delay)
			slow.Delay[g] *= 1e6
			e := estimate.New(&slow, estimate.DefaultParams())
			want, err := estimatetest.LongestPath(e, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.NominalDelay(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, gate %s slowed: NominalDelay = %x, reference %x", c.Name, c.Gates[g].Name, got, want)
			}
		}
	}
}

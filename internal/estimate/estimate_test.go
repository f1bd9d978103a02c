package estimate

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"errors"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/electrical"
)

func annotatedC17(t *testing.T) *celllib.Annotated {
	t.Helper()
	a, err := celllib.Annotate(circuits.C17(), celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func gid(t *testing.T, c *circuit.Circuit, name string) int {
	t.Helper()
	g, ok := c.GateByName(name)
	if !ok {
		t.Fatalf("gate %s missing", name)
	}
	return g.ID
}

func TestTransitionTimesC17(t *testing.T) {
	c := circuits.C17()
	ts := TransitionTimes(c)
	// Inputs transition only at t=0.
	for _, id := range c.Inputs {
		if got := ts.Times(id); len(got) != 1 || got[0] != 0 {
			t.Errorf("input %s times = %v, want [0]", c.Gates[id].Name, got)
		}
	}
	// g1, g2 at t=1; g3, g4 at t=2; g5 at {2,3}; g6 at {2,3}.
	want := map[string][]int{
		"g1": {1}, "g2": {1}, "g3": {2}, "g4": {2}, "g5": {2, 3}, "g6": {3},
	}
	// g5 = NAND(g1, g3): paths I1->g1->g5 (len 2) and I*->g2->g3->g5 (3),
	// also I2->g3->g5 (2). g6 = NAND(g3, g4): I2->g3->g6 (2)? g3 inputs:
	// I2 (len 1) and g2 (len 2), so T(g3) = {2, 3}? No: T(g3) =
	// (T(I2)+1) ∪ (T(g2)+1) = {1} ∪ {2} = {1,2}.
	_ = want
	g3 := gid(t, c, "g3")
	if got := ts.Times(g3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("T(g3) = %v, want [1 2]", got)
	}
	g5 := gid(t, c, "g5")
	// T(g5) = (T(g1)+1) ∪ (T(g3)+1) = {2} ∪ {2,3} = {2,3}.
	if got := ts.Times(g5); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("T(g5) = %v, want [2 3]", got)
	}
	if ts.NumTimes(g5) != 2 {
		t.Errorf("NumTimes(g5) = %d, want 2", ts.NumTimes(g5))
	}
	if !ts.Has(g5, 3) || ts.Has(g5, 1) || ts.Has(g5, -1) || ts.Has(g5, 99) {
		t.Error("Has() misbehaves")
	}
}

func TestTransitionTimesMatchLevelsUpperBound(t *testing.T) {
	// Every gate's latest transition time equals its level (longest path),
	// and its earliest is at least 1 for logic gates.
	c := circuits.MustISCAS85Like("c432")
	ts := TransitionTimes(c)
	lv := c.Levels()
	for _, g := range c.LogicGates() {
		times := ts.Times(g)
		if len(times) == 0 {
			t.Fatalf("gate %d has no transition times", g)
		}
		if times[len(times)-1] != lv[g] {
			t.Errorf("gate %d latest time %d != level %d", g, times[len(times)-1], lv[g])
		}
		if times[0] < 1 {
			t.Errorf("gate %d has transition time %d < 1", g, times[0])
		}
	}
}

func TestActivityProfileC17(t *testing.T) {
	c := circuits.C17()
	ts := TransitionTimes(c)
	gates := c.LogicGates()
	prof := ts.ActivityProfile(gates)
	// T(g1)=T(g2)={1}; T(g3)={1,2} (I2 path and g2 path);
	// T(g4)={1,2} (I5 path and g2 path); T(g5)=T(g6)={2,3}.
	// n(1): g1,g2,g3,g4 = 4. n(2): g3,g4,g5,g6 = 4. n(3): g5,g6 = 2.
	want := []int{0, 4, 4, 2}
	if len(prof) != len(want) {
		t.Fatalf("profile length %d, want %d", len(prof), len(want))
	}
	for i := range want {
		if prof[i] != want[i] {
			t.Errorf("n(%d) = %d, want %d (profile %v)", i, prof[i], want[i], prof)
		}
	}
}

func TestMaxCurrentC17(t *testing.T) {
	a := annotatedC17(t)
	ts := TransitionTimes(a.Circuit)
	gates := a.Circuit.LogicGates()
	// All gates are NAND2 with equal peak: max is at t=2 with 4 gates.
	peak := a.Peak[gates[0]]
	got := ts.MaxCurrent(a, gates)
	if !approx(got, 4*peak, 1e-12) {
		t.Errorf("MaxCurrent = %g, want %g (4 NAND2 peaks)", got, 4*peak)
	}
	// A single gate's module has its own peak.
	if got := ts.MaxCurrent(a, gates[:1]); !approx(got, peak, 1e-12) {
		t.Errorf("single-gate MaxCurrent = %g, want %g", got, peak)
	}
	// Empty group draws nothing.
	if got := ts.MaxCurrent(a, nil); got != 0 {
		t.Errorf("empty MaxCurrent = %g", got)
	}
}

// Property: îDD,max of a union of groups never exceeds the sum and never
// falls below the max of the parts (subadditivity of the estimator).
func TestMaxCurrentSubadditive(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	ts := TransitionTimes(c)
	logic := c.LogicGates()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ga, gb []int
		for _, g := range logic {
			switch rng.Intn(3) {
			case 0:
				ga = append(ga, g)
			case 1:
				gb = append(gb, g)
			}
		}
		union := append(append([]int{}, ga...), gb...)
		iu := ts.MaxCurrent(a, union)
		ia := ts.MaxCurrent(a, ga)
		ib := ts.MaxCurrent(a, gb)
		max := ia
		if ib > max {
			max = ib
		}
		return iu <= ia+ib+1e-15 && iu >= max-1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEvalModule(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	gates := a.Circuit.LogicGates()
	m := e.EvalModule(gates)
	if m.IDDMax <= 0 {
		t.Fatal("IDDMax must be positive")
	}
	if !approx(m.Rs, e.P.RailLimit/m.IDDMax, 1e-12) {
		t.Errorf("Rs = %g, want r*/iDDmax = %g", m.Rs, e.P.RailLimit/m.IDDMax)
	}
	if m.Cs <= e.P.CsSensor {
		t.Error("Cs must include the gate parasitics")
	}
	if !approx(m.Tau, m.Rs*m.Cs, 1e-20) {
		t.Error("Tau != Rs*Cs")
	}
	wantArea, err := electrical.SensorArea(e.P.AreaA0, e.P.AreaA1, m.Rs)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.SensorArea, wantArea, 1e-9) {
		t.Errorf("SensorArea = %g, want %g", m.SensorArea, wantArea)
	}
	if m.LeakND != a.TotalLeakageMax(gates) {
		t.Error("LeakND mismatch")
	}
	if m.Settle <= 0 {
		t.Error("settle time must be positive for a module with real current")
	}
	if m.Separation <= 0 {
		t.Error("separation of a 6-gate module must be positive")
	}
	if len(m.Activity) != e.TS.Depth()+1 {
		t.Error("activity profile length mismatch")
	}
}

func TestEvalModuleEmpty(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	m := e.EvalModule(nil)
	if m.IDDMax != 0 || m.Separation != 0 {
		t.Error("empty module should have zero estimates")
	}
	if m.Discriminability(1e-6) < 1e17 {
		t.Error("empty module discriminates perfectly")
	}
}

func TestDiscriminability(t *testing.T) {
	m := &Module{LeakND: 1e-7}
	if got := m.Discriminability(1e-6); !approx(got, 10, 1e-9) {
		t.Errorf("d = %g, want 10", got)
	}
}

func TestSeparationModuleCliqueVsSpread(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	// Tight cluster: g2 and its direct fanouts g3, g4.
	tight := []int{gid(t, c, "g2"), gid(t, c, "g3"), gid(t, c, "g4")}
	// Spread: g1, g4, g6 — g1 and g4 are far apart.
	spread := []int{gid(t, c, "g1"), gid(t, c, "g4"), gid(t, c, "g6")}
	st := e.SeparationModule(tight)
	ss := e.SeparationModule(spread)
	if st >= ss {
		t.Errorf("separation: tight %d should beat spread %d", st, ss)
	}
	// Hand values: tight pairs (g2,g3)=1, (g2,g4)=1, (g3,g4)=2 -> 4.
	if st != 4 {
		t.Errorf("S(tight) = %d, want 4", st)
	}
	if e.SeparationModule(tight[:1]) != 0 {
		t.Error("single-gate module has zero separation")
	}
}

func TestSeparationCapRho(t *testing.T) {
	// Two gates in disconnected halves must be forced to ρ.
	b := circuit.NewBuilder("two")
	b.AddInput("a").AddInput("b")
	b.AddGate("x", circuit.Not, "a")
	b.AddGate("y", circuit.Not, "b")
	b.MarkOutput("x").MarkOutput("y")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Rho = 7
	e := New(a, p)
	gates := c.LogicGates()
	if got := e.SeparationModule(gates); got != 7 {
		t.Errorf("disconnected pair separation = %d, want ρ = 7", got)
	}
}

// TestSeparationModuleMatchesBruteForce checks the neighbourhood cache
// against the definition of S(M) in §3.3: the sum over all gate pairs of
// the hop distance capped at ρ, where pairs farther apart than ρ (or
// disconnected) count ρ.
func TestSeparationModuleMatchesBruteForce(t *testing.T) {
	rand2k, err := circuits.RandomLogic(circuits.Spec{
		Name: "rand2k", Inputs: 120, Outputs: 60, Gates: 2000, Depth: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{
		circuits.C17(), circuits.MustISCAS85Like("c432"), circuits.MustISCAS85Like("c1908"), rand2k,
	} {
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			t.Fatal(err)
		}
		logic := c.LogicGates()
		for _, rho := range []int{1, 2, 4, 6} {
			p := DefaultParams()
			p.Rho = rho
			e := New(a, p)
			dists := map[int]map[int]int{}
			bruteForce := func(gates []int) int {
				sum := 0
				for i, g := range gates {
					d, ok := dists[g]
					if !ok {
						d = c.BoundedDistances(g, rho)
						dists[g] = d
					}
					for _, h := range gates[i+1:] {
						if dh, ok := d[h]; ok && dh < rho {
							sum += dh
						} else {
							sum += rho
						}
					}
				}
				return sum
			}
			rng := rand.New(rand.NewSource(int64(rho)))
			randomSubset := func(k int) []int {
				gates := make([]int, 0, k)
				for _, i := range rng.Perm(len(logic))[:k] {
					gates = append(gates, logic[i])
				}
				return gates
			}
			subsets := [][]int{nil, logic[:1], logic[:2], randomSubset(2), logic}
			for _, k := range []int{3, 10, 50, 200} {
				if k < len(logic) {
					subsets = append(subsets, randomSubset(k))
				}
			}
			for _, gates := range subsets {
				if got, want := e.SeparationModule(gates), bruteForce(gates); got != want {
					t.Errorf("%s ρ=%d |M|=%d: S(M) = %d, brute force %d", c.Name, rho, len(gates), got, want)
				}
			}
		}
	}
}

func TestNewRejectsRhoAboveMaxRho(t *testing.T) {
	a := annotatedC17(t)
	p := DefaultParams()
	p.Rho = MaxRho
	New(a, p) // the largest ρ whose hop counts fit the cache
	p.Rho = MaxRho + 1
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Rho = 256") {
			t.Errorf("New(ρ = %d) recovered %v, want a panic naming Params.Rho", p.Rho, r)
		}
	}()
	New(a, p)
}

func TestNominalDelayC17(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	// Longest path: 3 NAND2 stages; fanout loading makes gates differ, so
	// check against a direct computation.
	c := a.Circuit
	arrival := make([]float64, c.NumGates())
	var want float64
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
		arrival[id] = in + a.Delay[id]
		if arrival[id] > want {
			want = arrival[id]
		}
	}
	if !approx(e.NominalDelay(), want, 1e-15) {
		t.Errorf("NominalDelay = %g, want %g", e.NominalDelay(), want)
	}
}

func TestBICDelayExceedsNominal(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	gates := c.LogicGates()
	mods := []*Module{e.EvalModule(gates)}
	moduleOf := make([]int, c.NumGates())
	for _, g := range gates {
		moduleOf[g] = 0
	}
	dBIC := e.BICDelay(moduleOf, mods)
	if dBIC <= e.NominalDelay() {
		t.Errorf("D_BIC = %g must exceed D = %g", dBIC, e.NominalDelay())
	}
	ovh := e.DelayOverhead(dBIC)
	if ovh <= 0 || ovh > 1 {
		t.Errorf("delay overhead = %g, want small positive fraction", ovh)
	}
}

func TestFinerPartitionSmallerDegradation(t *testing.T) {
	// Splitting one module into two lowers each module's îDD,max, which
	// raises Rs (less sensor conductance needed)... but the activity per
	// module also halves. Verify at least that per-module currents drop.
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	c := a.Circuit
	gates := c.LogicGates()
	whole := e.EvalModule(gates)
	left := e.EvalModule(gates[:3])
	right := e.EvalModule(gates[3:])
	if left.IDDMax >= whole.IDDMax && right.IDDMax >= whole.IDDMax {
		t.Error("splitting must reduce at least one module's current")
	}
	if left.Rs <= whole.Rs {
		t.Error("a smaller module affords a larger Rs")
	}
}

func TestTestTimeOverhead(t *testing.T) {
	a := annotatedC17(t)
	e := New(a, DefaultParams())
	gates := a.Circuit.LogicGates()
	mods := []*Module{e.EvalModule(gates)}
	moduleOf := make([]int, a.Circuit.NumGates())
	dBIC := e.BICDelay(moduleOf, mods)
	c4 := e.TestTimeOverhead(dBIC, mods)
	c2 := e.DelayOverhead(dBIC)
	if c4 <= c2 {
		t.Errorf("test-time overhead %g must exceed delay overhead %g (settling adds)", c4, c2)
	}
	// nil modules in the slice are tolerated.
	if got := e.TestTimeOverhead(dBIC, []*Module{nil, mods[0]}); !approx(got, c4, 1e-12) {
		t.Error("nil module changed the overhead")
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// evalPanics runs EvalModule and returns the recovered panic value (nil if
// none): the contract between the estimator's numeric guards and the
// optimizer worker pools that convert these panics into errors.
func evalPanics(e *Estimator, gates []int) (r any) {
	defer func() { r = recover() }()
	e.EvalModule(gates)
	return nil
}

// A chaos-poisoned estimate must never leave EvalModule as a number: the
// guards turn it into a panic whose value is an error wrapping both
// chaos-visible context and electrical.ErrNonFinite, so the worker pools
// can classify it after recovery.
func TestChaosPoisonedEstimatePanicsTyped(t *testing.T) {
	for _, site := range []string{chaos.SiteEstimateNaN, chaos.SiteEstimateInf} {
		t.Run(site, func(t *testing.T) {
			a := annotatedC17(t)
			e := New(a, DefaultParams())
			sched, err := chaos.ParseSchedule("seed=1,after=1,sites=" + site)
			if err != nil {
				t.Fatal(err)
			}
			e.SetChaos(chaos.New(sched, nil))
			r := evalPanics(e, a.Circuit.LogicGates())
			if r == nil {
				t.Fatal("poisoned estimate did not panic")
			}
			perr, ok := r.(error)
			if !ok {
				t.Fatalf("panic value %v (%T) is not an error", r, r)
			}
			if !errors.Is(perr, electrical.ErrNonFinite) {
				t.Errorf("panic error %v does not wrap electrical.ErrNonFinite", perr)
			}
			// A second evaluation is clean: the schedule was one-shot.
			if r := evalPanics(e, a.Circuit.LogicGates()); r != nil {
				t.Errorf("one-shot schedule injected twice: %v", r)
			}
		})
	}
}

package estimate

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/obs"
)

// Metric names recorded by an observed estimator (see SetObs). Module
// evaluation is the innermost hot path of every optimizer, so its call
// count and latency distribution are the primary throughput signal of a
// run.
const (
	MetricEvalModuleCalls   = "estimate.evalmodule.calls"
	MetricEvalModuleSeconds = "estimate.evalmodule.seconds"
)

// Params collects the technology- and policy-level constants of the
// estimators. Zero values are invalid; use DefaultParams as a base.
type Params struct {
	RailLimit float64 // r*: maximum virtual-rail perturbation, V (§3.1)
	AreaA0    float64 // sensor area model: detection-circuitry term (§3.1)
	AreaA1    float64 // sensor area model: sensing/bypass term coefficient
	CsSensor  float64 // intrinsic sensor capacitance at the virtual rail, F
	IDDQth    float64 // sensing threshold IDDQ,th, A (§2)
	Rho       int     // separation-parameter cap ρ (§3.3); New panics above MaxRho
}

// DefaultParams returns the constants used throughout the experiments:
// a 200 mV rail limit (the paper quotes 100–300 mV), a 1 µA sensing
// threshold ("effective test of defects in CMOS typically requires
// IDDQ,th ≈ 1 µA"), and ρ = 4. The paper does not publish its ρ; 4 keeps
// the ρ-hop neighbourhoods — and with them the cost of evaluating S(M) —
// small even on the densest benchmark circuits while still separating
// tight clusters from scattered ones.
func DefaultParams() Params {
	return Params{
		RailLimit: 0.2,
		AreaA0:    1.0e4,
		AreaA1:    2.0e6, // area units · Ω: A1/Rs dominates for small Rs
		CsSensor:  150e-15,
		IDDQth:    1e-6,
		Rho:       4,
	}
}

// Estimator evaluates the per-module and global quantities of §3 for one
// annotated circuit. It is immutable after construction — SetObs, which
// attaches telemetry handles, must run before the estimator is shared —
// and then safe for concurrent use.
type Estimator struct {
	P  Params
	A  *celllib.Annotated
	TS *TimeSets

	nominalDelay float64

	// Per-gate neighbourhoods, precomputed once so that the separation
	// parameter of a whole module needs no repeated BFS. The cache is
	// CSR over the upper triangle: nbrGate[nbrOff[g]:nbrOff[g+1]] lists
	// the logic gates nb > g fewer than ρ hops from g, in BFS order, and
	// nbrDist holds the matching hop counts. Pairs ρ or more hops apart
	// separate by exactly ρ and need no entry. Each near pair is stored
	// once, under its lower gate, which is the only direction
	// SeparationModule reads; S(M) is an integer sum, so the entry order
	// within a gate does not affect it. int32 offsets address 2³¹
	// entries, a cache of over 10 GB.
	nbrOff  []int32
	nbrGate []int32
	nbrDist []uint8

	// The arrival kernel shared by NominalDelay and BICDelay: the logic
	// gates numbered by their TopoOrder position, primary inputs dropped
	// (they arrive at 0, which adds nothing to a max that starts at 0).
	// pos maps a gate ID to its position (-1 for inputs);
	// fanin[faninOff[p]:faninOff[p+1]] lists the positions of the logic
	// gates driving position p, all below p; nominal holds the
	// sensor-free gate delays in position order.
	pos      []int32
	faninOff []int32
	fanin    []int32
	nominal  []float64

	// Telemetry handles, resolved once by SetObs; nil (no-op) when the
	// estimator is unobserved. The metrics themselves are atomic, so the
	// optimizer worker pools record through them without contention.
	evalCalls   *obs.Counter
	evalSeconds *obs.Histogram

	// Fault injector, attached by SetChaos; nil in production. The
	// injector corrupts the estimator's own outputs (estimate.nan,
	// estimate.inf) so the numeric guards between here and the optimizers
	// can be exercised deterministically.
	chaos *chaos.Injector

	// scratch pools the transient buffers of EvalModule, SeparationModule
	// and Closeness (current profile, module membership mask, bounded-BFS
	// state). They run millions of times per optimizer run on concurrent
	// worker pools, so these must not be allocated per call. Pool contents
	// never affect results: the buffers are (re)initialized before every
	// use.
	scratch sync.Pool
}

// evalScratch is the transient working memory of one estimator call.
type evalScratch struct {
	prof     []float64 // current profile over the time grid
	inModule []bool    // gate-ID membership mask; all false between uses
	ball     ball      // bounded-BFS state
	arrival  []float64 // gate delays, then arrival times, in kernel position order
}

func (e *Estimator) getScratch() *evalScratch {
	sc, _ := e.scratch.Get().(*evalScratch)
	if sc == nil {
		n := e.A.Circuit.NumGates()
		//lint:ignore hotalloc pool miss only: steady-state evaluations reuse pooled scratch
		sc = &evalScratch{
			//lint:ignore hotalloc pool miss only
			prof: make([]float64, e.TS.Depth()+1),
			//lint:ignore hotalloc pool miss only
			inModule: make([]bool, n),
			//lint:ignore hotalloc pool miss only
			ball: ball{stamp: make([]int32, n)},
			//lint:ignore hotalloc pool miss only
			arrival: make([]float64, len(e.nominal)),
		}
	}
	return sc
}

// ball is the working state of a bounded breadth-first search over the
// undirected logic graph. The visited set is an epoch-stamped array: a
// gate counts as seen in the current search iff its stamp equals the
// search's epoch, so nothing is cleared between searches.
type ball struct {
	stamp []int32 // per gate: epoch of the last search that reached it
	epoch int32
	gates []int32 // the last search's gates in BFS order, the centre first
	dist  []uint8 // their hop counts from the centre
}

// search fills b.gates and b.dist with every gate within depth hops of g
// (primary inputs included: paths may run through them), level by level
// and, within a level, in the order the previous level's Neighbors lists
// reach them.
func (b *ball) search(c *circuit.Circuit, g, depth int) {
	if b.epoch == math.MaxInt32 {
		clear(b.stamp)
		b.epoch = 0
	}
	b.epoch++
	b.stamp[g] = b.epoch
	//lint:ignore hotalloc reuses the buffer; grows only until it holds the largest ball searched with this scratch
	b.gates = append(b.gates[:0], int32(g))
	//lint:ignore hotalloc reuses the buffer (see gates)
	b.dist = append(b.dist[:0], 0)
	for head := 0; head < len(b.gates) && int(b.dist[head]) < depth; head++ {
		d := b.dist[head] + 1
		for _, nb := range c.Neighbors(int(b.gates[head])) {
			if b.stamp[nb] == b.epoch {
				continue
			}
			b.stamp[nb] = b.epoch
			//lint:ignore hotalloc reuses the buffer (see gates)
			b.gates = append(b.gates, int32(nb))
			//lint:ignore hotalloc reuses the buffer (see gates)
			b.dist = append(b.dist, d)
		}
	}
}

// SetObs attaches run telemetry: every EvalModule call increments
// MetricEvalModuleCalls and records its latency into
// MetricEvalModuleSeconds. Call it right after New, before the estimator
// is shared across goroutines; a nil o detaches nothing and keeps the
// estimator unobserved.
func (e *Estimator) SetObs(o *obs.Obs) {
	if e == nil || o == nil {
		return
	}
	e.evalCalls = o.Counter(MetricEvalModuleCalls)
	e.evalSeconds = o.Histogram(MetricEvalModuleSeconds, nil)
}

// SetChaos attaches a fault injector that poisons estimator outputs at
// the estimate.nan and estimate.inf sites. Like SetObs it must run before
// the estimator is shared; a nil injector (the default) costs one nil
// check per EvalModule.
func (e *Estimator) SetChaos(in *chaos.Injector) {
	if e == nil {
		return
	}
	e.chaos = in
}

// New builds an Estimator, computing the transition-time sets, the
// arrival kernel, the nominal (sensor-free) circuit delay, and the
// bounded-distance cache once. It panics if p.Rho exceeds MaxRho.
func New(a *celllib.Annotated, p Params) *Estimator {
	mustRho(p.Rho)
	e := &Estimator{P: p, A: a, TS: TransitionTimes(a.Circuit)}
	e.buildArrivalKernel()
	e.nominalDelay = e.BICDelay(nil, nil)
	e.buildNeighbourhoods()
	return e
}

// buildArrivalKernel numbers the logic gates by TopoOrder position and
// fills the kernel's position map, fanin CSR and nominal delays.
func (e *Estimator) buildArrivalKernel() {
	c := e.A.Circuit
	logic := c.NumLogicGates()
	e.pos = make([]int32, c.NumGates())
	e.faninOff = make([]int32, 1, logic+1)
	e.nominal = make([]float64, 0, logic)
	edges := 0
	for i := range c.Gates {
		edges += len(c.Gates[i].Fanin)
	}
	e.fanin = make([]int32, 0, edges) // primary-input fanins leave it short
	for _, id := range c.TopoOrder() {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			e.pos[id] = -1
			continue
		}
		e.pos[id] = int32(len(e.nominal))
		e.nominal = append(e.nominal, e.A.Delay[id])
		for _, f := range g.Fanin {
			if fp := e.pos[f]; fp >= 0 {
				e.fanin = append(e.fanin, fp)
			}
		}
		e.faninOff = append(e.faninOff, int32(len(e.fanin)))
	}
}

// MaxRho is the largest separation cap ρ an Estimator accepts: the
// neighbourhood cache stores hop counts as uint8.
const MaxRho = math.MaxUint8

// mustRho rejects a ρ whose hop counts would not fit the cache's uint8
// distances (they would wrap and silently corrupt S(M)). Params are
// validated configuration, so an out-of-range ρ is an invariant
// violation and panics per the project's panic policy.
func mustRho(rho int) {
	if rho > MaxRho {
		panic(fmt.Sprintf("estimate: Params.Rho = %d exceeds MaxRho = %d", rho, MaxRho))
	}
}

// buildNeighbourhoods fills the CSR neighbourhood cache with one BFS of
// depth ρ−1 per logic gate over the undirected logic graph, all sharing
// one epoch-stamped visited array.
func (e *Estimator) buildNeighbourhoods() {
	c := e.A.Circuit
	n := c.NumGates()
	e.nbrOff = make([]int32, n+1)
	b := ball{stamp: make([]int32, n)}
	logic, searched, reached := c.NumLogicGates(), 0, 0
	for g := 0; g < n; g++ {
		e.nbrOff[g] = int32(len(e.nbrGate))
		if c.Gates[g].Type == circuit.Input {
			continue
		}
		e.reserve(reached, searched, logic)
		b.search(c, g, e.P.Rho-1)
		searched++
		for i, nb := range b.gates[1:] {
			if c.Gates[nb].Type == circuit.Input {
				continue
			}
			reached++
			if int(nb) > g {
				e.nbrGate = append(e.nbrGate, nb)
				e.nbrDist = append(e.nbrDist, b.dist[i+1])
			}
		}
	}
	e.nbrOff[n] = int32(len(e.nbrGate))
}

// reserve grows the cache before it fills, to the size extrapolated from
// the searched gates' mean neighbourhood: reached counts every logic gate
// the searches found, and each pair is found from both of its gates but
// stored once, under its lower one. Left to append, a cache of millions
// of entries would be copied in 1.25× steps, allocating several times
// its final size.
func (e *Estimator) reserve(reached, searched, logic int) {
	if searched == 0 {
		return
	}
	mean := reached / searched
	if cap(e.nbrGate)-len(e.nbrGate) > 2*mean {
		return
	}
	want := reached * logic * 9 / (16 * searched) // half the pairs found, an eighth spare
	extra := max(want-len(e.nbrGate), 4*mean+1)
	e.nbrGate = slices.Grow(e.nbrGate, extra)
	e.nbrDist = slices.Grow(e.nbrDist, extra)
}

// Module is the estimator output for one gate group: everything the cost
// function and the constraints of §2 need.
type Module struct {
	Gates []int // the group, ascending gate IDs

	IDDMax     float64   // §3.1 transient-current upper bound, A
	Rs         float64   // bypass ON resistance r*/îDD,max, Ω
	Cs         float64   // virtual-rail parasitic capacitance, F
	Tau        float64   // sensor time constant Rs·Cs, s
	SensorArea float64   // A0 + A1/Rs
	LeakND     float64   // worst-case fault-free IDDQ,nd, A
	Settle     float64   // Δ(τ): current-decay + sensing time, s (§3.4)
	Activity   []int     // n(t) profile over the time grid
	Delay      []float64 // per gate of Gates: its delay degraded by δ(g, t) of §3.2, s
}

// Discriminability returns d(M) = IDDQ,th / IDDQ,nd (§2).
func (m *Module) Discriminability(iddqTh float64) float64 {
	if m.LeakND <= 0 {
		return 1e18 // an empty module discriminates perfectly
	}
	return iddqTh / m.LeakND
}

// must unwraps an electrical-model result. The estimator only ever feeds
// the models validated inputs — positive Params from DefaultParams and
// positive currents/delays from an annotated cell library — so an error
// here is an invariant violation, not an input condition; the optimizer
// worker pools recover such panics into errors. The panic value is the
// wrapped error itself, so errors.Is still sees electrical.ErrNonFinite
// after the recover boundary.
func must(v float64, err error) float64 {
	if err != nil {
		panic(fmt.Errorf("estimate: %w", err))
	}
	return v
}

// mustFinite guards an estimate that does not pass through an electrical
// model (and so would otherwise carry NaN/Inf silently into the cost
// function). Like must, it panics with an ErrNonFinite-wrapping error for
// the worker pools to recover.
func mustFinite(name string, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Errorf("estimate: %s = %g: %w", name, v, electrical.ErrNonFinite))
	}
	return v
}

// EvalModule computes the per-module electrical estimates for a gate
// group. The separation S(M) is not among them: it is a property of the
// grouping, kept per module by package partition (see SeparationModule
// and Closeness).
func (e *Estimator) EvalModule(gates []int) *Module {
	if e.evalCalls != nil {
		e.evalCalls.Inc()
		defer e.evalSeconds.ObserveSince(time.Now())
	}
	//lint:ignore hotalloc the Module is the call's result, retained in the partition's estimate cache
	m := &Module{Gates: gates}
	if len(gates) == 0 {
		//lint:ignore hotalloc retained in the returned Module; empty modules only
		m.Activity = make([]int, e.TS.Depth()+1)
		return m
	}
	sc := e.getScratch()
	defer e.scratch.Put(sc)
	m.IDDMax = e.TS.maxCurrentScratch(e.A, gates, sc.prof)
	if e.chaos.Hit(chaos.SiteEstimateNaN) {
		m.IDDMax = math.NaN() // poison: SensorROn's guard must catch it
	}
	m.Rs = must(electrical.SensorROn(e.P.RailLimit, m.IDDMax))
	m.Cs = e.P.CsSensor
	for _, g := range gates {
		m.Cs += e.A.Cout[g]
	}
	m.Tau = m.Rs * m.Cs
	m.SensorArea = must(electrical.SensorArea(e.P.AreaA0, e.P.AreaA1, m.Rs))
	m.LeakND = e.A.TotalLeakageMax(gates)
	if e.chaos.Hit(chaos.SiteEstimateInf) {
		m.LeakND = math.Inf(1) // poison: mustFinite below must catch it
	}
	m.LeakND = mustFinite("IDDQ,nd", m.LeakND)
	m.Settle = must(electrical.SettlingTime(m.Tau, m.IDDMax, e.P.IDDQth))
	m.Activity = e.TS.ActivityProfile(gates)
	m.Delay = e.degradedDelays(m)
	return m
}

// degradedDelays returns the gate delays of module m degraded by δ(g, t)
// of §3.2, aligned with m.Gates. The gate delays are "time grid
// functions": the degradation of gate g is evaluated at the grid time the
// critical transition reaches it (its level — the longest input→g path),
// using the module's activity n(t) at exactly that instant, the module's
// Rs, and its rail capacitance.
func (e *Estimator) degradedDelays(m *Module) []float64 {
	levels := e.A.Circuit.Levels()
	//lint:ignore hotalloc the delays are retained in the returned Module estimate, which the partition caches per module
	delay := make([]float64, len(m.Gates))
	for i, g := range m.Gates {
		n := 1
		if t := levels[g]; t < len(m.Activity) && m.Activity[t] > 1 {
			n = m.Activity[t]
		}
		delay[i] = e.A.Delay[g] * must(electrical.DelayDegradation(n, m.Rs, e.A.Rg[g], e.A.Delay[g], m.Cs))
	}
	return delay
}

// SeparationModule computes S(M) of §3.3: the sum over all gate pairs of
// the separation parameter S(gi, gj) — the undirected hop distance in the
// circuit graph, forced to ρ when the distance exceeds ρ or no path
// exists. S(M) is minimal when the module is a tightly connected cluster.
// Pairs farther than ρ hops (or disconnected) contribute exactly ρ, so
// S(M) = ρ·(number of pairs) − Σ_{near pairs} (ρ − dist); only the cached
// neighbourhoods need to be scanned.
func (e *Estimator) SeparationModule(gates []int) int {
	if len(gates) < 2 {
		return 0
	}
	sc := e.getScratch()
	inModule := sc.inModule
	for _, g := range gates {
		inModule[g] = true
	}
	rho := e.P.Rho
	pairs := len(gates) * (len(gates) - 1) / 2
	sum := rho * pairs
	for _, g := range gates {
		lo, hi := e.nbrOff[g], e.nbrOff[g+1]
		nbrs, dists := e.nbrGate[lo:hi], e.nbrDist[lo:hi]
		for i, nb := range nbrs {
			if inModule[nb] {
				sum -= rho - int(dists[i])
			}
		}
	}
	for _, g := range gates {
		inModule[g] = false
	}
	e.scratch.Put(sc)
	return sum
}

// Closeness returns, for gate g and two modules a and b of the assignment
// moduleOf, the sums Σ (ρ − d(g, h)) over the gates h ≠ g of each module
// fewer than ρ hops from g — how far g's separation to the module's
// members falls short of ρ per member (farther members add 0). One gate
// joining or leaving a module M (g ∉ M) changes S by exactly
// ρ·|M| − closeness(g, M), so a single-gate move re-costs S from one BFS
// of depth ρ−1 around g instead of a scan of both modules.
func (e *Estimator) Closeness(g int, moduleOf []int, a, b int) (ca, cb int) {
	sc := e.getScratch()
	sc.ball.search(e.A.Circuit, g, e.P.Rho-1)
	rho := e.P.Rho
	for i, h := range sc.ball.gates[1:] {
		switch moduleOf[h] {
		case a:
			ca += rho - int(sc.ball.dist[i+1])
		case b:
			cb += rho - int(sc.ball.dist[i+1])
		}
	}
	e.scratch.Put(sc)
	return ca, cb
}

// NominalDelay returns the longest-path delay D of the sensor-free
// circuit.
func (e *Estimator) NominalDelay() float64 { return e.nominalDelay }

// BICDelay returns D_BIC: the longest-path delay with every gate's delay
// degraded by δ(g, t) of §3.2. moduleOf maps each gate ID to its module
// index (inputs may carry any value); mods holds the corresponding module
// estimates, each covering exactly the gates moduleOf maps to it. A gate
// takes its degraded delay from its module's Module.Delay and keeps its
// nominal delay when its module has no entry in mods or a nil one (with
// mods nil, the result is the nominal delay D). The pass evaluates no
// degradation itself, so a move pays for the modules it touched, in
// EvalModule.
func (e *Estimator) BICDelay(moduleOf []int, mods []*Module) float64 {
	sc := e.getScratch()
	buf := sc.arrival
	copy(buf, e.nominal)
	for mi, m := range mods {
		if m == nil {
			continue
		}
		for i, g := range m.Gates {
			if moduleOf[g] == mi {
				buf[e.pos[g]] = m.Delay[i]
			}
		}
	}
	// Turn the delays into arrival times in place: each gate arrives at
	// the latest of its fanins plus its own delay. Fanins sit at lower
	// positions, so they are final when read.
	var worst float64
	lo := e.faninOff[0]
	for p, hi := range e.faninOff[1:] {
		var in float64
		for _, f := range e.fanin[lo:hi] {
			if v := buf[f]; v > in {
				in = v
			}
		}
		lo = hi
		a := in + buf[p]
		buf[p] = a
		if a > worst {
			worst = a
		}
	}
	e.scratch.Put(sc)
	return worst
}

// DelayOverhead returns c₂ = (D_BIC − D) / D of §3.2.
func (e *Estimator) DelayOverhead(dBIC float64) float64 {
	return (dBIC - e.nominalDelay) / e.nominalDelay
}

// TestTimeOverhead returns c₄ of §3.4. A test vector is applied, the
// slowest module's transient decays and its IDDQ is sensed, so the
// per-vector period is D'_BIC = D_BIC + max_i Δ(τ_i); the overhead is
// measured against the sensor-free per-vector period D.
func (e *Estimator) TestTimeOverhead(dBIC float64, mods []*Module) float64 {
	var settle float64
	for _, m := range mods {
		if m != nil && m.Settle > settle {
			settle = m.Settle
		}
	}
	return (dBIC + settle - e.nominalDelay) / e.nominalDelay
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"iddqsyn/internal/bench"
	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// synthWorkload is a sequence of core.SynthesizeContext calls on one
// circuit, each with its own evolution seed.
type synthWorkload struct {
	// perOp is the share of --seconds allotted to one synthesis. It turns
	// --seconds into a fixed operation count, so a seed names the same
	// inputs on every commit whether the code under test is fast or slow.
	// On the reference machine (2 CPUs, go1.24) a c1908 synthesis takes
	// about 1.4 s and a 20k one about 7.5 s; a 30 s run gives c1908 ten
	// fresh ops and ten repeats, and 20k five ops, because its ops spread
	// by ±15% and a median of fewer moves too much between runs.
	perOp   float64
	circuit func(seed int64) (*circuit.Circuit, error)
	options func(evoSeed int64) core.Options
}

var synthWorkloads = map[string]synthWorkload{
	// The paper's Table 1 hot loop: c1908 with the estimated module size
	// and the 60-generation / 20-stall budget of bench_test.go's
	// benchEvolution, evaluated sequentially (the iddqpart and serve
	// default; two workers double the run-to-run spread).
	"synth-c1908": {
		perOp: 1.5,
		circuit: func(int64) (*circuit.Circuit, error) {
			f, err := os.Open("benchmarks/c1908.bench")
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return bench.Read(f, "c1908")
		},
		options: func(evoSeed int64) core.Options {
			prm := experiments.Table1DefaultEvolution()
			prm.MaxGenerations = 60
			prm.StallGenerations = 20
			prm.Seed = evoSeed
			return core.Options{Evolution: &prm}
		},
	},
	// Scale: a seeded 20 000-gate random-logic circuit with the default
	// module size and a 2-generation budget, where estimator construction
	// and the start partitions dominate and evolution is a tenth.
	"synth-20k": {
		perOp: 6,
		circuit: func(seed int64) (*circuit.Circuit, error) {
			return circuits.RandomLogic(circuits.Spec{
				Name: "rand20k", Inputs: 1200, Outputs: 600, Gates: 20000, Depth: 60, Seed: seed,
			})
		},
		options: func(evoSeed int64) core.Options {
			prm := evolution.DefaultParams()
			prm.MaxGenerations = 2
			prm.Seed = evoSeed
			return core.Options{Evolution: &prm}
		},
	},
}

// setupReps is how many times a run repeats its set-up before the timed
// phase to report the median set-up time.
const setupReps = 15

// synthOp is one scheduled synthesis: fresh (its own evolution seed) or
// a repeat of an earlier fresh op, whose result must come back
// bit-identical.
type synthOp struct {
	seed   int64
	repeat int // index of the repeated op, or -1
}

// synthSchedule draws n ops from the seed: every odd op repeats the op
// just before it, so repeats re-run the same evolution seeds as the
// fresh ops and both medians average the same per-seed work; the fresh
// ops get distinct evolution seeds.
func synthSchedule(seed int64, n int) []synthOp {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	ops := make([]synthOp, n)
	for i := range ops {
		if i%2 == 1 {
			ops[i] = synthOp{repeat: i - 1}
			continue
		}
		s := rng.Int63n(1<<31) + 1
		for used[s] {
			s = rng.Int63n(1<<31) + 1
		}
		used[s] = true
		ops[i] = synthOp{seed: s, repeat: -1}
	}
	return ops
}

// outcome is the part of a synthesis result that must reproduce exactly.
type outcome struct {
	costs       partition.CostVector
	cost        float64
	worstD      float64
	feasible    bool
	groups      [][]int
	generations int
	evaluations int
}

func outcomeOf(p *partition.Partition, er *evolution.Result) outcome {
	return outcome{
		costs: p.Costs(), cost: p.Cost(), worstD: p.WorstDiscriminability(),
		feasible: p.Feasible(), groups: p.Groups(),
		generations: er.Generations, evaluations: er.Evaluations,
	}
}

// diff names the first field in which two outcomes differ ("" = equal).
// Floats compare by bit pattern: "close" is not reproduced.
func (a outcome) diff(b outcome) string {
	fa := []float64{a.costs.LogArea, a.costs.DelayOverhead, a.costs.LogSeparation, a.costs.TestTime,
		a.costs.Modules, a.costs.SensorArea, a.costs.DBIc, a.costs.DNominal, a.cost, a.worstD}
	fb := []float64{b.costs.LogArea, b.costs.DelayOverhead, b.costs.LogSeparation, b.costs.TestTime,
		b.costs.Modules, b.costs.SensorArea, b.costs.DBIc, b.costs.DNominal, b.cost, b.worstD}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("cost term %d: %v vs %v", i, fa[i], fb[i])
		}
	}
	switch {
	case a.costs.Separation != b.costs.Separation:
		return "separation"
	case a.feasible != b.feasible:
		return "feasibility"
	case a.generations != b.generations:
		return fmt.Sprintf("generations %d vs %d", a.generations, b.generations)
	case a.evaluations != b.evaluations:
		return fmt.Sprintf("evaluations %d vs %d", a.evaluations, b.evaluations)
	case len(a.groups) != len(b.groups):
		return fmt.Sprintf("modules %d vs %d", len(a.groups), len(b.groups))
	}
	for i := range a.groups {
		if !slices.Equal(a.groups[i], b.groups[i]) {
			return fmt.Sprintf("module %d gates", i)
		}
	}
	return ""
}

func runSynth(name string, w synthWorkload, a args) (*result, error) {
	res := newResult()
	var setups []float64
	setup := func() (*circuit.Circuit, error) {
		runtime.GC()
		t0 := time.Now()
		c, err := w.circuit(a.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return c, nil
	}
	var c *circuit.Circuit
	for i := 0; i < setupReps; i++ {
		cc, err := setup()
		if err != nil {
			return nil, err
		}
		c = cc
	}
	if a.trace {
		tracedSynth(w, a, c, res)
		return res, nil
	}
	n := max(3, int(float64(a.seconds)/w.perOp))
	ops := synthSchedule(a.seed, n)
	ctx := context.Background()
	outs := make([]outcome, len(ops))
	var fresh, repeat, costs, worst, evals []float64
	for i, op := range ops {
		seed := op.seed
		if op.repeat >= 0 {
			seed = ops[op.repeat].seed
		}
		// One more set-up before each op, so the set-up median samples the
		// host over the whole run, not only its first instant.
		if _, err := setup(); err != nil {
			return nil, err
		}
		res.attempted++
		runtime.GC()
		t0 := time.Now()
		sr, err := core.SynthesizeContext(ctx, c, w.options(seed))
		dt := ms(time.Since(t0))
		if err == nil {
			// The full static audit, including CompareEstimate of every
			// incrementally maintained module estimate.
			if r := partcheck.VerifyPartition(sr.Partition, partcheck.StructureOnly()); !r.OK() {
				err = r.Err()
			}
		}
		if err != nil {
			res.fail("op %d (seed %d): %v", i, seed, err)
			continue
		}
		outs[i] = outcomeOf(sr.Partition, sr.Evolution)
		if op.repeat >= 0 {
			if d := outs[i].diff(outs[op.repeat]); d != "" {
				res.fail("op %d repeats op %d (seed %d) but differs: %s", i, op.repeat, seed, d)
				continue
			}
			repeat = append(repeat, dt)
			continue
		}
		fresh = append(fresh, dt)
		evals = append(evals, float64(outs[i].evaluations))
		costs = append(costs, outs[i].cost)
		worst = append(worst, outs[i].worstD)
	}
	res.rssMB = peakRSSMB()
	res.samples["latency_ms"] = fresh
	res.samples["repeat_ms"] = repeat
	res.samples["evaluations"] = evals
	res.endToEnd(median(setups), median(fresh), median(repeat), median(costs), median(worst))
	return res, nil
}

// layerRun accumulates the per-layer samples of a traced run.
type layerRun struct {
	rec *recorder
	s   map[string][]float64
	// totals across the traced syntheses
	applied, accepted        float64
	singletons, starts       float64
	feasible, synths         float64
	generations, evaluations float64
	optimize                 float64 // seconds in OptimizeControlled
	probeRNG                 *rand.Rand
}

func newLayerRun(seed int64) *layerRun {
	return &layerRun{rec: newRecorder(), s: map[string][]float64{}, probeRNG: rand.New(rand.NewSource(seed))}
}

func (l *layerRun) put(name string, v float64) { l.s[name] = append(l.s[name], v) }

// traceSynthesize is core.SynthesizeContext for the evolution method,
// spelled out one public call per layer so each call can be timed. It
// must return exactly what core returns for the same options; callers
// compare the two.
func (l *layerRun) traceSynthesize(ctx context.Context, c *circuit.Circuit, opt core.Options) (*partition.Partition, *evolution.Result, error) {
	rec := l.rec
	root := rec.begin("core.synthesize", 0)
	sp := rec.begin("celllib.annotate", root)
	a, err := celllib.Annotate(c, celllib.Default())
	l.put("celllib.annotate_ms", ms(rec.end(sp)))
	if err != nil {
		return nil, nil, err
	}
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()
	if opt.Constraints != nil {
		cons = *opt.Constraints
	}
	eprm := *opt.Evolution

	sp = rec.begin("estimate.new", root)
	e := estimate.New(a, estimate.DefaultParams())
	l.put("estimate.new_s", rec.end(sp).Seconds())

	size := opt.ModuleSize
	if size <= 0 {
		sp = rec.begin("standard.module_size", root)
		size = standard.EstimateModuleSize(e, w, cons)
		rec.end(sp)
	}
	l.put("standard.module_size", float64(size))
	rng := rand.New(rand.NewSource(eprm.Seed))
	starts := make([]*partition.Partition, 0, eprm.Mu)
	var startTotal time.Duration
	//lint:ignore ctxloop mirrors core.SynthesizeContext, whose start population is deliberately not cancellable
	for i := 0; i < eprm.Mu; i++ {
		sp = rec.begin("standard.chain_start", root)
		groups := standard.ChainStartPartition(c, size, rng)
		startTotal += rec.end(sp)
		for _, g := range groups {
			if len(g) == 1 {
				l.singletons++
			}
		}
		l.starts += float64(len(groups))
		sp = rec.begin("partition.new", root)
		p, err := partition.New(e, groups, w, cons)
		l.put("partition.new_ms", ms(rec.end(sp)))
		if err != nil {
			return nil, nil, err
		}
		starts = append(starts, p)
	}
	l.put("standard.start_s", startTotal.Seconds())

	o := obs.New(obs.NewRunID(), nil, nil)
	sp = rec.begin("evolution.optimize", root)
	last := time.Now()
	trace := func(int, *partition.Partition, float64) {
		now := time.Now()
		l.put("evolution.generation_ms", ms(now.Sub(last)))
		rec.add("evolution.generation", sp, last, now)
		last = now
	}
	er, err := evolution.OptimizeControlled(ctx, starts, eprm, trace, &evolution.Control{Obs: o})
	optS := rec.end(sp).Seconds()
	if err != nil {
		return nil, nil, err
	}
	l.put("evolution.optimize_s", optS)
	l.generations += float64(er.Generations)
	l.evaluations += float64(er.Evaluations)
	l.optimize += optS
	reg := o.Registry()
	l.applied += float64(reg.Counter(evolution.MetricMutationApplied).Value() + reg.Counter(evolution.MetricMonteCarloApplied).Value())
	l.accepted += float64(reg.Counter(evolution.MetricMutationAccepted).Value() + reg.Counter(evolution.MetricMonteCarloAccepted).Value())

	p := er.Best
	sp = rec.begin("partcheck.verify", root)
	r := partcheck.VerifyPartition(p, partcheck.StructureOnly())
	l.put("partcheck.verify_ms", ms(rec.end(sp)))
	if !r.OK() {
		return nil, nil, fmt.Errorf("final partition fails the static audit: %w", r.Err())
	}
	sp = rec.begin("partition.costs", root)
	p.Costs()
	rec.end(sp)
	sp = rec.begin("bic.new_chip", root)
	_, err = bic.NewChip(a, p.Groups(), e)
	l.put("bic.new_chip_ms", ms(rec.end(sp)))
	if err != nil {
		return nil, nil, err
	}
	total := rec.end(root)
	l.put("core.synth_s", total.Seconds())
	spans := rec.snapshot()
	l.put("core.self_ms", ms(selfTime(spans[root-1], spans[root:])))
	l.put("partition.modules", float64(p.NumModules()))
	l.put("partition.worst_d", p.WorstDiscriminability())
	l.synths++
	if p.Feasible() {
		l.feasible++
	}
	return p, er, nil
}

// Probe sizes per traced synthesis: the layer calls timed one by one on
// the final partition, outside the synthesis itself.
const (
	probeModules = 64 // EvalModule calls
	probeBIC     = 8  // BICDelay calls
	probeMoves   = 32 // Clone, and Clone + one move + Costs
)

// probe times single calls into the estimator and the partition on a
// finished partition: EvalModule per module, BICDelay on the whole
// assignment, Clone, and the BenchmarkIncrementalCost step (Clone, one
// seeded boundary-gate move, Costs).
func (l *layerRun) probe(p *partition.Partition) {
	e := p.E
	k := p.NumModules()
	for mi := 0; mi < min(k, probeModules); mi++ {
		gates := p.ModuleGates(mi)
		t0 := time.Now()
		e.EvalModule(gates)
		l.put("estimate.eval_module_us", us(time.Since(t0)))
	}
	moduleOf := make([]int, e.A.Circuit.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	mods := make([]*estimate.Module, k)
	for mi := range mods {
		mods[mi] = p.ModuleEstimate(mi)
	}
	for i := 0; i < probeBIC; i++ {
		t0 := time.Now()
		e.BICDelay(moduleOf, mods)
		l.put("estimate.bic_delay_us", us(time.Since(t0)))
	}
	for i := 0; i < probeMoves; i++ {
		t0 := time.Now()
		p.Clone()
		l.put("partition.clone_us", us(time.Since(t0)))
		t0 = time.Now()
		q := p.Clone()
		if moveOneGate(q, l.probeRNG) {
			q.Costs()
			l.put("partition.recost_us", us(time.Since(t0)))
		}
	}
}

// moveOneGate applies one legal boundary-gate move, as bench_test.go's
// BenchmarkIncrementalCost does; false when 16 draws find none.
func moveOneGate(p *partition.Partition, rng *rand.Rand) bool {
	for attempt := 0; attempt < 16; attempt++ {
		from := rng.Intn(p.NumModules())
		boundary := p.BoundaryGates(from)
		if len(boundary) == 0 {
			continue
		}
		g := boundary[rng.Intn(len(boundary))]
		targets := p.ConnectedModules(g)
		if len(targets) == 0 {
			continue
		}
		if _, err := p.MoveGates([]int{g}, from, targets[rng.Intn(len(targets))]); err == nil {
			return true
		}
	}
	return false
}

// reference runs core.SynthesizeContext (timed, under no span), then
// the layer-by-layer pipeline under spans, and fails unless the two
// agree bit for bit; the ratio of their times is the tracing overhead.
func (l *layerRun) reference(ctx context.Context, c *circuit.Circuit, opt core.Options) (*partition.Partition, *evolution.Result, error) {
	runtime.GC()
	t0 := time.Now()
	ref, err := core.SynthesizeContext(ctx, c, opt)
	l.put("core.untraced_synth_s", time.Since(t0).Seconds())
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	p, er, err := l.traceSynthesize(ctx, c, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("traced pipeline: %w", err)
	}
	if d := outcomeOf(p, er).diff(outcomeOf(ref.Partition, ref.Evolution)); d != "" {
		return nil, nil, fmt.Errorf("traced pipeline differs from core.SynthesizeContext: %s", d)
	}
	l.probe(p)
	return p, er, nil
}

// tracedSynth runs the workload's fresh ops through reference.
func tracedSynth(w synthWorkload, a args, c *circuit.Circuit, res *result) {
	n := max(1, int(float64(a.seconds)/(2*w.perOp)))
	l := newLayerRun(a.seed)
	for i, op := range synthSchedule(a.seed, 2*n) {
		if op.repeat >= 0 {
			continue
		}
		if res.attempted == n {
			break
		}
		res.attempted++
		if _, _, err := l.reference(context.Background(), c, w.options(op.seed)); err != nil {
			res.fail("op %d (seed %d): %v", i, op.seed, err)
		}
	}
	l.finish(res)
}

// finish turns the collected samples into the per-layer metrics.
func (l *layerRun) finish(res *result) {
	v := res.values
	for _, name := range []string{
		"celllib.annotate_ms", "estimate.new_s", "standard.module_size", "standard.start_s",
		"partition.new_ms", "partition.modules", "partition.worst_d", "evolution.optimize_s",
		"partcheck.verify_ms", "bic.new_chip_ms", "core.synth_s", "core.untraced_synth_s", "core.self_ms",
	} {
		v[name] = median(l.s[name])
	}
	v["estimate.eval_module_us_p50"] = median(l.s["estimate.eval_module_us"])
	v["estimate.bic_delay_us_p50"] = median(l.s["estimate.bic_delay_us"])
	v["partition.clone_us_p50"] = median(l.s["partition.clone_us"])
	res.setTail("partition.clone_us_tail", l.s["partition.clone_us"])
	v["partition.recost_us_p50"] = median(l.s["partition.recost_us"])
	res.setTail("partition.recost_us_tail", l.s["partition.recost_us"])
	v["evolution.generation_ms_p50"] = median(l.s["evolution.generation_ms"])
	res.setTail("evolution.generation_ms_tail", l.s["evolution.generation_ms"])
	v["standard.singleton_share"] = ratio(l.singletons, l.starts)
	v["evolution.generations"] = l.generations
	v["evolution.evaluations"] = l.evaluations
	v["evolution.eval_us"] = 1e6 * ratio(l.optimize, l.evaluations)
	v["evolution.accept_ratio"] = ratio(l.accepted, l.applied)
	v["core.feasible_share"] = ratio(l.feasible, l.synths)
	v["core.trace_overhead_pct"] = 100 * ratio(v["core.synth_s"]-v["core.untraced_synth_s"], v["core.untraced_synth_s"])
	for k, xs := range l.s {
		res.samples[k] = xs
	}
	res.spans = l.rec.snapshot()
}

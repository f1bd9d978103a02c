// Package iddqsyn's top-level benchmark harness: one benchmark per table
// and figure of the paper's evaluation, plus the micro-benchmarks behind
// the §3-§4 efficiency claims. Run with
//
//	go test -bench=. -benchmem
//
// The Table 1 benchmarks synthesize full ISCAS85-class circuits per
// iteration and print the regenerated table rows; expect seconds to
// minutes per circuit, matching the paper's "convergence within a few
// hours on a Sun Sparc workstation" at modern CPU speed.
package iddqsyn_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"iddqsyn/internal/atpg"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/core"
	"iddqsyn/internal/diagnose"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/experiments"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// benchEvolution keeps the per-iteration cost of the Table 1 benchmarks
// bounded; cmd/table1 runs the full 250-generation budget.
func benchEvolution() evolution.Params {
	p := experiments.Table1DefaultEvolution()
	p.MaxGenerations = 60
	p.StallGenerations = 20
	return p
}

// benchmarkTable1Row regenerates one row of Table 1 per iteration.
func benchmarkTable1Row(b *testing.B, circuit string) {
	b.ReportAllocs()
	prm := benchEvolution()
	var last experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(context.Background(), experiments.Table1Config{
			Circuits: []string{circuit}, Evolution: &prm,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[0]
	}
	b.ReportMetric(last.AreaOverhead, "areaOverhead%")
	b.ReportMetric(float64(last.Modules), "modules")
	b.Logf("\n%s", experiments.FormatTable1([]experiments.Table1Row{last}))
}

// Table 1: standard vs evolution partitioning, one benchmark per circuit.
func BenchmarkTable1_C1908(b *testing.B) { benchmarkTable1Row(b, "c1908") }
func BenchmarkTable1_C2670(b *testing.B) { benchmarkTable1Row(b, "c2670") }
func BenchmarkTable1_C3540(b *testing.B) { benchmarkTable1Row(b, "c3540") }
func BenchmarkTable1_C5315(b *testing.B) { benchmarkTable1Row(b, "c5315") }
func BenchmarkTable1_C6288(b *testing.B) { benchmarkTable1Row(b, "c6288") }
func BenchmarkTable1_C7552(b *testing.B) { benchmarkTable1Row(b, "c7552") }

// Figure 1: the BIC sensor measurement cycle (vector application, IDDQ
// sensing, PASS/FAIL decision) on the C17 chip model.
func BenchmarkFigure1SensorCycle(b *testing.B) {
	b.ReportAllocs()
	res, err := experiments.Figure1Demo()
	if err != nil {
		b.Fatal(err)
	}
	if res.DefectPass || !res.FaultFreePass {
		b.Fatal("sensor demo misbehaved")
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1Demo()
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}

// Figure 2: the group-shape experiment on the 2-D cell array. The
// reported metric is the per-sensor area ratio of the column partition
// over the row partition (paper: partition 1, the row grouping, wins).
func BenchmarkFigure2GroupShape(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(3, 6)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.AreaRatio
	}
	b.ReportMetric(ratio, "areaRatio")
}

// Figures 3-5: the C17 evolution trace to the published optimum
// {(1,3,5), (2,4,6)}.
func BenchmarkC17Evolution(b *testing.B) {
	b.ReportAllocs()
	reached := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.C17Trace(context.Background(), int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.ReachedKnown {
			reached++
		}
	}
	b.ReportMetric(100*float64(reached)/float64(b.N), "optimum%")
}

// §5 convergence claim: generations and evaluations to a stable cost.
func benchmarkConvergence(b *testing.B, circuit string) {
	b.ReportAllocs()
	prm := benchEvolution()
	var gens, evals int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Convergence(context.Background(), circuit, prm)
		if err != nil {
			b.Fatal(err)
		}
		gens, evals = res.Generations, res.Evaluations
	}
	b.ReportMetric(float64(gens), "generations")
	b.ReportMetric(float64(evals), "evaluations")
}

// BenchmarkEvolve is the canonical optimizer figure for the committed
// perf trajectory (BENCH_<n>.json via scripts/bench.sh): one full c432
// evolution to convergence per iteration.
func BenchmarkEvolve(b *testing.B) { benchmarkConvergence(b, "c432") }

func BenchmarkEvolutionConvergence_C432(b *testing.B)  { benchmarkConvergence(b, "c432") }
func BenchmarkEvolutionConvergence_C880(b *testing.B)  { benchmarkConvergence(b, "c880") }
func BenchmarkEvolutionConvergence_C1908(b *testing.B) { benchmarkConvergence(b, "c1908") }

// §4 ablations: the design choices DESIGN.md calls out.
func BenchmarkAblationMonteCarlo(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblateMonteCarlo(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Variant/res.Baseline, "costRatioNoMC")
}

func BenchmarkAblationLifetime(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var res *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblateLifetime(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Variant/res.Baseline, "costRatioImmortal")
}

// §4.2 incremental cost evaluation ablation: cost re-evaluation after one
// mutation, incremental (only touched modules recomputed) vs from-scratch
// partition construction. BenchmarkIncrementalCost runs on c1908,
// BenchmarkIncrementalCost_* on a chain start partition of a seeded
// random-logic circuit.
func BenchmarkIncrementalCost(b *testing.B) { benchmarkIncrementalCost(b, mutatedPartition(b)) }

func BenchmarkIncrementalCost_20k(b *testing.B) {
	benchmarkIncrementalCost(b, chainPartition(b, "20k"))
}
func BenchmarkIncrementalCost_80k(b *testing.B) {
	benchmarkIncrementalCost(b, chainPartition(b, "80k"))
}

// benchmarkIncrementalCost times one L2 step: a clone, one single-gate
// boundary move, and Costs.
func benchmarkIncrementalCost(b *testing.B, p *partition.Partition) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		moveOneGate(b, q, rng)
		_ = q.Cost()
	}
}

// chainPartition returns the costed chain start partition (seed 1, the
// estimated module size) of a setupCircuit circuit.
func chainPartition(b *testing.B, name string) *partition.Partition {
	b.Helper()
	e := estimate.New(setupCircuit(b, name), estimate.DefaultParams())
	w, cons := partition.PaperWeights(), partition.DefaultConstraints()
	size := standard.EstimateModuleSize(e, w, cons)
	p, err := partition.New(e, standard.ChainStartPartition(e.A.Circuit, size, rand.New(rand.NewSource(1))), w, cons)
	if err != nil {
		b.Fatal(err)
	}
	p.Cost()
	return p
}

func BenchmarkFullRecomputeCost(b *testing.B) {
	b.ReportAllocs()
	p := mutatedPartition(b)
	rng := rand.New(rand.NewSource(7))
	e, w, cons := p.E, p.W, p.Cons
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := p.Clone()
		moveOneGate(b, q, rng)
		fresh, err := partition.New(e, q.Groups(), w, cons)
		if err != nil {
			b.Fatal(err)
		}
		_ = fresh.Cost()
	}
}

func mutatedPartition(b *testing.B) *partition.Partition {
	b.Helper()
	c := circuits.MustISCAS85Like("c1908")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.StandardPartition(c, 220, e.P.Rho)
	p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
	if err != nil {
		b.Fatal(err)
	}
	p.Cost() // warm the caches
	return p
}

func moveOneGate(b *testing.B, p *partition.Partition, rng *rand.Rand) {
	b.Helper()
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
			return
		}
	}
	b.Fatal("no legal move found")
}

// Set-up ladder steps L0 (the ρ-neighbourhood cache built by
// estimate.New) and L1 (one chain start partition), at c1908 and at
// seeded 20k- and 80k-gate random-logic circuits, where they dominate a
// run. The 80k cases are for one-off scale measurements and stay out of
// scripts/bench.sh.
func setupCircuit(b *testing.B, name string) *celllib.Annotated {
	b.Helper()
	var c *circuit.Circuit
	var err error
	switch name {
	case "20k":
		c, err = circuits.RandomLogic(circuits.Spec{
			Name: "rand20k", Inputs: 1200, Outputs: 600, Gates: 20000, Depth: 60, Seed: 1,
		})
	case "80k":
		c, err = circuits.RandomLogic(circuits.Spec{
			Name: "rand80k", Inputs: 4800, Outputs: 2400, Gates: 80000, Depth: 120, Seed: 1,
		})
	default:
		c, err = circuits.ISCAS85Like(name)
	}
	if err != nil {
		b.Fatal(err)
	}
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchmarkEstimateNew(b *testing.B, name string) {
	b.ReportAllocs()
	a := setupCircuit(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = estimate.New(a, estimate.DefaultParams())
	}
}

func BenchmarkEstimateNew_C1908(b *testing.B) { benchmarkEstimateNew(b, "c1908") }
func BenchmarkEstimateNew_20k(b *testing.B)   { benchmarkEstimateNew(b, "20k") }
func BenchmarkEstimateNew_80k(b *testing.B)   { benchmarkEstimateNew(b, "80k") }

func benchmarkChainStartPartition(b *testing.B, name string) {
	b.ReportAllocs()
	e := estimate.New(setupCircuit(b, name), estimate.DefaultParams())
	size := standard.EstimateModuleSize(e, partition.PaperWeights(), partition.DefaultConstraints())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = standard.ChainStartPartition(e.A.Circuit, size, rng)
	}
}

func BenchmarkChainStartPartition_C1908(b *testing.B) { benchmarkChainStartPartition(b, "c1908") }
func BenchmarkChainStartPartition_20k(b *testing.B)   { benchmarkChainStartPartition(b, "20k") }
func BenchmarkChainStartPartition_80k(b *testing.B)   { benchmarkChainStartPartition(b, "80k") }

// §3 estimator micro-benchmarks: the quantities recomputed inside the
// evolution loop.
func estimatorFixture(b *testing.B) (*estimate.Estimator, [][]int) {
	b.Helper()
	c := circuits.MustISCAS85Like("c1908")
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		b.Fatal(err)
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := standard.StandardPartition(c, 220, e.P.Rho)
	return e, groups
}

func BenchmarkEstimatorsModuleEval(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.EvalModule(groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsMaxCurrent(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.TS.MaxCurrent(e.A, groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsSeparation(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.SeparationModule(groups[i%len(groups)])
	}
}

func BenchmarkEstimatorsBICDelay(b *testing.B) {
	b.ReportAllocs()
	e, groups := estimatorFixture(b)
	mods := make([]*estimate.Module, len(groups))
	moduleOf := make([]int, e.A.Circuit.NumGates())
	for mi, grp := range groups {
		mods[mi] = e.EvalModule(grp)
		for _, g := range grp {
			moduleOf[g] = mi
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.BICDelay(moduleOf, mods)
	}
}

// §3.4 substrate: ATPG and fault simulation cost (the test-set generation
// the test-application-time estimator assumes precomputed).
func BenchmarkATPGC880(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c880")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 500
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	opt := atpg.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.Generate(c, list, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Sanity: the benchmark fixtures print the environment once.
func Example_fixtures() {
	c := circuits.C17()
	fmt.Println(c)
	// Output: c17: 5 inputs, 2 outputs, 6 gates, depth 3
}

// Extension studies (see DESIGN.md §5 and EXPERIMENTS.md).

// Optimizer comparison: evolution vs simulated annealing vs hill climbing
// at equal evaluation budgets from identical fine-grained starts.
func BenchmarkOptimizerComparison(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []experiments.OptimizerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.OptimizerComparison(context.Background(), "c880", 8, prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-12s cost %.6g (%d evals, K=%d)", r.Algorithm, r.FinalCost, r.Evaluations, r.Modules)
	}
}

// Sensor-technology table: the quantitative version of the paper's
// argument for the bypass-MOS sensor class.
func BenchmarkSensorVariants(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []experiments.VariantRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.SensorVariants(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", experiments.FormatVariants(rows))
}

// Readout scheduling: the area-vs-test-time trade-off behind cost c5.
func BenchmarkScheduleStudy(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var rows []experiments.ScheduleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ScheduleStudy(context.Background(), "c880", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", experiments.FormatSchedules(rows))
}

// Cost-aware technology mapping (the paper's "next step").
func BenchmarkTechmapStudy(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TechmapStudy(context.Background(), "c432", prm); err != nil {
			b.Fatal(err)
		}
	}
}

// Weight sweep: the Speed-Area-Testability design-space exploration of §2.
func BenchmarkWeightSweep(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var points []experiments.WeightSweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.WeightSweep(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", experiments.FormatWeightSweep(points))
}

// Estimator pessimism: the §3.1 upper-bound guarantee, measured.
func BenchmarkEstimatorPessimism(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var worst float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Pessimism(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range points {
			if p.Ratio > worst {
				worst = p.Ratio
			}
		}
	}
	b.ReportMetric(worst, "worstPessimismX")
}

// Diagnostic resolution of on-chip per-module sensing vs one off-chip
// measurement — the fault-location payoff of the BIC architecture
// (paper reference [4]).
func BenchmarkDiagnosticResolution(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c432")
	eprm := benchEvolution()
	res, err := core.Synthesize(c, core.Options{Evolution: &eprm, ModuleSize: 40})
	if err != nil {
		b.Fatal(err)
	}
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 300
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(1)))
	gen, err := atpg.Generate(c, list, atpg.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	moduleOf := make([]int, c.NumGates())
	for i := range moduleOf {
		moduleOf[i] = res.Chip.ModuleOf(i)
	}
	b.ResetTimer()
	var classes int
	for i := 0; i < b.N; i++ {
		dict, err := diagnose.Build(c, moduleOf, list, gen.Vectors)
		if err != nil {
			b.Fatal(err)
		}
		classes = dict.Resolve().DistinctClasses
	}
	b.ReportMetric(float64(classes), "syndromeClasses")
}

// Yield vs threshold: the Monte-Carlo population study behind the d = 10
// discriminability choice. The metric is the escape rate at the paper's
// 1 µA operating point (bounded below by the ATPG excitation coverage).
func BenchmarkYieldThresholdSweep(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var at1uA float64
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.YieldStudy(context.Background(), "c432", prm)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Threshold >= 1e-6 {
				at1uA = p.Escape
				break
			}
		}
	}
	b.ReportMetric(100*at1uA, "escape%@1uA")
}

// Scan-chain ordering across the ISCAS89-like set: wiring saved by the
// nearest-neighbour order vs declaration order on the largest circuit.
func BenchmarkScanChainOrdering(b *testing.B) {
	b.ReportAllocs()
	var saved float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScanStudy()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		saved = 100 * (1 - float64(last.OrderedLen)/float64(last.DeclaredLen))
	}
	b.ReportMetric(saved, "wireSaved%")
}

// Delta-IDDQ (current-signature) detection vs the paper's fixed 1 µA
// comparator under growing die-to-die leakage spread. The metric is the
// fixed threshold's overkill at σ = 2.0, which signature analysis avoids.
func BenchmarkDeltaIDDQComparison(b *testing.B) {
	b.ReportAllocs()
	prm := benchEvolution()
	var fixedOvk, deltaOvk float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DeltaStudy(context.Background(), "c432", prm, []float64{2.0})
		if err != nil {
			b.Fatal(err)
		}
		fixedOvk = rows[0].FixedOverkill
		deltaOvk = rows[0].DeltaOverkill
	}
	b.ReportMetric(100*fixedOvk, "fixedOverkill%")
	b.ReportMetric(100*deltaOvk, "deltaOverkill%")
}

// Deterministic top-up: PODEM justification over the random-resistant
// residue of the full c432 bridge universe. Metrics: new detections and
// proofs per run.
func BenchmarkATPGDeterministicTopUp(b *testing.B) {
	b.ReportAllocs()
	c := circuits.MustISCAS85Like("c432")
	cfg := faults.DefaultConfig()
	cfg.MaxBridges = 0
	list := faults.Universe(c, cfg, rand.New(rand.NewSource(2)))
	opt := atpg.DefaultOptions()
	opt.MaxVectors = 256
	opt.TargetCoverage = 1.0
	base, err := atpg.Generate(c, list, opt)
	if err != nil {
		b.Fatal(err)
	}
	var newDet, unsat int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &atpg.Result{
			Vectors:    append([][]bool(nil), base.Vectors...),
			Detections: append([]atpg.Detection(nil), base.Detections...),
			Total:      base.Total,
		}
		tu, err := atpg.TopUp(c, list, res, 2000)
		if err != nil {
			b.Fatal(err)
		}
		newDet, unsat = tu.NewDetected, tu.ProvenUnsat
	}
	b.ReportMetric(float64(newDet), "newDetected")
	b.ReportMetric(float64(unsat), "provenUnsat")
}

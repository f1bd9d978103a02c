package experiments

import (
	"context"
	"strings"
	"testing"

	"iddqsyn/internal/evolution"
)

// fastEvolution returns evolution parameters small enough for unit tests;
// the real Table 1 runs use Table1DefaultEvolution.
func fastEvolution() evolution.Params {
	p := evolution.DefaultParams()
	p.Mu = 4
	p.Lambda = 3
	p.Chi = 1
	p.MaxGenerations = 40
	p.StallGenerations = 15
	return p
}

func TestTable1SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 in short mode")
	}
	prm := fastEvolution()
	rows, err := Table1(context.Background(), Table1Config{Circuits: []string{"c1908"}, Evolution: &prm})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Gates != 880 {
		t.Errorf("gates = %d, want 880", r.Gates)
	}
	if r.Modules < 2 || r.Modules > 8 {
		t.Errorf("modules = %d, want the Table 1 range (small)", r.Modules)
	}
	// The headline result: standard needs more sensor area at the same
	// module count (paper: 14.5%-30.6% more).
	if r.AreaOverhead <= 0 {
		t.Errorf("standard should need more area, overhead = %.1f%%", r.AreaOverhead)
	}
	// Delay and test-time overheads are small for both methods.
	for _, v := range []float64{r.DelayEvolution, r.DelayStandard, r.TestEvolution, r.TestStandard} {
		if v < 0 || v > 25 {
			t.Errorf("overhead %v%% out of the small range", v)
		}
	}
	if r.CostStandard < r.CostEvolution {
		t.Errorf("standard cost %.6g beats evolution %.6g", r.CostStandard, r.CostEvolution)
	}
	t.Logf("\n%s", FormatTable1(rows))
}

func TestFormatTable1(t *testing.T) {
	rows := []Table1Row{{
		Circuit: "cX", Gates: 10, Modules: 2,
		AreaEvolution: 1e5, AreaStandard: 1.2e5, AreaOverhead: 20,
	}}
	out := FormatTable1(rows)
	if !strings.Contains(out, "cX") || !strings.Contains(out, "20.0%") {
		t.Errorf("format:\n%s", out)
	}
}

func TestFigure1Demo(t *testing.T) {
	res, err := Figure1Demo()
	if err != nil {
		t.Fatal(err)
	}
	if !res.FaultFreePass {
		t.Error("fault-free measurement must PASS")
	}
	if res.DefectPass {
		t.Error("defect measurement must FAIL")
	}
	if res.DefectIDDQ <= res.FaultFreeIDDQ {
		t.Error("defect must raise IDDQ")
	}
	if res.DefectIDDQ < 1000*res.FaultFreeIDDQ {
		t.Errorf("defect current should dominate leakage by orders of magnitude: %g vs %g",
			res.DefectIDDQ, res.FaultFreeIDDQ)
	}
	if res.Sensor.ROn <= 0 || res.Sensor.Area <= 0 {
		t.Error("sensor must be sized")
	}
}

func TestFigure2ShapeEffect(t *testing.T) {
	res, err := Figure2(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: same-type columns switch in parallel, so the
	// column partition sees a larger worst-module current and needs
	// bigger switching devices (more area per sensor).
	if res.ColMaxIDD <= res.RowMaxIDD {
		t.Errorf("column partition must have larger îDD: col %g vs row %g",
			res.ColMaxIDD, res.RowMaxIDD)
	}
	if res.AreaRatio <= 1 {
		t.Errorf("per-sensor area ratio = %.3f, want > 1 (partition 1 preferred)", res.AreaRatio)
	}
	t.Logf("figure 2: row îDD=%.3gmA area/sensor=%.4g | col îDD=%.3gmA area/sensor=%.4g | ratio %.2f",
		1e3*res.RowMaxIDD, res.RowSensorArea/float64(res.RowModules),
		1e3*res.ColMaxIDD, res.ColSensorArea/float64(res.ColModules), res.AreaRatio)
}

func TestFigure2LargerArrays(t *testing.T) {
	for _, dims := range [][2]int{{3, 9}, {6, 6}, {4, 12}} {
		res, err := Figure2(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		if res.AreaRatio <= 1 {
			t.Errorf("%dx%d: ratio %.3f, want > 1", dims[0], dims[1], res.AreaRatio)
		}
	}
}

func TestC17TraceReachesOptimum(t *testing.T) {
	res, err := C17Trace(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedKnown {
		t.Errorf("C17 evolution did not reach the published optimum:\n%s", FormatC17Trace(res))
	}
	if len(res.Steps) == 0 {
		t.Error("no trace steps recorded")
	}
	// The optimum has two modules of three gates.
	if len(res.Final) != 2 {
		t.Errorf("final partition has %d modules, want 2", len(res.Final))
	}
	out := FormatC17Trace(res)
	if !strings.Contains(out, "final:") {
		t.Errorf("trace format:\n%s", out)
	}
}

func TestConvergenceHistoryDecreases(t *testing.T) {
	res, err := Convergence(context.Background(), "c432", 0, fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCost > res.StartCost {
		t.Errorf("diverged: %g -> %g", res.StartCost, res.FinalCost)
	}
	if res.Generations == 0 || res.Evaluations == 0 {
		t.Error("no work recorded")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in short mode")
	}
	mc, err := AblateMonteCarlo(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Baseline <= 0 || mc.Variant <= 0 {
		t.Error("ablation costs must be positive")
	}
	lt, err := AblateLifetime(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("χ ablation: base %.6g vs %.6g | ω ablation: base %.6g vs %.6g",
		mc.Baseline, mc.Variant, lt.Baseline, lt.Variant)
}

func TestWeightSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("weight sweep in short mode")
	}
	points, err := WeightSweep(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	byLabel := map[string]WeightSweepPoint{}
	for _, p := range points {
		byLabel[p.Label] = p
		if p.Modules < 1 || p.SensorArea <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Label, p)
		}
	}
	// Prioritising module count cannot yield more modules than the paper
	// weighting.
	if byLabel["few-modules"].Modules > byLabel["paper"].Modules {
		t.Errorf("few-modules yielded %d modules vs paper %d",
			byLabel["few-modules"].Modules, byLabel["paper"].Modules)
	}
	t.Logf("\n%s", FormatWeightSweep(points))
}

func TestPessimismBound(t *testing.T) {
	if testing.Short() {
		t.Skip("pessimism study in short mode")
	}
	points, err := Pessimism(context.Background(), "c432", fastEvolution())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no modules evaluated")
	}
	for _, p := range points {
		if p.Ratio < 1 {
			t.Errorf("module %d: estimate %.4g below grid-aligned peak %.4g — the §3.1 bound broke",
				p.Module, p.Estimate, p.Simulated)
		}
		// The timing-simulated reference includes hazard multiplication
		// and may exceed the single-transition estimate, but never by an
		// order of magnitude on these circuits.
		if p.Timing <= 0 {
			t.Errorf("module %d: no timing-simulated activity", p.Module)
		}
		if p.TimingRatio < 0.2 {
			t.Errorf("module %d: timing peak %.4g dwarfs the estimate %.4g",
				p.Module, p.Timing, p.Estimate)
		}
	}
}

func TestTable1UnknownCircuit(t *testing.T) {
	prm := fastEvolution()
	if _, err := Table1(context.Background(), Table1Config{Circuits: []string{"c9999"}, Evolution: &prm}); err == nil {
		t.Error("want error for unknown circuit")
	}
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/faults"
	"iddqsyn/internal/partition"
)

// Figure1Result demonstrates the BIC sensor architecture of figure 1: a
// sized sensor guarding a module, the fault-free measurement passing, and
// a defect-excited measurement failing.
type Figure1Result struct {
	Sensor        bic.Sensor
	FaultFreeIDDQ float64
	FaultFreePass bool
	DefectIDDQ    float64
	DefectPass    bool
}

// Figure1Demo sizes a sensor for C17's first module, applies a vector
// without and with an injected bridging defect, and records the sensor's
// decisions.
func Figure1Demo() (*Figure1Result, error) {
	c := circuits.C17()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		return nil, err
	}
	e := estimate.New(a, estimate.DefaultParams())
	groups := [][]int{mustIDs(c, "g1", "g3", "g5"), mustIDs(c, "g2", "g4", "g6")}
	chip, err := bic.NewChip(a, groups, e)
	if err != nil {
		return nil, err
	}
	// Vector exciting a g1-g2 bridge: I1=1, I3=1 (g1=0), I4=0 (g2=1).
	vec := []bool{true, false, true, false, false}
	clean, err := chip.ApplyVector(vec, nil)
	if err != nil {
		return nil, err
	}
	bridge := faults.Fault{
		Kind: faults.Bridge,
		A:    mustIDs(c, "g1")[0], B: mustIDs(c, "g2")[0],
		Current: 1e-3,
	}
	bad, err := chip.ApplyVector(vec, []faults.Fault{bridge})
	if err != nil {
		return nil, err
	}
	return &Figure1Result{
		Sensor:        chip.Sensors[0],
		FaultFreeIDDQ: clean[0].IDDQ,
		FaultFreePass: clean[0].Pass,
		DefectIDDQ:    bad[0].IDDQ,
		DefectPass:    bad[0].Pass,
	}, nil
}

func mustIDs(c *circuit.Circuit, names ...string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		g, ok := c.GateByName(n)
		if !ok {
			panic("experiments: unknown gate " + n)
		}
		out[i] = g.ID
	}
	return out
}

// Figure2Result compares the two partitions of the paper's figure 2 on a
// two-dimensional cell array: partition 1 groups one cell of every type
// per module (a row — the cells never switch in parallel), partition 2
// groups same-type cells (a column — all switching simultaneously).
type Figure2Result struct {
	Rows, Cols int

	RowModules    int
	RowMaxIDD     float64 // worst module îDD,max under the row partition, A
	RowSensorArea float64

	ColModules    int
	ColMaxIDD     float64
	ColSensorArea float64

	// AreaRatio = column-partition area / row-partition area (> 1 means
	// the row partition wins, the paper's point).
	AreaRatio float64
}

// Figure2 runs the group-shape experiment on a rows×cols array with three
// cell types.
func Figure2(rows, cols int) (*Figure2Result, error) {
	types := []circuit.GateType{circuit.Nand, circuit.Nor, circuit.And}
	g, err := circuits.Grid2D(rows, cols, types)
	if err != nil {
		return nil, err
	}
	a, err := celllib.Annotate(g, celllib.Default())
	if err != nil {
		return nil, err
	}
	e := estimate.New(a, estimate.DefaultParams())

	eval := func(groups [][]int) (maxIDD, area float64) {
		for _, grp := range groups {
			m := e.EvalModule(grp)
			if m.IDDMax > maxIDD {
				maxIDD = m.IDDMax
			}
			area += m.SensorArea
		}
		return
	}
	rowGroups, err := circuits.GridRowPartition(g, rows, cols)
	if err != nil {
		return nil, err
	}
	colGroups, err := circuits.GridColumnPartition(g, rows, cols)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{Rows: rows, Cols: cols,
		RowModules: len(rowGroups), ColModules: len(colGroups)}
	res.RowMaxIDD, res.RowSensorArea = eval(rowGroups)
	res.ColMaxIDD, res.ColSensorArea = eval(colGroups)
	// Compare per-module area so different module counts don't distort
	// the shape effect the figure illustrates.
	res.AreaRatio = (res.ColSensorArea / float64(res.ColModules)) /
		(res.RowSensorArea / float64(res.RowModules))
	return res, nil
}

// C17Step is one generation of the C17 running example (figures 3-5).
type C17Step struct {
	Generation int
	Modules    [][]string // gate names per module
	Cost       float64
}

// C17TraceResult reproduces the §4.3 example: the evolution run on C17
// and whether it reached the published optimum {(1,3,5), (2,4,6)}.
type C17TraceResult struct {
	Steps        []C17Step
	Final        [][]string
	FinalCost    float64
	OptimumCost  float64 // cost of the published optimum partition
	ReachedKnown bool    // final cost ≤ published optimum's cost
}

// C17Trace runs the evolution algorithm on C17 with a trace hook.
func C17Trace(ctx context.Context, seed int64) (*C17TraceResult, error) {
	c := circuits.C17()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		return nil, err
	}
	e := estimate.New(a, estimate.DefaultParams())
	w := partition.PaperWeights()
	cons := partition.DefaultConstraints()

	// The §4.3 example works at the two-module granularity.
	prm := evolution.DefaultParams()
	prm.Seed = seed
	prm.MaxGenerations = 60
	prm.StallGenerations = 20

	res := &C17TraceResult{}
	trace := func(gen int, best *partition.Partition, bestCost float64) {
		res.Steps = append(res.Steps, C17Step{
			Generation: gen,
			Modules:    groupNames(c, best.Groups()),
			Cost:       bestCost,
		})
	}
	size := 3 // two modules of three gates, the example's granularity
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	starts, err := evolution.StartPopulation(e, size, w, cons, prm)
	if err != nil {
		return nil, err
	}
	er, err := evolution.OptimizeContext(ctx, starts, prm, trace)
	if err != nil {
		return nil, err
	}
	res.Final = groupNames(c, er.Best.Groups())
	res.FinalCost = er.BestCost

	opt, err := partition.New(e, [][]int{
		mustIDs(c, "g1", "g3", "g5"),
		mustIDs(c, "g2", "g4", "g6"),
	}, w, cons)
	if err != nil {
		return nil, err
	}
	res.OptimumCost = opt.Cost()
	res.ReachedKnown = res.FinalCost <= res.OptimumCost+1e-9
	return res, nil
}

func groupNames(c *circuit.Circuit, groups [][]int) [][]string {
	out := make([][]string, len(groups))
	for i, grp := range groups {
		for _, g := range grp {
			out[i] = append(out[i], c.Gates[g].Name)
		}
	}
	return out
}

// FormatC17Trace renders the generation-by-generation partitions like the
// paper's figures 3-5.
func FormatC17Trace(res *C17TraceResult) string {
	var sb strings.Builder
	for _, s := range res.Steps {
		fmt.Fprintf(&sb, "generation %2d: C=%.6g  %v\n", s.Generation, s.Cost, s.Modules)
	}
	fmt.Fprintf(&sb, "final: %v (C=%.6g, published optimum C=%.6g, reached=%v)\n",
		res.Final, res.FinalCost, res.OptimumCost, res.ReachedKnown)
	return sb.String()
}

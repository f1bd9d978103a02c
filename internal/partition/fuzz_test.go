package partition_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/estimate/estimatetest"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// fuzzCircuits are the circuits FuzzMoveSequence partitions, selected by
// the input's first byte. Their estimators are built once per process.
var fuzzCircuits = []func() (*circuit.Circuit, error){
	func() (*circuit.Circuit, error) { return circuits.ISCAS85Like("c432") },
	func() (*circuit.Circuit, error) { return circuits.ISCAS85Like("c1908") },
	func() (*circuit.Circuit, error) {
		return circuits.RandomLogic(circuits.Spec{
			Name: "rand2k", Inputs: 120, Outputs: 60, Gates: 2000, Depth: 30, Seed: 5,
		})
	},
}

var (
	fuzzOnce       [3]sync.Once
	fuzzEstimators [3]*estimate.Estimator
	fuzzErrs       [3]error
)

func fuzzEstimator(t *testing.T, which int) *estimate.Estimator {
	fuzzOnce[which].Do(func() {
		c, err := fuzzCircuits[which]()
		if err != nil {
			fuzzErrs[which] = err
			return
		}
		a, err := celllib.Annotate(c, celllib.Default())
		if err != nil {
			fuzzErrs[which] = err
			return
		}
		fuzzEstimators[which] = estimate.New(a, estimate.DefaultParams())
	})
	if fuzzErrs[which] != nil {
		t.Fatal(fuzzErrs[which])
	}
	return fuzzEstimators[which]
}

// maxFuzzMoves bounds one input's move sequence, so every input — the
// seed corpus runs in the ordinary test suite — stays cheap.
const maxFuzzMoves = 40

// FuzzMoveSequence applies a sequence of random legal MoveGates calls to
// a chain start partition and, after every move, checks the partition's
// incrementally kept state against from-scratch oracles: every module's
// S(M) against SeparationModule, every cached estimate against
// partcheck.CompareEstimate, D_BIC against the per-gate reference
// longest-path pass, and the cost vector's bits against a fresh
// partition.New over the same groups. The oracles read a clone, so the
// partition under test keeps any S(M) a move left stale, and later moves
// meet it. Each byte of ops picks one move:
//
//	0: a boundary gate to a connected module (the §4.2 mutation)
//	1: any gate to any other module
//	2: a random subset of a module to another (the Monte-Carlo move)
//	3: all gates of the smallest module (deletes it)
//	4: a move on a clone, which must leave the parent untouched; the
//	   sequence continues on the clone
//	5: a Monte-Carlo move that leaves both modules' S stale, then single
//	   gates back and forth between the same two modules
func FuzzMoveSequence(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(6), []byte{0, 1, 2, 3, 4, 0, 0, 1, 2, 4, 3, 0, 2, 1, 0, 4})
	f.Add(uint8(0), int64(2), uint8(30), []byte{3, 3, 3, 2, 2, 0, 1, 4, 4, 0, 3, 1})
	f.Add(uint8(1), int64(3), uint8(12), []byte{0, 0, 1, 2, 3, 4, 0, 1, 0, 2, 4, 3, 1, 0})
	f.Add(uint8(1), int64(4), uint8(2), []byte{3, 0, 4, 1, 3, 2, 0, 0})
	f.Add(uint8(2), int64(5), uint8(10), []byte{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 1, 0})
	f.Add(uint8(2), int64(6), uint8(40), []byte{2, 2, 4, 0, 0, 3, 1})
	// Stale S(M): single-gate moves after a Monte-Carlo move on the same
	// modules, and clones taken while S is stale.
	f.Add(uint8(0), int64(7), uint8(8), []byte{5, 5, 2, 4, 0, 5, 2, 1, 4, 5})
	f.Add(uint8(1), int64(8), uint8(16), []byte{2, 4, 5, 4, 2, 9, 5, 0})
	f.Add(uint8(2), int64(9), uint8(24), []byte{5, 2, 4, 1, 5, 2, 14, 5})
	f.Fuzz(func(t *testing.T, which uint8, seed int64, size uint8, ops []byte) {
		e := fuzzEstimator(t, int(which)%len(fuzzCircuits))
		rng := rand.New(rand.NewSource(seed))
		groups := standard.ChainStartPartition(e.A.Circuit, 1+int(size)%48, rng)
		p, err := partition.New(e, groups, partition.PaperWeights(), partition.DefaultConstraints())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracles(t, p, -1)
		for step, op := range ops[:min(len(ops), maxFuzzMoves)] {
			if p.NumModules() < 2 {
				return
			}
			switch op % 6 {
			case 4:
				parent, before := p, snapshot(p)
				p = p.Clone()
				randomMove(p, op/6, rng)
				if after := snapshot(parent); !slices.Equal(after.cost, before.cost) || !equalGroups(after.groups, before.groups) {
					t.Fatalf("step %d: a move on a clone changed its parent", step)
				}
				checkAgainstOracles(t, parent, step)
			case 5:
				staleMoves(t, p, rng, step)
			default:
				randomMove(p, op, rng)
			}
			checkAgainstOracles(t, p, step)
		}
	})
}

// randomMove applies one legal move of kind op%4 (see FuzzMoveSequence).
// Draws that find no legal move leave p unchanged.
func randomMove(p *partition.Partition, op byte, rng *rand.Rand) {
	k := p.NumModules()
	from := rng.Intn(k)
	to := rng.Intn(k - 1)
	if to >= from {
		to++
	}
	var gates []int
	switch op % 4 {
	case 0:
		boundary := p.BoundaryGates(from)
		if len(boundary) == 0 {
			return
		}
		g := boundary[rng.Intn(len(boundary))]
		targets := p.ConnectedModules(g)
		if len(targets) == 0 {
			return
		}
		gates, to = []int{g}, targets[rng.Intn(len(targets))]
	case 1:
		own := p.ModuleGates(from)
		gates = []int{own[rng.Intn(len(own))]}
	case 2:
		gates = p.ModuleGates(from)
		rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
		gates = gates[:1+rng.Intn(len(gates))]
	case 3:
		for mi := 0; mi < k; mi++ {
			if p.ModuleSize(mi) < p.ModuleSize(from) {
				from = mi
			}
		}
		if to == from {
			to = (from + 1) % k
		}
		gates = p.ModuleGates(from)
	}
	if _, err := p.MoveGates(gates, from, to); err != nil {
		panic(err) // every move drawn above is legal
	}
}

// staleMoves moves a random proper subset of one module to another,
// which leaves both modules' S(M) stale, then single gates from the
// target back to the source and on, checking the oracles after every
// move. A source with fewer than two gates leaves p unchanged.
func staleMoves(t *testing.T, p *partition.Partition, rng *rand.Rand, step int) {
	t.Helper()
	a := rng.Intn(p.NumModules())
	if p.ModuleSize(a) < 2 {
		return
	}
	b := (a + 1 + rng.Intn(p.NumModules()-1)) % p.NumModules()
	gates := p.ModuleGates(a)
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	b, err := p.MoveGates(gates[:1+rng.Intn(len(gates)-1)], a, b)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	checkAgainstOracles(t, p, step)
	for i := 0; i < 3 && p.ModuleSize(b) > 1; i++ {
		own := p.ModuleGates(b)
		if _, err := p.MoveGates(own[rng.Intn(len(own)):][:1], b, a); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAgainstOracles(t, p, step)
		a, b = b, a
	}
}

type partitionSnapshot struct {
	groups [][]int
	cost   []uint64
}

// snapshot reads p through a clone, so p keeps any stale S(M).
func snapshot(p *partition.Partition) partitionSnapshot {
	return partitionSnapshot{groups: p.Groups(), cost: costBits(p.Clone().Costs())}
}

func costBits(cv partition.CostVector) []uint64 {
	out := []uint64{uint64(cv.Separation)}
	for _, v := range []float64{cv.LogArea, cv.DelayOverhead, cv.LogSeparation, cv.TestTime,
		cv.Modules, cv.SensorArea, cv.DBIc, cv.DNominal} {
		out = append(out, math.Float64bits(v))
	}
	return out
}

func equalGroups(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// checkAgainstOracles fails t unless p's incremental state matches a
// from-scratch evaluation exactly. It reads a clone of p: reading S(M)
// rescans a stale value, and p must keep it stale for the moves to come.
func checkAgainstOracles(t *testing.T, p *partition.Partition, step int) {
	t.Helper()
	p = p.Clone()
	if err := p.Verify(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	for mi := 0; mi < p.NumModules(); mi++ {
		if got, want := p.ModuleSeparation(mi), p.E.SeparationModule(p.ModuleGates(mi)); got != want {
			t.Fatalf("step %d: module %d: S(M) = %d, recomputed %d", step, mi, got, want)
		}
		if vs := partcheck.CompareEstimate(p.E, mi, p.ModuleEstimate(mi)); len(vs) != 0 {
			t.Fatalf("step %d: %v", step, vs)
		}
	}
	moduleOf := make([]int, p.E.A.Circuit.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	mods := make([]*estimate.Module, p.NumModules())
	for mi := range mods {
		mods[mi] = p.ModuleEstimate(mi)
	}
	want, err := estimatetest.LongestPath(p.E, moduleOf, mods)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if got := p.Costs().DBIc; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: D_BIC = %x, reference %x", step, got, want)
	}
	fresh, err := partition.New(p.E, p.Groups(), p.W, p.Cons)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if got, want := costBits(p.Costs()), costBits(fresh.Costs()); !slices.Equal(got, want) {
		t.Fatalf("step %d: cost bits %x, fresh partition %x", step, got, want)
	}
	if p.Cost() != fresh.Cost() {
		t.Fatalf("step %d: Cost() = %x, fresh partition %x", step, p.Cost(), fresh.Cost())
	}
}

package standard

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"iddqsyn/internal/celllib"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

func estimatorFor(t *testing.T, c *circuit.Circuit) *estimate.Estimator {
	t.Helper()
	a, err := celllib.Annotate(c, celllib.Default())
	if err != nil {
		t.Fatal(err)
	}
	return estimate.New(a, estimate.DefaultParams())
}

// checkCover verifies a gate grouping is a valid partition of c.
func checkCover(t *testing.T, c *circuit.Circuit, groups [][]int) {
	t.Helper()
	seen := map[int]bool{}
	for gi, grp := range groups {
		if len(grp) == 0 {
			t.Fatalf("group %d empty", gi)
		}
		for _, g := range grp {
			if seen[g] {
				t.Fatalf("gate %d in two groups", g)
			}
			seen[g] = true
			if c.Gates[g].Type == circuit.Input {
				t.Fatalf("primary input %d grouped", g)
			}
		}
	}
	if len(seen) != c.NumLogicGates() {
		t.Fatalf("groups cover %d of %d gates", len(seen), c.NumLogicGates())
	}
}

func TestEstimateModuleSizeBounds(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	cons := partition.DefaultConstraints()
	s := EstimateModuleSize(e, partition.PaperWeights(), cons)
	if s < 1 || s > c.NumLogicGates() {
		t.Fatalf("size %d out of range", s)
	}
	// The discriminability cap must hold: s gates of average leakage must
	// stay below IDDQ,th / d.
	var leakSum float64
	logic := c.LogicGates()
	for _, g := range logic {
		leakSum += e.A.LeakMax[g]
	}
	leakAvg := leakSum / float64(len(logic))
	if float64(s)*leakAvg > e.P.IDDQth/cons.MinDiscriminability*1.0001 {
		t.Errorf("size %d violates the averaged discriminability cap", s)
	}
}

func TestEstimateModuleSizeTightConstraintShrinks(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	w := partition.PaperWeights()
	loose := EstimateModuleSize(e, w, partition.Constraints{MinDiscriminability: 2})
	tight := EstimateModuleSize(e, w, partition.Constraints{MinDiscriminability: 5000})
	if tight > loose {
		t.Errorf("tighter discriminability must not grow modules: %d > %d", tight, loose)
	}
}

func TestChainStartPartitionCovers(t *testing.T) {
	c := circuits.C17()
	rng := rand.New(rand.NewSource(1))
	groups := ChainStartPartition(c, 2, rng)
	checkCover(t, c, groups)
	for _, grp := range groups {
		if len(grp) > 2 {
			t.Errorf("group size %d exceeds max 2", len(grp))
		}
	}
}

func TestChainStartPartitionIsChain(t *testing.T) {
	// Each multi-gate module must be a fanout chain: gate i+1 in the
	// module is a fanout of gate i in generation order. After sorting we
	// can at least check connectivity within the module graph.
	c := circuits.MustISCAS85Like("c432")
	rng := rand.New(rand.NewSource(7))
	groups := ChainStartPartition(c, 5, rng)
	checkCover(t, c, groups)
	for _, grp := range groups {
		if len(grp) < 2 {
			continue
		}
		inGrp := map[int]bool{}
		for _, g := range grp {
			inGrp[g] = true
		}
		for _, g := range grp {
			connected := false
			for _, nb := range c.Neighbors(g) {
				if inGrp[nb] {
					connected = true
					break
				}
			}
			if !connected {
				t.Fatalf("gate %d isolated inside its chain module %v", g, grp)
			}
		}
	}
}

func TestChainStartPartitionDifferentSeedsDiffer(t *testing.T) {
	c := circuits.MustISCAS85Like("c880")
	g1 := ChainStartPartition(c, 6, rand.New(rand.NewSource(1)))
	g2 := ChainStartPartition(c, 6, rand.New(rand.NewSource(2)))
	if equalGroups(g1, g2) {
		t.Error("different seeds should produce different start partitions")
	}
	g1b := ChainStartPartition(c, 6, rand.New(rand.NewSource(1)))
	if !equalGroups(g1, g1b) {
		t.Error("same seed must reproduce the start partition")
	}
}

// chainStartReference is the map-based ChainStartPartition the flat
// implementation replaced (with IsOutput's former scan of Outputs), kept
// as its oracle: the two must return the same groups and draw the same
// rng stream.
func chainStartReference(c *circuit.Circuit, maxModuleSize int, rng *rand.Rand) [][]int {
	if maxModuleSize < 1 {
		maxModuleSize = 1
	}
	levels := c.Levels()
	free := make(map[int]bool)
	var order []int
	for _, g := range c.LogicGates() {
		free[g] = true
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool {
		if levels[order[i]] != levels[order[j]] {
			return levels[order[i]] < levels[order[j]]
		}
		return order[i] < order[j]
	})

	var groups [][]int
	for _, start := range order {
		if !free[start] {
			continue
		}
		module := []int{start}
		free[start] = false
		cur := start
		for len(module) < maxModuleSize {
			var nexts []int
			if !slices.Contains(c.Outputs, cur) {
				for _, f := range c.Gates[cur].Fanout {
					if free[f] {
						nexts = append(nexts, f)
					}
				}
			}
			if len(nexts) == 0 {
				nexts = adjacentFreeReference(c, module, free)
				if len(nexts) == 0 {
					break
				}
			}
			cur = nexts[rng.Intn(len(nexts))]
			free[cur] = false
			module = append(module, cur)
		}
		sort.Ints(module)
		groups = append(groups, module)
	}
	return groups
}

// adjacentFreeReference is the map-based adjacentFree that
// chainStartReference restarts chains from.
func adjacentFreeReference(c *circuit.Circuit, module []int, free map[int]bool) []int {
	seen := map[int]bool{}
	var out []int
	for _, g := range module {
		for _, nb := range c.Neighbors(g) {
			if free[nb] && !seen[nb] {
				seen[nb] = true
				out = append(out, nb)
			}
		}
	}
	sort.Ints(out)
	return out
}

func TestChainStartPartitionMatchesReference(t *testing.T) {
	rand2k, err := circuits.RandomLogic(circuits.Spec{
		Name: "rand2k", Inputs: 120, Outputs: 60, Gates: 2000, Depth: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*circuit.Circuit{
		circuits.C17(), circuits.MustISCAS85Like("c432"), circuits.MustISCAS85Like("c1908"), rand2k,
	} {
		n := c.NumLogicGates()
		est := EstimateModuleSize(estimatorFor(t, c), partition.PaperWeights(), partition.DefaultConstraints())
		for _, size := range []int{1, 2, est, n, n + 7} {
			for _, seed := range []int64{1, 2} {
				rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := ChainStartPartition(c, size, rngGot)
				want := chainStartReference(c, size, rngWant)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s size %d seed %d: groups differ from the reference (%d vs %d groups)",
						c.Name, size, seed, len(got), len(want))
				}
				if a, b := rngGot.Int63(), rngWant.Int63(); a != b {
					t.Errorf("%s size %d seed %d: rng streams diverged", c.Name, size, seed)
				}
			}
		}
	}
}

func equalGroups(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestStandardPartitionC17(t *testing.T) {
	c := circuits.C17()
	groups := StandardPartition(c, 3, 10)
	checkCover(t, c, groups)
	if len(groups) != 2 {
		t.Errorf("6 gates at size 3: %d groups, want 2", len(groups))
	}
	for _, grp := range groups {
		if len(grp) != 3 {
			t.Errorf("group size %d, want 3", len(grp))
		}
	}
}

func TestStandardPartitionClustersAreTight(t *testing.T) {
	// The greedy criterion clusters closely connected gates, so the summed
	// separation of its modules should beat a random partition of equal
	// sizes on average.
	c := circuits.MustISCAS85Like("c432")
	e := estimatorFor(t, c)
	groups := StandardPartition(c, 20, e.P.Rho)
	checkCover(t, c, groups)

	sepOf := func(groups [][]int) int {
		sum := 0
		for _, grp := range groups {
			sum += e.SeparationModule(grp)
		}
		return sum
	}
	stdSep := sepOf(groups)

	rng := rand.New(rand.NewSource(3))
	logic := c.LogicGates()
	worse := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		perm := append([]int(nil), logic...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var random [][]int
		for i := 0; i < len(perm); i += 20 {
			end := i + 20
			if end > len(perm) {
				end = len(perm)
			}
			random = append(random, perm[i:end])
		}
		if sepOf(random) > stdSep {
			worse++
		}
	}
	if worse < trials {
		t.Errorf("standard partitioning beat only %d/%d random partitions on separation", worse, trials)
	}
}

func TestStandardPartitionK(t *testing.T) {
	c := circuits.MustISCAS85Like("c432")
	for _, k := range []int{2, 4, 8} {
		groups := StandardPartitionK(c, k, 10)
		checkCover(t, c, groups)
		// Allow slack: trailing gates can create an extra small module.
		if len(groups) < k || len(groups) > k+2 {
			t.Errorf("k=%d: got %d modules", k, len(groups))
		}
	}
}

// Property: StandardPartition always yields a valid cover for any module
// size, on a variety of circuits.
func TestStandardPartitionAlwaysValid(t *testing.T) {
	prop := func(seed int64, sizeSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := circuits.RandomLogic(circuits.Spec{
			Name: "p", Inputs: 8, Outputs: 3,
			Gates: 30 + rng.Intn(50), Depth: 5 + rng.Intn(5), Seed: seed,
		})
		if err != nil {
			return false
		}
		size := 1 + int(sizeSel%20)
		groups := StandardPartition(c, size, 10)
		seen := map[int]bool{}
		for _, grp := range groups {
			if len(grp) == 0 || len(grp) > size {
				return false
			}
			for _, g := range grp {
				if seen[g] {
					return false
				}
				seen[g] = true
			}
		}
		return len(seen) == c.NumLogicGates()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStandardPartitionDegenerateSizes(t *testing.T) {
	c := circuits.C17()
	groups := StandardPartition(c, 0, 0) // clamps to 1/1
	checkCover(t, c, groups)
	if len(groups) != 6 {
		t.Errorf("size 1: %d singleton groups, want 6", len(groups))
	}
	groups = StandardPartition(c, 100, 10)
	checkCover(t, c, groups)
	if len(groups) != 1 {
		t.Errorf("oversized module: %d groups, want 1", len(groups))
	}
}

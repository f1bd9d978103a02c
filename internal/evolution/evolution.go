// Package evolution implements the evolution-based optimization algorithm
// of §4: a (μ, λ, χ)-strategy with duplication as recombination, a
// boundary-gate mutation operator, additional high-variance Monte-Carlo
// descendants against local minima, lifetime-limited selection (parents
// older than ω generations are deleted) and self-adaptation of the
// mutation step width m with normal variation ε — the control-parameter
// scheme the paper adapts from Rechenberg and Schwefel [17-19].
package evolution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// Params are the evolution control parameters of §4.2.
type Params struct {
	Mu     int // μ: number of parents
	Lambda int // λ: number of (mutation) children per parent
	Chi    int // χ: number of Monte-Carlo descendants per parent
	Omega  int // ω: maximum lifetime in generations

	MaxMove int     // m: initial maximum number of gates moved per mutation
	Epsilon float64 // ε: standard deviation of the step-width adaptation

	MaxGenerations   int // hard generation budget
	StallGenerations int // stop after this many generations without improvement

	Seed int64

	// Workers sets the number of goroutines evaluating costs in
	// parallel: the descendants', and the start population's first. The
	// rand stream stays on one goroutine (mutation and chain drawing are
	// sequential), so the result is bit-identical for any worker count.
	// 0 uses runtime.GOMAXPROCS(0) workers; 1 evaluates sequentially.
	Workers int
}

// workers resolves Workers (see there).
func (p Params) workers() int {
	if p.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// DefaultParams returns a configuration that converges on every benchmark
// circuit of the experiments.
func DefaultParams() Params {
	return Params{
		Mu:               8,
		Lambda:           4,
		Chi:              2,
		Omega:            8,
		MaxMove:          4,
		Epsilon:          1.5,
		MaxGenerations:   400,
		StallGenerations: 40,
		Seed:             1,
	}
}

func (p Params) validate() error {
	switch {
	case p.Mu < 1:
		return fmt.Errorf("evolution: μ must be >= 1")
	case p.Lambda < 1:
		return fmt.Errorf("evolution: λ must be >= 1")
	case p.Chi < 0:
		return fmt.Errorf("evolution: χ must be >= 0")
	case p.Omega < 1:
		return fmt.Errorf("evolution: ω must be >= 1")
	case p.MaxMove < 1:
		return fmt.Errorf("evolution: m must be >= 1")
	case p.Epsilon <= 0:
		return fmt.Errorf("evolution: ε must be positive")
	case p.MaxGenerations < 1:
		return fmt.Errorf("evolution: generation budget must be >= 1")
	case p.StallGenerations < 1:
		return fmt.Errorf("evolution: stall window must be >= 1")
	}
	return nil
}

// Move records one applied gate move, for the trace of the C17 example
// (figures 3-5).
type Move struct {
	Gates      []int
	FromModule []int // paper notation: the source module's gate list
	ToModule   []int
	MonteCarlo bool
}

// Trace receives the best individual after every generation. gen is
// 1-based; best is a snapshot safe to keep.
type Trace func(gen int, best *partition.Partition, bestCost float64)

// Result reports an optimization run.
type Result struct {
	Best        *partition.Partition
	BestCost    float64
	Generations int
	Evaluations int       // descendant cost evaluations
	History     []float64 // best cost per generation

	// Interrupted reports that the run was cancelled (context done) at a
	// generation boundary and Best holds the best-so-far individual rather
	// than a converged one. Err then wraps the context's error;
	// interruption is not a failure, so the optimizer's error return stays
	// nil.
	Interrupted bool
	Err         error
}

// origin tags how an individual entered the population, for the
// acceptance telemetry (it never influences selection).
const (
	originStart uint8 = iota
	originMutation
	originMonteCarlo
)

type individual struct {
	p      *partition.Partition
	cost   float64
	age    int
	m      int // self-adapted step width
	origin uint8
}

// infeasiblePenalty grades constraint violations: Γ(Π) is a hard
// constraint in the paper, but an all-infeasible population needs a
// gradient towards feasibility, so a violation adds a penalty that
// dominates every regular cost term yet still orders individuals by how
// far their worst module is from the required discriminability.
const infeasiblePenalty = 1e9

// costOf grades a partition for selection: the weighted global cost plus
// the graded infeasibility penalty. It is pure (no shared state), so
// descendants can be evaluated on a worker pool. It is annotated as a hot
// root directly (not just via newEvalPool) because the pool runs its jobs
// as function values, indirect calls the static call graph cannot resolve.
//
//lint:hotpath cost of every descendant, λ times per generation — the estimate sweep underneath dominates run time
func costOf(p *partition.Partition) float64 {
	c := p.Cost()
	if worst := p.WorstDiscriminability(); worst < p.Cons.MinDiscriminability {
		c += infeasiblePenalty * (1 + math.Log(p.Cons.MinDiscriminability/worst))
	}
	return c
}

// OptimizeControlled runs the evolution cycle of §4 on an explicit start
// population (see StartPopulation). Every start partition must share the
// same estimator, weights and constraints. Infeasible individuals
// (Γ(Π) = 0) are penalised so heavily that any feasible descendant
// dominates them, with the penalty graded by the size of the violation so
// evolution can climb back to feasibility.
//
// The context is checked at every generation boundary, and a cancelled
// run returns the best-so-far Result with Interrupted set (and a nil
// error) instead of discarding the work done so far. trace and ctl may be
// nil. If ctl names a checkpoint file, the full optimizer state is
// persisted there periodically and on interruption, so a killed run can
// be resumed bit-identically with ResumeContext.
func OptimizeControlled(ctx context.Context, starts []*partition.Partition, prm Params, trace Trace, ctl *Control) (*Result, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("evolution: empty start population")
	}
	s := newState(ctx, prm, 0, ctl)
	s.pop = make([]*individual, 0, len(starts))
	for _, st := range starts {
		s.pop = append(s.pop, &individual{p: st, m: prm.MaxMove})
	}
	s.obs.log.Info("evolution run begin",
		"circuit", starts[0].E.A.Circuit.Name,
		"mu", prm.Mu, "lambda", prm.Lambda, "chi", prm.Chi,
		"max_generations", prm.MaxGenerations, "seed", prm.Seed,
		"workers", prm.workers())
	eval := newEvalPool(prm.workers(), len(s.pop), s.obs.evalSeconds, s.chaos)
	//lint:ignore ctxloop μ submissions; cancellation is handled at generation boundaries, after this first evaluation
	for i, ind := range s.pop {
		eval.submit(evalJob{i, ind})
	}
	if err := eval.wait(); err != nil {
		return nil, err
	}
	s.res.Evaluations += len(s.pop)
	s.obs.evaluations.Add(uint64(len(s.pop)))
	best := cheapest(s.pop)
	s.res.Best = best.p.Clone()
	s.res.BestCost = best.cost
	return s.run(ctx, trace, ctl)
}

// moveScratch holds the reusable buffers of the mutation operators.
// Mutation is sequential (one rand stream), so one scratch per generation
// loop serves every descendant; the buffers never escape a single
// mutate/monteCarlo call.
type moveScratch struct {
	gates   []int  // boundary gates / module copy for shuffling
	targets []int  // legal target modules of one gate
	one     [1]int // single-gate argument for MoveGates
}

// mutate applies the §4.2 mutation: a random module M_start is selected,
// its boundary gates determined, m_move ∈ {1, ..., min(m, m_boundary)}
// gates chosen uniformly, and each moved into a (random, if several)
// module it is connected with. Returns false if no move was possible.
//
//lint:hotpath runs once per descendant per generation; its partition edits must reuse the moveScratch buffers
func mutate(p *partition.Partition, m int, rng *rand.Rand, sc *moveScratch) bool {
	if p.NumModules() < 2 {
		return false
	}
	// Try a few modules: some have no boundary gates with legal targets.
	for attempt := 0; attempt < 8; attempt++ {
		src := rng.Intn(p.NumModules())
		boundary := p.AppendBoundaryGates(sc.gates[:0], src)
		sc.gates = boundary[:0]
		if len(boundary) == 0 {
			continue
		}
		max := m
		if len(boundary) < max {
			max = len(boundary)
		}
		mMove := 1 + rng.Intn(max)
		//lint:ignore hotalloc non-escaping swap closure passed to rng.Shuffle, stack-allocated
		rng.Shuffle(len(boundary), func(i, j int) { boundary[i], boundary[j] = boundary[j], boundary[i] })
		moved := false
		for _, g := range boundary[:mMove] {
			from := p.ModuleOf(g)
			targets := p.AppendConnectedModules(sc.targets[:0], g)
			sc.targets = targets[:0]
			if len(targets) == 0 {
				continue
			}
			to := targets[rng.Intn(len(targets))]
			sc.one[0] = g
			if _, err := p.MoveGates(sc.one[:], from, to); err == nil {
				moved = true
			}
			if p.NumModules() < 2 {
				break
			}
		}
		if moved {
			return true
		}
	}
	return false
}

// monteCarlo applies the §4.2 high-variance operator: a random number of
// gates of a random module M_start is moved into a random module
// M_target (not necessarily connected). If all gates move, M_start is
// deleted.
//
//lint:hotpath high-variance mutation operator, runs χλ times per generation
func monteCarlo(p *partition.Partition, rng *rand.Rand, sc *moveScratch) bool {
	if p.NumModules() < 2 {
		return false
	}
	src := rng.Intn(p.NumModules())
	dst := rng.Intn(p.NumModules() - 1)
	if dst >= src {
		dst++
	}
	gates := p.AppendModuleGates(sc.gates[:0], src)
	sc.gates = gates[:0]
	n := 1 + rng.Intn(len(gates))
	//lint:ignore hotalloc non-escaping swap closure passed to rng.Shuffle, stack-allocated
	rng.Shuffle(len(gates), func(i, j int) { gates[i], gates[j] = gates[j], gates[i] })
	_, err := p.MoveGates(gates[:n], src, dst)
	return err == nil
}

// adaptStep draws the child's step width from a normal distribution
// around the parent's (§4.2: "the new m is subject to normal distribution
// with variance ε around the m of the step before").
func adaptStep(m int, eps float64, rng *rand.Rand) int {
	nm := int(math.Round(float64(m) + rng.NormFloat64()*eps))
	if nm < 1 {
		nm = 1
	}
	return nm
}

func cheapest(pop []*individual) *individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.cost < best.cost {
			best = ind
		}
	}
	return best
}

// selectBest returns the mu cheapest individuals (or all, if fewer).
func selectBest(pool []*individual, mu int) []*individual {
	// Simple selection sort over a small pool keeps determinism obvious.
	n := len(pool)
	if mu > n {
		mu = n
	}
	out := make([]*individual, 0, mu)
	used := make([]bool, n)
	for k := 0; k < mu; k++ {
		bi := -1
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if bi == -1 || pool[i].cost < pool[bi].cost {
				bi = i
			}
		}
		used[bi] = true
		out = append(out, pool[bi])
	}
	return out
}

// StartPopulation builds the μ chain-based start partitions of §4.2
// (module size at most size) and evaluates each one's cost. Chains are
// drawn in order from one rand stream seeded with prm.Seed, because
// ChainStartPartition draws a data-dependent number of times; each drawn
// chain's partition.New and first cost touch no random state, so they run
// on a pool of prm.Workers goroutines while the next chain is drawn. The
// result is bit-identical for any worker count. A panic while building a
// start (a poisoned estimator, say) is returned as an error with its
// chain intact, and no goroutine outlives the call.
//
// Deliberately not cancellable: a cancelled run must still return a
// best-so-far Result, so the start population has to exist before the
// generation loop can honour a context at its boundaries.
func StartPopulation(e *estimate.Estimator, size int, w partition.Weights, cons partition.Constraints, prm Params) ([]*partition.Partition, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	c := e.A.Circuit
	rng := rand.New(rand.NewSource(prm.Seed))
	starts := make([]*partition.Partition, prm.Mu)
	type job struct {
		i      int
		groups [][]int
	}
	build := newPool(prm.workers(), prm.Mu, func(j job) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = panicError(r, "evolution: start partition", j.i)
			}
		}()
		p, err := partition.New(e, j.groups, w, cons)
		if err != nil {
			return fmt.Errorf("evolution: start partition %d: %w", j.i, err)
		}
		costOf(p) // cached in p: the first evaluation finds it ready
		starts[j.i] = p
		return nil
	})
	defer build.wait() // joins the workers even if drawing panics
	for i := range starts {
		build.submit(job{i, standard.ChainStartPartition(c, size, rng)})
	}
	if err := build.wait(); err != nil {
		return nil, err
	}
	return starts, nil
}

// panicError turns a recovered panic value into an error naming what
// panicked, item i of a batch. An error value (the estimator's numeric
// guards panic with wrapped errors) is wrapped rather than stringified,
// so errors.Is sees through the recover boundary.
func panicError(r interface{}, what string, i int) error {
	if perr, ok := r.(error); ok {
		return fmt.Errorf("%s %d panicked: %w", what, i, perr)
	}
	return fmt.Errorf("%s %d panicked: %v", what, i, r)
}

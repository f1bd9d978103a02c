// Run control for the evolution strategy: cooperative cancellation at
// generation boundaries, periodic crash-safe checkpointing, and panic
// containment in the parallel cost-evaluation workers. The optimizer
// state lives in a single `state` value so an interrupted run, a resumed
// run and an uninterrupted run all execute the identical generation loop
// — the basis of the bit-identical resume guarantee.

package evolution

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/fsx"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partition"
)

// DefaultCheckpointEvery is the checkpoint cadence, in generations, used
// when a Control names a checkpoint file but leaves CheckpointEvery zero.
const DefaultCheckpointEvery = 10

// Control configures run control for one optimization run.
type Control struct {
	// CheckpointPath, if non-empty, makes the optimizer persist its full
	// state to this file every CheckpointEvery generations and on
	// interruption. Writes are atomic (temp file + rename), so a crash
	// never leaves a truncated checkpoint behind.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in generations
	// (0 = DefaultCheckpointEvery).
	CheckpointEvery int

	// Obs, if non-nil, observes the run: per-generation counters, gauges
	// and latency histograms, structured log events, the live /runz
	// status, and a metrics snapshot inside every checkpoint (restored on
	// resume so cumulative counters continue monotonically). When nil the
	// Obs carried by the run's context (obs.FromContext) is used instead;
	// if that is also nil the run is unobserved at zero cost.
	Obs *obs.Obs

	// FS, if non-nil, routes every checkpoint write through this
	// filesystem instead of the real one. Chaos tests pass a chaos.FS
	// here to provoke torn writes, full disks and failed renames.
	FS fsx.FS

	// Retry, if non-nil, overrides the bounded retry-with-backoff policy
	// for checkpoint writes (nil = fsx defaults: 3 attempts, jittered
	// exponential backoff from 2ms). The run's OnRetry telemetry is
	// layered on top of any callback set here.
	Retry *fsx.RetryPolicy

	// Chaos, if non-nil, injects faults into the run's failure surfaces
	// (worker panics/delays; combine with FS for I/O faults). When nil
	// the injector carried by the run's context (chaos.FromContext) is
	// used instead; if that is also nil, nothing is ever injected and the
	// run is bit-identical to an uninstrumented one.
	Chaos *chaos.Injector
}

func (c *Control) every() int {
	if c == nil || c.CheckpointPath == "" {
		return 0
	}
	if c.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return c.CheckpointEvery
}

// countingSource wraps the standard math/rand source and counts how many
// times it was stepped. Every Int63 and Uint64 call advances the
// underlying generator by exactly one step, so replaying `draws` steps on
// a fresh source of the same seed reproduces the generator state exactly
// — which is how a resumed run re-enters the random sequence at the
// position the checkpoint captured.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// skip advances the source by n steps (used on resume).
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Int63()
	}
	s.draws = n
}

// state is the complete optimizer state between two generations: the
// checkpoint serializes exactly this (plus the RNG draw count), and the
// generation loop below is the only code that mutates it.
type state struct {
	prm     Params
	src     *countingSource
	rng     *rand.Rand
	pop     []*individual
	res     *Result
	stall   int
	nextGen int // first generation the loop will run (1 for fresh runs)
	obs     *runObs

	// tsp is the causal-trace span the run's context carried in (the
	// serving layer's core.optimize phase); per-generation evaluate /
	// select / checkpoint child spans hang off it. Nil when untraced —
	// every use then costs one pointer comparison and zero allocations,
	// which the TestDescendantAllocs bound holds the hot path to.
	tsp *obs.TraceSpan

	// mv is the mutation operators' scratch memory. It carries no run
	// state (checkpoints ignore it) — it only keeps the sequential
	// mutation phase allocation-free.
	mv moveScratch

	// Failure-surface plumbing, resolved once by attachControl. None of
	// it ever touches the seeded random stream: an inert injector and the
	// real filesystem leave the run bit-identical to an unplumbed one.
	chaos *chaos.Injector
	fs    fsx.FS
	retry *fsx.RetryPolicy
}

// attachControl resolves the run's failure-surface plumbing: the fault
// injector (explicit Control field first, then the context carriage), the
// checkpoint filesystem, and the retry policy with the run's telemetry
// layered onto its OnRetry callback.
func (s *state) attachControl(ctx context.Context, ctl *Control) {
	s.chaos = resolveChaos(ctx, ctl)
	s.tsp = obs.SpanFromContext(ctx)
	s.fs = fsx.OS{}
	if ctl != nil && ctl.FS != nil {
		s.fs = ctl.FS
	}
	var pol fsx.RetryPolicy
	if ctl != nil && ctl.Retry != nil {
		pol = *ctl.Retry
	}
	inner := pol.OnRetry
	pol.OnRetry = func(attempt int, err error) {
		s.obs.checkpointRetries.Inc()
		s.obs.log.Warn("checkpoint write retrying",
			"attempt", attempt, "err", err.Error())
		if inner != nil {
			inner(attempt, err)
		}
	}
	s.retry = &pol
}

// run executes generations nextGen..MaxGenerations with cancellation
// checks at every generation boundary. An interrupted run returns the
// best-so-far Result with Interrupted set and a nil error (the only
// errors are real failures: a panicking cost evaluation or an unwritable
// checkpoint file).
func (s *state) run(ctx context.Context, trace Trace, ctl *Control) (*Result, error) {
	every := ctl.every()
	for gen := s.nextGen; gen <= s.prm.MaxGenerations; gen++ {
		if s.stall >= s.prm.StallGenerations {
			break // resumed from a checkpoint of an already-stalled run
		}
		if err := ctx.Err(); err != nil {
			return s.interrupt(err, ctl)
		}
		s.res.Generations = gen
		var genStart time.Time
		if s.obs.on {
			genStart = time.Now()
		}
		// The evaluate trace span covers descendant construction and the
		// cost evaluations, which overlap: one causal phase.
		evalTsp := s.tsp.StartChild("evolution.evaluate")
		descendants, evalErr := s.breed()
		evalTsp.End()
		if evalErr != nil {
			return nil, evalErr
		}
		s.res.Evaluations += len(descendants)
		s.obs.evaluations.Add(uint64(len(descendants)))
		s.obs.countInfeasible(descendants)

		// Selection: parents older than ω are deleted; the μ cheapest of
		// the remaining parents and all descendants survive.
		selTsp := s.tsp.StartChild("evolution.select")
		pool := descendants
		for _, ind := range s.pop {
			if ind.age < s.prm.Omega {
				pool = append(pool, ind)
			}
		}
		if len(pool) == 0 {
			selTsp.End()
			break // nothing mutable remains (e.g. single-module partitions)
		}
		s.pop = selectBest(pool, s.prm.Mu)
		selTsp.End()

		if b := cheapest(s.pop); b.cost < s.res.BestCost {
			s.res.BestCost = b.cost
			s.res.Best = b.p.Clone()
			s.stall = 0
			s.obs.improvements.Inc()
			s.obs.log.Info("new best",
				"gen", gen, "cost", b.cost, "modules", b.p.NumModules())
		} else {
			s.stall++
		}
		s.res.History = append(s.res.History, s.res.BestCost)
		if s.obs.on {
			s.obs.genSeconds.ObserveSince(genStart)
		}
		s.obs.afterGeneration(s, len(descendants))
		if trace != nil {
			trace(gen, s.res.Best, s.res.BestCost)
		}
		if s.stall >= s.prm.StallGenerations {
			break
		}
		if every > 0 && gen%every == 0 && gen < s.prm.MaxGenerations {
			ckptTsp := s.tsp.StartChild("evolution.checkpoint")
			err := s.writeCheckpoint(ctl.CheckpointPath)
			ckptTsp.End()
			if err != nil {
				// The run state is intact; surface the result alongside
				// the error so hours of work are not discarded because a
				// disk filled up.
				return s.res, err
			}
		}
	}
	s.obs.log.Info("evolution run end",
		"generations", s.res.Generations,
		"evaluations", s.res.Evaluations,
		"best_cost", s.res.BestCost,
		"interrupted", s.res.Interrupted)
	return s.res, nil
}

// breed builds one generation's descendants and evaluates their costs.
// Mutation is sequential (one deterministic rand stream); each descendant
// goes to the evaluation pool as soon as it exists, so the pool works
// while the next one is mutated.
func (s *state) breed() ([]*individual, error) {
	n := len(s.pop) * (s.prm.Lambda + s.prm.Chi)
	eval := newEvalPool(s.prm.workers(), n, s.obs.evalSeconds, s.chaos)
	defer eval.wait() // joins the workers even if mutation panics
	descendants := make([]*individual, 0, n)
	add := func(child *partition.Partition, parent *individual, origin uint8) {
		ind := &individual{p: child, m: adaptStep(parent.m, s.prm.Epsilon, s.rng), origin: origin}
		eval.submit(evalJob{len(descendants), ind})
		descendants = append(descendants, ind)
	}
	for _, parent := range s.pop {
		for l := 0; l < s.prm.Lambda; l++ {
			s.obs.mutAttempts.Inc()
			child := parent.p.Clone() // recombination = duplication (§4.1)
			if mutate(child, parent.m, s.rng, &s.mv) {
				s.obs.mutApplied.Inc()
				add(child, parent, originMutation)
			}
		}
		for x := 0; x < s.prm.Chi; x++ {
			s.obs.mcAttempts.Inc()
			child := parent.p.Clone()
			if monteCarlo(child, s.rng, &s.mv) {
				s.obs.mcApplied.Inc()
				add(child, parent, originMonteCarlo)
			}
		}
		parent.age++
	}
	return descendants, eval.wait()
}

// writeCheckpoint persists the current state (with the metrics snapshot
// embedded) and records the write in the telemetry.
func (s *state) writeCheckpoint(path string) error {
	var t0 time.Time
	if s.obs.on {
		t0 = time.Now()
		// Count the write before snapshotting, so the snapshot a resumed
		// run restores already includes the write that produced it.
		s.obs.checkpointWrites.Inc()
	}
	if err := s.checkpoint().write(s.fs, path, s.retry); err != nil {
		return err
	}
	if s.obs.on {
		s.obs.ckptSeconds.ObserveSince(t0)
		s.obs.log.Debug("checkpoint written",
			"path", path, "gen", s.res.Generations)
	}
	return nil
}

// interrupt finalises a cancelled run: best-so-far result, Interrupted
// flag, a wrapped context error, and a final checkpoint if configured.
func (s *state) interrupt(ctxErr error, ctl *Control) (*Result, error) {
	s.res.Interrupted = true
	s.res.Err = fmt.Errorf("evolution: interrupted after generation %d: %w",
		s.res.Generations, ctxErr)
	s.obs.log.Warn("evolution run interrupted",
		"gen", s.res.Generations, "best_cost", s.res.BestCost)
	if ctl != nil && ctl.CheckpointPath != "" {
		if err := s.writeCheckpoint(ctl.CheckpointPath); err != nil {
			return s.res, err
		}
	}
	return s.res, nil
}

// testEvalHook, when non-nil, runs before every descendant cost
// evaluation. Tests use it to inject a panic into a worker and assert it
// surfaces as an error instead of crashing the process.
var testEvalHook func(i int, p *partition.Partition)

// pool runs jobs on up to `workers` goroutines while its caller is still
// submitting them, so a sequential producer — mutation or chain drawing
// on the run's one rand stream — overlaps the parallel work. With one
// worker, submit runs each job in the caller's goroutine. After a job
// fails the remaining ones are skipped; wait joins every worker and
// returns the first failure. A job must recover its own panics.
type pool[T any] struct {
	run    func(T) error
	jobs   chan T // nil when sequential, and after wait
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	err    error // the first failure; guarded by mu
}

// newPool starts the workers for at most n jobs.
func newPool[T any](workers, n int, run func(T) error) *pool[T] {
	//lint:ignore hotalloc one pool per evaluated batch, amortized over its jobs
	p := &pool[T]{run: run}
	if workers = min(workers, n); workers <= 1 {
		return p
	}
	//lint:ignore hotalloc one channel per evaluated batch, amortized over its jobs
	jobs := make(chan T, n) // one slot per job: submitting never waits for a worker
	p.jobs = jobs
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		//lint:ignore hotalloc one worker closure per worker and batch, amortized over its jobs
		go func() {
			defer p.wg.Done()
			for j := range jobs {
				p.do(j)
			}
		}()
	}
	return p
}

func (p *pool[T]) do(j T) {
	if p.failed.Load() {
		return
	}
	if err := p.run(j); err != nil {
		p.failed.Store(true)
		p.mu.Lock()
		if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
}

// submit hands one job to the workers, or runs it when sequential.
func (p *pool[T]) submit(j T) {
	if p.jobs == nil {
		p.do(j)
		return
	}
	p.jobs <- j
}

// wait closes the pool to new jobs, joins its workers and returns the
// first failure. It is idempotent, so a deferred wait joins the workers
// even when the producer panics.
func (p *pool[T]) wait() error {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
		p.wg.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// evalJob is one cost evaluation: the individual and its index in the
// batch, for error messages.
type evalJob struct {
	i   int
	ind *individual
}

// newEvalPool returns a pool that fills in the cost (costOf) of each
// submitted individual, on up to `workers` goroutines for a batch of at
// most n.
// Each individual is an independent clone and cost is pure, so the
// parallel evaluation is race-free and bit-identical to the sequential
// one. A panic inside a cost evaluation (however it is provoked —
// corrupted state, a bug in an estimator, an injected fault) is recovered
// and returned as an error naming the offending individual, its chain
// intact (see panicError). A cost that comes back NaN/Inf without
// panicking is likewise an error (ErrNonFiniteCost): a poisoned number
// must never enter selection or a checkpoint. A non-nil hist receives
// the per-individual evaluation latency in seconds; a non-nil inj probes
// the chaos sites evolution.worker.panic / evolution.worker.delay before
// each evaluation.
//
//lint:hotpath descendant evaluation — every cost evaluation of a run flows through here
func newEvalPool(workers, n int, hist *obs.Histogram, inj *chaos.Injector) *pool[evalJob] {
	//lint:ignore hotalloc one closure per evaluated batch, amortized over the λ descendants it evaluates
	return newPool(workers, n, func(j evalJob) (err error) {
		//lint:ignore hotalloc one deferred recover guard per descendant; the panic boundary is the point of the worker
		defer func() {
			if r := recover(); r != nil {
				err = panicError(r, "evolution: cost evaluation of descendant", j.i)
			}
		}()
		if testEvalHook != nil {
			testEvalHook(j.i, j.ind.p)
		}
		inj.MustPass(chaos.SiteEvalPanic)
		inj.Sleep(chaos.SiteEvalDelay)
		if hist != nil {
			defer hist.ObserveSince(time.Now())
		}
		c := costOf(j.ind.p)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("evolution: descendant %d cost is %g: %w",
				j.i, c, partition.ErrNonFiniteCost)
		}
		j.ind.cost = c
		return nil
	})
}

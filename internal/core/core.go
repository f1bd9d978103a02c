// Package core is the public face of iddqsyn: given a gate-level circuit
// and a characterised cell library, Synthesize partitions the circuit into
// BIC-sensor modules — with the paper's evolution-based algorithm or the
// baseline standard partitioning — sizes one Built-In Current sensor per
// module, and returns the complete IDDQ-testable design together with its
// cost breakdown.
//
// Typical use:
//
//	c, _ := bench.Read(f, "mydesign")
//	res, err := core.Synthesize(c, core.Options{})
//	fmt.Println(res.Report())
package core

import (
	"context"
	"fmt"
	"strings"

	"iddqsyn/internal/bic"
	"iddqsyn/internal/celllib"
	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/estimate"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
	"iddqsyn/internal/partition"
	"iddqsyn/internal/standard"
)

// Degradation telemetry: MetricOptimizerFailures counts failed optimizer
// attempts (each retry that did not produce a result), MetricDegraded is
// set to 1 when the synthesis fell back to standard partitioning.
const (
	MetricOptimizerFailures = "core.optimizer.failures"
	MetricDegraded          = "core.degraded"
)

// Method selects the partitioning algorithm.
type Method int

// The available partitioning methods.
const (
	// MethodEvolution is the paper's contribution: the §4 evolution-based
	// algorithm over the §3 estimators.
	MethodEvolution Method = iota
	// MethodStandard is the §5 baseline: greedy path-length clustering at
	// a fixed module size.
	MethodStandard
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodEvolution:
		return "evolution"
	case MethodStandard:
		return "standard"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures Synthesize. The zero value selects the paper's
// defaults everywhere: the built-in cell library, the §5 weight factors,
// d = 10, and the evolution method.
type Options struct {
	Library     *celllib.Library       // nil: celllib.Default()
	Params      *estimate.Params       // nil: estimate.DefaultParams()
	Weights     *partition.Weights     // nil: partition.PaperWeights()
	Constraints *partition.Constraints // nil: partition.DefaultConstraints()
	Evolution   *evolution.Params      // nil: evolution.DefaultParams()

	Method Method

	// ModuleSize fixes the module size for MethodStandard and for the
	// evolution start partitions. 0 estimates it from averaged parameters
	// (§4.2).
	ModuleSize int

	// Modules, if nonzero and Method is MethodStandard, overrides
	// ModuleSize so the standard partitioning produces this many modules
	// (Table 1 compares the methods at equal module counts).
	Modules int

	// Trace, if set, observes the best partition after every evolution
	// generation.
	Trace evolution.Trace

	// Control configures evolution run control: periodic crash-safe
	// checkpointing of the optimizer state. Only meaningful for
	// MethodEvolution.
	Control *evolution.Control

	// Resume, if set, continues a checkpointed evolution run instead of
	// constructing a fresh start population. The checkpoint must belong
	// to the circuit being synthesized; the evolution parameters are
	// taken from the checkpoint (Options.Evolution is ignored), so the
	// resumed run finishes bit-identically to an uninterrupted one.
	Resume *evolution.Checkpoint

	// Obs, if non-nil, observes the synthesis: phase spans (annotate,
	// estimator, optimize, audit, chip), estimator call telemetry, and
	// the optimizer's per-generation metrics, logs and live status. When
	// nil the Obs carried by the context (obs.FromContext) is used; if
	// that is also nil the synthesis is unobserved at zero cost.
	Obs *obs.Obs

	// Chaos, if non-nil, injects deterministic faults into the synthesis
	// failure surfaces — the estimator boundary and (through the
	// optimizer Control) the evolution worker pool. When nil the injector
	// carried by the context (chaos.FromContext) is used; if that is also
	// nil nothing is ever injected. Test plumbing only.
	Chaos *chaos.Injector

	// Degrade enables graceful degradation: when every optimizer attempt
	// fails (a poisoned estimator, persistent checkpoint I/O failure, a
	// worker panic storm), the synthesis falls back to greedy standard
	// partitioning instead of failing outright. The fallback result is
	// marked (Result.Degraded, Obs.SetDegraded, MetricDegraded) so it can
	// never masquerade as a converged optimization.
	Degrade bool

	// OptimizerRetries is how many times a failed evolution run is
	// retried before failing (or degrading, with Degrade set). Each
	// retry re-runs the identical seeded optimization, so a retry after a
	// transient fault reproduces the uninjected run bit-identically.
	// 0 means one retry when Degrade is set, none otherwise.
	OptimizerRetries int
}

// Result is a synthesized IDDQ-testable design.
type Result struct {
	Method    Method
	Circuit   *circuit.Circuit
	Annotated *celllib.Annotated
	Estimator *estimate.Estimator
	Partition *partition.Partition
	Chip      *bic.Chip
	Costs     partition.CostVector

	// Evolution holds the optimizer trace for MethodEvolution (nil for
	// the standard method).
	Evolution *evolution.Result

	// Degraded reports that the evolution optimizer failed every attempt
	// and the partition came from the greedy standard fallback instead.
	// DegradedErr preserves the optimizer's final error (its chain intact
	// for errors.Is), so the cause of the degradation stays diagnosable.
	Degraded    bool
	DegradedErr error
}

// Synthesize runs the full flow on circuit c.
func Synthesize(c *circuit.Circuit, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), c, opt)
}

// SynthesizeContext is Synthesize with cooperative cancellation: the
// context is threaded into the optimizer, which checks it at generation
// boundaries. A cancelled synthesis still returns a complete Result —
// partition, sensors, costs — built from the optimizer's best-so-far
// individual, with Result.Evolution.Interrupted set.
func SynthesizeContext(ctx context.Context, c *circuit.Circuit, opt Options) (res *Result, err error) {
	// Last-resort containment: whatever a poisoned estimator or injected
	// fault manages to blow up, the synthesis ends with a named error —
	// never a process crash, never an unvalidated result.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("core: synthesis panicked: %w", perr)
			} else {
				err = fmt.Errorf("core: synthesis panicked: %v", r)
			}
		}
	}()
	o := opt.Obs
	if o == nil {
		o = obs.FromContext(ctx)
	}
	inj := opt.Chaos
	if inj == nil {
		inj = chaos.FromContext(ctx)
	}
	// The optimizer resolves its Obs and injector from the Control (or
	// its context); inject ours into a copy so the caller's struct stays
	// untouched.
	ctl := opt.Control
	if (o != nil && (ctl == nil || ctl.Obs == nil)) ||
		(inj != nil && (ctl == nil || ctl.Chaos == nil)) {
		cc := evolution.Control{}
		if ctl != nil {
			cc = *ctl
		}
		if cc.Obs == nil {
			cc.Obs = o
		}
		if cc.Chaos == nil {
			cc.Chaos = inj
		}
		ctl = &cc
	}
	lib := opt.Library
	if lib == nil {
		lib = celllib.Default()
	}
	prm := estimate.DefaultParams()
	if opt.Params != nil {
		prm = *opt.Params
	}
	w := partition.PaperWeights()
	if opt.Weights != nil {
		w = *opt.Weights
	}
	cons := partition.DefaultConstraints()
	if opt.Constraints != nil {
		cons = *opt.Constraints
	}
	eprm := evolution.DefaultParams()
	if opt.Evolution != nil {
		eprm = *opt.Evolution
	}

	// Causal-trace phases ride alongside the log spans: each core phase is
	// a child of the span the context carries (the serving layer's
	// serve.attempt), so a retained slow trace decomposes the attempt into
	// annotate / estimator / optimize / audit / chip. All nil-cheap when
	// the context carries no span.
	psp := obs.SpanFromContext(ctx)

	sp := o.StartSpan("core.annotate", "circuit", c.Name)
	tsp := psp.StartChild("core.annotate")
	a, err := celllib.Annotate(c, lib)
	tsp.End()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sp = o.StartSpan("core.estimator")
	tsp = psp.StartChild("core.estimator")
	e := estimate.New(a, prm)
	e.SetObs(o)
	e.SetChaos(inj)
	tsp.End()
	sp.End()

	res = &Result{Method: opt.Method, Circuit: c, Annotated: a, Estimator: e}
	optSpan := o.StartSpan("core.optimize", "method", opt.Method.String())
	optTsp := psp.StartChild("core.optimize")
	ctx = obs.ContextWithSpan(ctx, optTsp) // evolution generations attach here
	switch opt.Method {
	case MethodEvolution:
		attempts := 1 + opt.OptimizerRetries
		if opt.Degrade && opt.OptimizerRetries <= 0 {
			attempts = 2
		}
		var er *evolution.Result
		var optErr error
		for attempt := 1; attempt <= attempts; attempt++ {
			if attempt > 1 && ctx.Err() != nil {
				break // cancelled mid-retry: keep the last failure
			}
			er, optErr = runEvolution(ctx, c, e, w, cons, eprm, opt, ctl)
			if optErr == nil {
				break
			}
			o.Counter(MetricOptimizerFailures).Inc()
			o.Log().Warn("optimizer attempt failed",
				"attempt", attempt, "of", attempts, "err", optErr.Error())
		}
		switch {
		case optErr == nil:
			res.Evolution = er
			res.Partition = er.Best
		case opt.Degrade:
			p, serr := standardGroups(c, opt, prm, e, w, cons)
			if serr != nil {
				return nil, fmt.Errorf("core: optimizer failed (%w); standard fallback also failed: %w", optErr, serr)
			}
			res.Degraded = true
			res.DegradedErr = optErr
			res.Partition = p
			o.Counter(MetricDegraded).Inc()
			o.SetDegraded(optErr.Error())
			o.Log().Error("optimizer failed on every attempt: degraded to standard partitioning",
				"attempts", attempts, "err", optErr.Error())
		default:
			return nil, optErr
		}
	case MethodStandard:
		p, serr := standardGroups(c, opt, prm, e, w, cons)
		if serr != nil {
			return nil, serr
		}
		res.Partition = p
	default:
		return nil, fmt.Errorf("core: unknown method %v", opt.Method)
	}
	optTsp.End()
	optSpan.End("modules", res.Partition.NumModules())

	// Every synthesis result passes the static partition audit before it
	// is reported: exact cover, netlist consistency, and agreement of the
	// incrementally maintained module estimates with a from-scratch
	// evaluation. Feasibility bounds are the caller's policy (see
	// partcheck.Feasibility); a violated structural invariant here is a
	// bug, and the named constraint says which one.
	sp = o.StartSpan("core.audit")
	tsp = psp.StartChild("core.audit")
	r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly())
	tsp.End()
	sp.End()
	if !r.OK() {
		return nil, fmt.Errorf("core: final partition fails the static audit: %w", r.Err())
	}
	res.Costs = res.Partition.Costs()
	sp = o.StartSpan("core.chip")
	tsp = psp.StartChild("core.chip")
	chip, err := bic.NewChip(a, res.Partition.Groups(), e)
	tsp.End()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Chip = chip
	o.Log().Info("synthesis complete",
		"circuit", c.Name, "method", opt.Method.String(),
		"modules", res.Partition.NumModules(),
		"cost", res.Partition.Cost(),
		"feasible", res.Partition.Feasible())
	return res, nil
}

// runEvolution runs one optimizer attempt — resume or fresh start — with
// panic containment: a panic anywhere in the attempt (start-population
// construction included) becomes an error with its chain intact, so the
// retry/degrade loop above can classify it with errors.Is.
func runEvolution(ctx context.Context, c *circuit.Circuit, e *estimate.Estimator,
	w partition.Weights, cons partition.Constraints, eprm evolution.Params,
	opt Options, ctl *evolution.Control) (er *evolution.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			er = nil
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("core: optimizer panicked: %w", perr)
			} else {
				err = fmt.Errorf("core: optimizer panicked: %v", r)
			}
		}
	}()
	if opt.Resume != nil {
		er, err = evolution.ResumeContext(ctx, opt.Resume, e, w, cons, opt.Trace, ctl)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return er, nil
	}
	size := opt.ModuleSize
	if size <= 0 {
		size = standard.EstimateModuleSize(e, w, cons)
	}
	starts, err := evolution.StartPopulation(e, size, w, cons, eprm)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	er, err = evolution.OptimizeControlled(ctx, starts, eprm, opt.Trace, ctl)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return er, nil
}

// standardGroups builds the greedy standard partition — both the
// MethodStandard main path and the degraded-mode fallback — with panic
// containment so even a poisoned estimator yields a named error rather
// than a crash.
func standardGroups(c *circuit.Circuit, opt Options, prm estimate.Params,
	e *estimate.Estimator, w partition.Weights, cons partition.Constraints) (p *partition.Partition, err error) {
	defer func() {
		if r := recover(); r != nil {
			p = nil
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("core: standard partitioning panicked: %w", perr)
			} else {
				err = fmt.Errorf("core: standard partitioning panicked: %v", r)
			}
		}
	}()
	var groups [][]int
	if opt.Modules > 0 {
		groups = standard.StandardPartitionK(c, opt.Modules, prm.Rho)
	} else {
		size := opt.ModuleSize
		if size <= 0 {
			size = standard.EstimateModuleSize(e, w, cons)
		}
		groups = standard.StandardPartition(c, size, prm.Rho)
	}
	p, err = partition.New(e, groups, w, cons)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// Report renders a human-readable synthesis report: the partition, the
// per-module sensors, and the cost breakdown.
func (r *Result) Report() string {
	var sb strings.Builder
	cv := r.Costs
	fmt.Fprintf(&sb, "circuit %s — %s partitioning\n", r.Circuit.Name, r.Method)
	if r.Degraded {
		fmt.Fprintf(&sb, "  DEGRADED: optimizer failed, fell back to standard partitioning (%v)\n", r.DegradedErr)
	}
	fmt.Fprintf(&sb, "  gates: %d  modules: %d  feasible: %v (worst d = %.1f, required %.1f)\n",
		r.Circuit.NumLogicGates(), r.Partition.NumModules(), r.Partition.Feasible(),
		r.Partition.WorstDiscriminability(), r.Partition.Cons.MinDiscriminability)
	fmt.Fprintf(&sb, "  sensor area: %.4g   delay: +%.3g%%   test time: +%.3g%%   separation: %d\n",
		cv.SensorArea, 100*cv.DelayOverhead, 100*cv.TestTime, cv.Separation)
	fmt.Fprintf(&sb, "  weighted cost C(Π) = %.6g\n", r.Partition.Cost())
	if r.Evolution != nil {
		note := ""
		if r.Evolution.Interrupted {
			note = " (interrupted — best-so-far result)"
		}
		fmt.Fprintf(&sb, "  evolution: %d generations, %d evaluations%s\n",
			r.Evolution.Generations, r.Evolution.Evaluations, note)
	}
	for mi := range r.Chip.Sensors {
		s := &r.Chip.Sensors[mi]
		m := r.Partition.ModuleEstimate(mi)
		fmt.Fprintf(&sb, "  module %2d: %4d gates  îDD=%.3gmA  Ron=%.3gΩ  area=%.4g  d=%.1f\n",
			mi, len(r.Partition.ModuleGates(mi)), 1e3*s.IDDMax, s.ROn, s.Area,
			m.Discriminability(r.Estimator.P.IDDQth))
	}
	return sb.String()
}

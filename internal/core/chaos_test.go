package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"iddqsyn/internal/chaos"
	"iddqsyn/internal/circuit"
	"iddqsyn/internal/circuits"
	"iddqsyn/internal/electrical"
	"iddqsyn/internal/evolution"
	"iddqsyn/internal/obs"
	"iddqsyn/internal/partcheck"
)

// chaosParams is a small, fast evolution configuration for fault tests.
func chaosParams() *evolution.Params {
	return &evolution.Params{
		Mu: 4, Lambda: 3, Chi: 1, Omega: 6, MaxMove: 3, Epsilon: 1.0,
		MaxGenerations: 10, StallGenerations: 50, Seed: 3,
	}
}

func mustSchedule(t *testing.T, spec string) chaos.Schedule {
	t.Helper()
	sched, err := chaos.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return sched
}

// chaosCircuit is big enough that every generation actually evaluates
// descendants (C17 is so small most generations have no legal move, so
// one-shot after=N faults would never trigger).
func chaosCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuits.RandomLogic(circuits.Spec{
		Name: "chaos", Inputs: 8, Outputs: 4, Gates: 60, Depth: 8, Seed: 7,
	})
	if err != nil {
		t.Fatalf("RandomLogic: %v", err)
	}
	return c
}

func TestDegradeFallsBackToStandard(t *testing.T) {
	inj := chaos.New(mustSchedule(t, "seed=9,rate=1,sites=evolution.worker.panic"), nil)
	o := obs.New("degrade", nil, nil)
	res, err := Synthesize(circuits.C17(), Options{
		Evolution: chaosParams(),
		Obs:       o,
		Chaos:     inj,
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("Synthesize with Degrade: %v", err)
	}
	if !res.Degraded {
		t.Fatal("persistent worker panics with Degrade set: result not marked Degraded")
	}
	if !errors.Is(res.DegradedErr, chaos.ErrInjected) {
		t.Fatalf("DegradedErr lost the injected-fault chain: %v", res.DegradedErr)
	}
	if res.Evolution != nil {
		t.Fatal("degraded result must not carry an evolution trace")
	}
	if r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly()); !r.OK() {
		t.Fatalf("degraded partition fails the static audit: %v", r.Err())
	}
	if fails := o.Counter(MetricOptimizerFailures).Value(); fails < 2 {
		t.Fatalf("expected >= 2 recorded optimizer failures, got %d", fails)
	}
	if o.Counter(MetricDegraded).Value() != 1 {
		t.Fatalf("MetricDegraded = %d, want 1", o.Counter(MetricDegraded).Value())
	}
	if deg, reason := o.Degraded(); !deg || reason == "" {
		t.Fatalf("Obs.Degraded() = %v, %q; want sticky flag with a reason", deg, reason)
	}
	if !strings.Contains(res.Report(), "DEGRADED") {
		t.Fatal("Report() of a degraded result does not say DEGRADED")
	}
}

func TestPersistentFaultWithoutDegradeFails(t *testing.T) {
	inj := chaos.New(mustSchedule(t, "seed=9,rate=1,sites=evolution.worker.panic"), nil)
	_, err := Synthesize(circuits.C17(), Options{
		Evolution: chaosParams(),
		Chaos:     inj,
	})
	if err == nil {
		t.Fatal("persistent worker panics without Degrade: expected an error")
	}
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error lost the injected-fault chain: %v", err)
	}
}

func TestRetryAfterTransientFaultIsBitIdentical(t *testing.T) {
	baseline, err := Synthesize(chaosCircuit(t), Options{Evolution: chaosParams()})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	// A one-shot fault kills the first attempt; the retry re-runs the
	// identical seeded optimization with the fault already spent.
	inj := chaos.New(mustSchedule(t, "seed=4,after=5,sites=evolution.worker.panic"), nil)
	o := obs.New("retry", nil, nil)
	res, err := Synthesize(chaosCircuit(t), Options{
		Evolution:        chaosParams(),
		Obs:              o,
		Chaos:            inj,
		OptimizerRetries: 1,
	})
	if err != nil {
		t.Fatalf("Synthesize with one-shot fault + retry: %v", err)
	}
	if res.Degraded {
		t.Fatal("retry recovered the run; result must not be Degraded")
	}
	if o.Counter(MetricOptimizerFailures).Value() != 1 {
		t.Fatalf("optimizer failures = %d, want exactly 1", o.Counter(MetricOptimizerFailures).Value())
	}
	if res.Evolution.BestCost != baseline.Evolution.BestCost ||
		res.Evolution.Generations != baseline.Evolution.Generations ||
		res.Evolution.Evaluations != baseline.Evolution.Evaluations {
		t.Fatalf("retried run diverged from baseline: cost %v vs %v, generations %d vs %d, evaluations %d vs %d",
			res.Evolution.BestCost, baseline.Evolution.BestCost,
			res.Evolution.Generations, baseline.Evolution.Generations,
			res.Evolution.Evaluations, baseline.Evolution.Evaluations)
	}
}

func TestPoisonedEstimatorDegrades(t *testing.T) {
	// estimate.nan with after=3 poisons one estimator call; with Degrade
	// set and the fault spent on attempt 1, the retry succeeds.
	inj := chaos.New(mustSchedule(t, "seed=2,after=3,sites=estimate.nan"), nil)
	res, err := Synthesize(chaosCircuit(t), Options{
		Evolution: chaosParams(),
		Chaos:     inj,
		Degrade:   true,
	})
	if err != nil {
		t.Fatalf("Synthesize with one-shot NaN + Degrade: %v", err)
	}
	if res.Degraded {
		t.Fatal("one-shot NaN should be absorbed by the retry, not degrade the run")
	}
}

// TestPoisonedStartPopulationIsContained poisons the estimator while the
// start population is built on two workers: the first module estimate,
// which a pool goroutine computes for a start's first cost, turns NaN.
// The panic must come back as a named error with its ErrNonFinite chain,
// no pool goroutine may outlive the synthesis, and with Degrade set the
// synthesis must still fall back to standard partitioning.
func TestPoisonedStartPopulationIsContained(t *testing.T) {
	prm := chaosParams()
	prm.Workers = 2
	before := runtime.NumGoroutine()
	_, err := Synthesize(chaosCircuit(t), Options{
		Evolution:  prm,
		ModuleSize: 8,
		Chaos:      chaos.New(mustSchedule(t, "seed=1,after=1,sites=estimate.nan"), nil),
	})
	if !errors.Is(err, electrical.ErrNonFinite) {
		t.Fatalf("poisoned start population: got %v, want an error wrapping electrical.ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "start partition") {
		t.Errorf("error %q should name the start partition it came from", err)
	}
	// A joined worker may still be on its way out after wg.Done; a leaked
	// one never leaves.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the synthesis (%d before it)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	// Attempt 1 fails on the poisoned estimate, attempt 2 on a worker
	// panic in its first evaluation; both faults are then spent, so the
	// fallback's audit sees a clean estimator.
	o := obs.New("start-poison", nil, nil)
	res, err := Synthesize(chaosCircuit(t), Options{
		Evolution:  prm,
		ModuleSize: 8,
		Obs:        o,
		Chaos:      chaos.New(mustSchedule(t, "seed=1,after=1,sites=estimate.nan|evolution.worker.panic"), nil),
		Degrade:    true,
	})
	if err != nil {
		t.Fatalf("Synthesize with Degrade: %v", err)
	}
	if !res.Degraded || res.Evolution != nil {
		t.Fatalf("both attempts failed with Degrade set: Degraded = %v, want a standard fallback", res.Degraded)
	}
	if fails := o.Counter(MetricOptimizerFailures).Value(); fails != 2 {
		t.Errorf("optimizer failures = %d, want 2", fails)
	}
	if r := partcheck.VerifyPartition(res.Partition, partcheck.StructureOnly()); !r.OK() {
		t.Fatalf("degraded partition fails the static audit: %v", r.Err())
	}
}

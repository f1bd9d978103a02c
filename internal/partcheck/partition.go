package partcheck

import (
	"fmt"
	"math"

	"iddqsyn/internal/estimate"
	"iddqsyn/internal/partition"
)

// VerifyPartition audits a live Partition end to end: the netlist and
// exact-cover structure, the estimator-derived bounds in lim, and the
// partition's incrementally maintained state — the module-estimate cache,
// the per-module S(M) that moves update by delta, and the cached D_BIC —
// which a long optimizer run updates thousands of times and must still
// agree exactly with a from-scratch evaluation.
func VerifyPartition(p *partition.Partition, lim Limits) *Report {
	c := p.E.A.Circuit
	r := Verify(c, p.Groups(), p.E, lim)
	if !r.OK() {
		return r
	}
	stale := func(mi int, format string, args ...interface{}) {
		r.Violations = append(r.Violations, Violation{
			Constraint: ConstraintStaleEstimate, Module: mi,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	fresh := make([]*estimate.Module, p.NumModules())
	for mi := range fresh {
		gates := p.ModuleGates(mi)
		fresh[mi] = p.E.EvalModule(gates)
		r.Violations = append(r.Violations, compareEstimate(p.E, mi, p.ModuleEstimate(mi), fresh[mi])...)
		if got, want := p.ModuleSeparation(mi), p.E.SeparationModule(gates); got != want {
			stale(mi, "S(M) = %d, recomputed %d", got, want)
		}
	}
	moduleOf := make([]int, c.NumGates())
	for g := range moduleOf {
		moduleOf[g] = p.ModuleOf(g)
	}
	if got, want := p.Costs().DBIc, p.E.BICDelay(moduleOf, fresh); math.Float64bits(got) != math.Float64bits(want) {
		stale(-1, "D_BIC = %x, recomputed %x", got, want)
	}
	return r
}

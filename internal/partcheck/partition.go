package partcheck

import (
	"fmt"

	"iddqsyn/internal/partition"
)

// VerifyPartition audits a live Partition end to end: the netlist and
// exact-cover structure, the estimator-derived bounds in lim, and the
// partition's incrementally maintained state — the module-estimate cache
// and the per-module S(M) that moves update by delta — which a long
// optimizer run updates thousands of times and must still agree exactly
// with a from-scratch evaluation.
func VerifyPartition(p *partition.Partition, lim Limits) *Report {
	c := p.E.A.Circuit
	r := Verify(c, p.Groups(), p.E, lim)
	if !r.OK() {
		return r
	}
	for mi := 0; mi < p.NumModules(); mi++ {
		r.Violations = append(r.Violations, CompareEstimate(p.E, mi, p.ModuleEstimate(mi))...)
		if got, want := p.ModuleSeparation(mi), p.E.SeparationModule(p.ModuleGates(mi)); got != want {
			r.Violations = append(r.Violations, Violation{
				Constraint: ConstraintStaleEstimate, Module: mi,
				Detail: fmt.Sprintf("S(M) = %d, recomputed %d", got, want),
			})
		}
	}
	return r
}

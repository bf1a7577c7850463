package dalta

import (
	"fmt"
	"math"

	"isinglut/internal/decomp"
	"isinglut/internal/errmetric"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// Verify checks every structural invariant of a framework outcome against
// the exact function it came from:
//
//  1. every committed component's truth table has an exact disjoint
//     decomposition over its committed partition (the whole point of the
//     approximation; skipped for non-disjoint partitions, whose
//     decomposability is implied by invariant 2);
//  2. each committed phi/F LUT pair recomposes bit-exactly to the
//     component's table in the approximate function;
//  3. the outcome's error report agrees with a fresh evaluation.
//
// Every check works on whole words of the truth tables: a component's
// recomposition and its Boolean matrix are bit permutations of each
// other under a disjoint partition (decomp.Decomposition.Recompose,
// decomp.Decomposable), and Evaluate reads 64 inputs per word. A Fig. 4
// outcome (n = 16, m = 16) verifies in ~1.5 ms, about a tenth of one of
// its core solves, so it can gate every downstream use of a
// decomposition — cmd/adecomp runs it before emitting hardware, and
// perfbench's fig4-n16 workload after every decomposition.
func Verify(exact *truthtable.Table, out *Outcome, dist prob.Distribution) error {
	if out == nil || out.Approx == nil {
		return fmt.Errorf("dalta: nil outcome")
	}
	if exact.NumInputs() != out.Approx.NumInputs() || exact.NumOutputs() != out.Approx.NumOutputs() {
		return fmt.Errorf("dalta: outcome shape (%d,%d) does not match exact (%d,%d)",
			out.Approx.NumInputs(), out.Approx.NumOutputs(), exact.NumInputs(), exact.NumOutputs())
	}
	if len(out.Components) != exact.NumOutputs() {
		return fmt.Errorf("dalta: %d component records for %d outputs", len(out.Components), exact.NumOutputs())
	}
	for k, cs := range out.Components {
		if cs == nil {
			continue // undecomposed component: flat fallback, nothing to check
		}
		if cs.K != k {
			return fmt.Errorf("dalta: component record %d claims index %d", k, cs.K)
		}
		if cs.Decomp == nil || cs.Part == nil {
			return fmt.Errorf("dalta: component %d committed without decomposition", k)
		}
		if !cs.Decomp.Recompose().Equal(out.Approx.Component(k)) {
			return fmt.Errorf("dalta: component %d: LUT pair does not reproduce the committed table", k)
		}
		if cs.Part.Disjoint() && !decomp.Decomposable(out.Approx.Component(k), cs.Part) {
			return fmt.Errorf("dalta: component %d not disjointly decomposable over its partition", k)
		}
	}
	rep, err := errmetric.Evaluate(exact, out.Approx, dist)
	if err != nil {
		return fmt.Errorf("dalta: re-evaluating outcome: %w", err)
	}
	if math.Abs(rep.MED-out.Report.MED) > 1e-9 || math.Abs(rep.ER-out.Report.ER) > 1e-9 {
		return fmt.Errorf("dalta: report (MED %g, ER %g) does not match re-evaluation (MED %g, ER %g)",
			out.Report.MED, out.Report.ER, rep.MED, rep.ER)
	}
	return nil
}

package sb

import (
	"context"
	"testing"
)

// TestSolveWithReusesStopCheckField pins the field product saved per
// stop check: over 200 steps with Stop.F = SampleEvery = 10 and a stop
// that never fires (Epsilon = 0), a run computes 200 step fields, 20
// sample energies and 20 stop-check energies. bSB and aSB take the 19
// stop-check products followed by a step as that step's field (221
// products); dSB needs J·sign(x), so its count stays 240. The quantizer
// does not see through the counting wrapper, so the Quantize row runs
// dSB's float kernel; it pins that the flag does not turn the reuse on.
// The counts hold per batch at 3 replicas, where every product
// is one FieldBatch call for all lanes; at 1 replica every product is one
// Field call.
func TestSolveWithReusesStopCheckField(t *testing.T) {
	cases := []struct {
		name    string
		variant Variant
		quant   bool
		want    int64
	}{
		{"bSB", Ballistic, false, 221},
		{"aSB", Adiabatic, false, 221},
		{"dSB", Discrete, false, 240},
		{"dSB/quant", Discrete, true, 240},
	}
	for _, c := range cases {
		for _, r := range []int{1, 3} {
			p, cc := countingProblem(12, 61)
			params := DefaultParamsFor(c.variant)
			params.Steps = 200
			params.Stop = &StopCriteria{F: 10, S: 4, Epsilon: 0}
			params.SampleEvery = 10
			params.Quantize = c.quant
			var res Result
			if r == 1 {
				res = SolveWith(context.Background(), p, params, NewWorkspace(p.N()))
			} else {
				res, _ = SolveBatch(context.Background(), p, BatchParams{Base: params, Replicas: r})
			}
			if res.Iterations != 200 || res.Samples != 20 {
				t.Fatalf("%s r=%d: %d iterations, %d samples; want 200, 20", c.name, r, res.Iterations, res.Samples)
			}
			calls, other := cc.fieldCalls.Load(), cc.batchCalls.Load()
			if r > 1 {
				calls, other = other, calls
			}
			if calls != c.want || other != 0 {
				t.Errorf("%s r=%d: %d Field and %d FieldBatch calls, want %d of one kind and none of the other",
					c.name, r, cc.fieldCalls.Load(), cc.batchCalls.Load(), c.want)
			}
		}
	}
}

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
// calls); dSB needs J·sign(x), so its count stays 240. The quantizer
// does not see through the counting wrapper, so the Quantize and BitPack
// rows run dSB's float kernel; they pin that neither flag turns the
// reuse on.
func TestSolveWithReusesStopCheckField(t *testing.T) {
	cases := []struct {
		name           string
		variant        Variant
		quant, bitpack bool
		want           int64
	}{
		{"bSB", Ballistic, false, false, 221},
		{"aSB", Adiabatic, false, false, 221},
		{"dSB", Discrete, false, false, 240},
		{"dSB/quant", Discrete, true, false, 240},
		{"dSB/bitpack", Discrete, false, true, 240},
	}
	for _, c := range cases {
		p, cc := countingProblem(12, 61)
		params := DefaultParamsFor(c.variant)
		params.Steps = 200
		params.Stop = &StopCriteria{F: 10, S: 4, Epsilon: 0}
		params.SampleEvery = 10
		params.Quantize, params.BitPack = c.quant, c.bitpack
		res := SolveWith(context.Background(), p, params, NewWorkspace(p.N()))
		if res.Iterations != 200 || res.Samples != 20 {
			t.Fatalf("%s: %d iterations, %d samples; want 200, 20", c.name, res.Iterations, res.Samples)
		}
		if got := cc.fieldCalls.Load(); got != c.want {
			t.Errorf("%s: %d Field calls, want %d", c.name, got, c.want)
		}
	}
}

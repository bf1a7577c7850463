// Package errmetric computes the approximation-error metrics used in the
// paper: error rate (ER) and mean error distance (MED, Eq. 2), plus
// auxiliary diagnostics (worst-case error distance, per-component error
// rates).
package errmetric

import (
	"fmt"
	"math"
	"math/bits"

	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// Report aggregates the error of an approximate function against its exact
// reference under an input distribution.
type Report struct {
	// ER is the probability that at least one output bit is wrong.
	ER float64
	// MED is the expected |Bin(G(X)) - Bin(Ghat(X))|.
	MED float64
	// WorstED is the maximum error distance over all input patterns.
	WorstED uint64
	// BitER[k] is the probability that component k is wrong.
	BitER []float64
}

// Evaluate compares exact and approx over dist. Shapes must match; dist
// may be nil (uniform).
func Evaluate(exact, approx *truthtable.Table, dist prob.Distribution) (Report, error) {
	if exact.NumInputs() != approx.NumInputs() || exact.NumOutputs() != approx.NumOutputs() {
		return Report{}, fmt.Errorf("errmetric: shape mismatch (%d,%d) vs (%d,%d)",
			exact.NumInputs(), exact.NumOutputs(), approx.NumInputs(), approx.NumOutputs())
	}
	n := exact.NumInputs()
	if dist == nil {
		dist = prob.NewUniform(n)
	} else if dist.NumInputs() != n {
		return Report{}, fmt.Errorf("errmetric: distribution over %d inputs, function over %d", dist.NumInputs(), n)
	}
	m := exact.NumOutputs()
	rep := Report{BitER: make([]float64, m)}
	size := exact.Size()
	// The tables are read one 64-input word per component at a time (bit
	// vectors keep the bits past their end zero); a block where every
	// component agrees holds no error and is skipped. The differing inputs
	// are then visited in ascending order, so every sum accumulates in the
	// order of a plain scan over x.
	var ew, aw [64]uint64
	for base := uint64(0); base < size; base += 64 {
		w := int(base >> 6)
		var d uint64
		for k := 0; k < m; k++ {
			ew[k], aw[k] = exact.Component(k).Words()[w], approx.Component(k).Words()[w]
			d |= ew[k] ^ aw[k]
		}
		for ; d != 0; d &= d - 1 {
			j := uint(bits.TrailingZeros64(d))
			var a, b uint64
			for k := 0; k < m; k++ {
				a |= (ew[k] >> j & 1) << uint(k)
				b |= (aw[k] >> j & 1) << uint(k)
			}
			p := dist.P(base + uint64(j))
			rep.ER += p
			var ed uint64
			if a > b {
				ed = a - b
			} else {
				ed = b - a
			}
			rep.MED += p * float64(ed)
			if ed > rep.WorstED {
				rep.WorstED = ed
			}
			diff := a ^ b
			for k := 0; k < m; k++ {
				if diff&(1<<uint(k)) != 0 {
					rep.BitER[k] += p
				}
			}
		}
	}
	return rep, nil
}

// MustEvaluate is Evaluate that panics on error.
func MustEvaluate(exact, approx *truthtable.Table, dist prob.Distribution) Report {
	rep, err := Evaluate(exact, approx, dist)
	if err != nil {
		panic(err)
	}
	return rep
}

// MED returns only the mean error distance (Eq. 2).
func MED(exact, approx *truthtable.Table, dist prob.Distribution) float64 {
	return MustEvaluate(exact, approx, dist).MED
}

// ER returns only the whole-word error rate.
func ER(exact, approx *truthtable.Table, dist prob.Distribution) float64 {
	return MustEvaluate(exact, approx, dist).ER
}

// ComponentER returns the probability that component k of approx differs
// from exact (the separate-mode objective, Eq. 4 summed over the matrix).
func ComponentER(exact, approx *truthtable.Table, k int, dist prob.Distribution) float64 {
	n := exact.NumInputs()
	if dist == nil {
		dist = prob.NewUniform(n)
	}
	er := 0.0
	for x := uint64(0); x < exact.Size(); x++ {
		if exact.Bit(k, x) != approx.Bit(k, x) {
			er += dist.P(x)
		}
	}
	return er
}

// NormalizedMED returns MED divided by the maximum representable output
// (2^m - 1); useful for comparing functions with different output widths.
func NormalizedMED(exact, approx *truthtable.Table, dist prob.Distribution) float64 {
	med := MED(exact, approx, dist)
	maxOut := math.Pow(2, float64(exact.NumOutputs())) - 1
	return med / maxOut
}

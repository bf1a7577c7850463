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
	// Under the uniform distribution every input has P = 2^-n, and with
	// n + m <= 53 every sum below is exact in float64: ER and BitER[k]
	// add count·2^-n with count <= 2^n, MED adds ed·2^-n with ed < 2^m
	// (each product exact), so every partial sum is an integer below 2^53
	// times 2^-n. Each sum then equals its integer total times 2^-n, bit
	// for bit, and the loop below counts instead of adding floats. Other
	// distributions, and wider shapes, add P input by input.
	uniform, counted := dist.(*prob.Uniform)
	counted = counted && n+m <= 53
	var errs, edSum uint64
	counts := make([]uint64, m)
	size := exact.Size()
	// The tables are read one 64-input block at a time: one packed word
	// per component for the differing inputs, and the block's output
	// words through one transpose per table. A block where every
	// component agrees holds no error and is skipped. Each sum then visits
	// its inputs in ascending order, as a plain scan over x would: ER, MED
	// and WorstED over the inputs where any component differs, BitER[k]
	// over those where component k does, reusing the inputs' P.
	var ev, av [64]uint64
	var diff [64]uint64
	var p [64]float64
	for base := uint64(0); base < size; base += 64 {
		w := int(base >> 6)
		var d uint64
		for k := 0; k < m; k++ {
			diff[k] = exact.Component(k).Words()[w] ^ approx.Component(k).Words()[w]
			d |= diff[k]
		}
		if d == 0 {
			continue
		}
		exact.OutputWords(w, &ev)
		approx.OutputWords(w, &av)
		if counted {
			errs += uint64(bits.OnesCount64(d))
			for k, x := range diff[:m] {
				counts[k] += uint64(bits.OnesCount64(x))
			}
			for ; d != 0; d &= d - 1 {
				j := bits.TrailingZeros64(d)
				ed := max(ev[j], av[j]) - min(ev[j], av[j])
				edSum += ed
				rep.WorstED = max(rep.WorstED, ed)
			}
			continue
		}
		er, med := rep.ER, rep.MED
		for ; d != 0; d &= d - 1 {
			j := bits.TrailingZeros64(d)
			pj := dist.P(base + uint64(j))
			p[j] = pj
			er += pj
			ed := max(ev[j], av[j]) - min(ev[j], av[j])
			med += pj * float64(ed)
			rep.WorstED = max(rep.WorstED, ed)
		}
		rep.ER, rep.MED = er, med
		for k, x := range diff[:m] {
			sum := rep.BitER[k]
			for ; x != 0; x &= x - 1 {
				sum += p[bits.TrailingZeros64(x)]
			}
			rep.BitER[k] = sum
		}
	}
	if counted {
		pu := uniform.P(0)
		rep.ER, rep.MED = float64(errs)*pu, float64(edSum)*pu
		for k, c := range counts {
			rep.BitER[k] = float64(c) * pu
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
	// XOR the packed words and add P over the set bits: the differing
	// inputs in ascending order, as a scan over x would add them.
	aw := approx.Component(k).Words()
	er := 0.0
	for w, e := range exact.Component(k).Words() {
		for x := e ^ aw[w]; x != 0; x &= x - 1 {
			er += dist.P(uint64(w)<<6 | uint64(bits.TrailingZeros64(x)))
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

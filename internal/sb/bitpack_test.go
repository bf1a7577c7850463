package sb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
)

// solveScalarQuant runs Solve with the ising.bitpack.pack failpoint
// armed, so a quantized run stays on the scalar integer kernels even on
// an instance that would pick the bit-planes.
func solveScalarQuant(p *ising.Problem, params Params) Result {
	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	return Solve(p, params)
}

// clusteredSparseProblem builds a ~25%-dense CSR instance: its quantized
// form lands in the CSR layout, yet with every 64-column group of a row
// populated it passes the packing dispatch even for a one-lane solve —
// the regime exercising the CSR-backed plane blocks through a real
// solve.
func clusteredSparseProblem(n int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	p, err := ising.NewProblem(ising.NewSparseFromDense(d), nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// TestBitPackExactRepresentableMatchesFloat closes the full identity
// chain on a losslessly-quantizable coupling: float solve == quantized
// solve == bit-packed solve, bitwise, including the trajectory shape.
// The dense instance picks the bit-planes for a quantized solve.
func TestBitPackExactRepresentableMatchesFloat(t *testing.T) {
	p := exactQuantProblem(32, 5)
	params := divergenceParams(Discrete)
	exact := Solve(p, params)
	params.Quantize = true
	packed := Solve(p, params)
	if !packed.Quantized || !packed.BitPacked {
		t.Fatalf("bit-packed fast path not taken: %+v", []bool{packed.Quantized, packed.BitPacked})
	}
	if exact.BitPacked {
		t.Fatal("float solve reports BitPacked")
	}
	assertSameTrajectory(t, exact, packed, "exact-representable bit-packed dSB")
}

// TestBitPackMatchesQuantTrajectory pins the core contract on a generic
// (lossy) quantization: the bit-packed solve the instance picks is
// bit-identical to the scalar quantized solve the ising.bitpack.pack
// failpoint forces — same integer fields, same trajectory, same spins —
// with only the BitPacked flag distinguishing the results.
func TestBitPackMatchesQuantTrajectory(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(64, 7)},
		{"csr", clusteredSparseProblem(128, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			quant := solveScalarQuant(tc.p, quantParams())
			packed := Solve(tc.p, quantParams())
			if !quant.Quantized || quant.BitPacked {
				t.Fatalf("quant solve flags wrong: %+v", []bool{quant.Quantized, quant.BitPacked})
			}
			if !packed.Quantized || !packed.BitPacked {
				t.Fatalf("bit-packed fast path not taken: %+v", []bool{packed.Quantized, packed.BitPacked})
			}
			assertSameTrajectory(t, quant, packed, tc.name)
		})
	}
}

// TestBitPackFusedMatchesFuseOff pins the lane property on the
// bit-packed path for both plane layouts: each lane of a packed batch
// (one replica-bit-sliced sweep per step) equals its r = 1 packed solve
// (one FieldSigns sweep per step) bitwise.
func TestBitPackFusedMatchesFuseOff(t *testing.T) {
	const replicas = 4
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(64, 7)},
		{"csr", clusteredSparseProblem(128, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := assertLanesMatchSingles(t, tc.name, tc.p, BatchParams{Base: quantParams(), Replicas: replicas}, nil)
			if !res.BitPacked {
				t.Fatal("fast path not taken")
			}
		})
	}
}

// TestBitPackHeuristicFallback: when the packing dispatch rejects
// packing (a scattered 5%-dense instance), a quantized solve runs on the
// scalar quantized kernels, reporting Quantized without BitPacked, the
// same run the ising.bitpack.pack failpoint forces.
func TestBitPackHeuristicFallback(t *testing.T) {
	p := randomSparseProblem(64, 11, true)
	quant := Solve(p, quantParams())
	if !quant.Quantized || quant.BitPacked {
		t.Fatalf("heuristic rejection must fall back to scalar quant: %+v",
			[]bool{quant.Quantized, quant.BitPacked})
	}
	assertSameTrajectory(t, solveScalarQuant(p, quantParams()), quant, "heuristic fallback")
}

// TestBitPackPackFailpointFallback: with ising.bitpack.pack poisoning the
// packer, a batch and each of its r = 1 solves must degrade to the scalar
// quantized path, bit-identical to the packed batch the dense instance
// picks — the chaos contract behind the fallback claim.
func TestBitPackPackFailpointFallback(t *testing.T) {
	const replicas = 3
	p := randomProblem(64, 9)
	packed, _ := SolveBatch(context.Background(), p, BatchParams{Base: quantParams(), Replicas: replicas})
	if !packed.BitPacked {
		t.Fatal("quantized batch on a dense instance did not pack")
	}

	defer fault.DisarmAll()
	fb, _ := assertLanesMatchSingles(t, "pack fallback", p, BatchParams{Base: quantParams(), Replicas: replicas}, func() {
		fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	})
	fault.DisarmAll()

	if fb.BitPacked {
		t.Fatal("BitPacked reported after a forced packing failure")
	}
	if !fb.Quantized {
		t.Fatal("poisoned packer must leave the scalar quantized path intact")
	}
	assertSameTrajectory(t, packed, fb, "pack fallback winner")
}

// TestBitPackAccumPoisonDiverges: an always-firing popcount-accumulate
// fault poisons the packed field, and the standard divergence guard must
// catch it at the sample cadence rather than let NaN spins escape.
func TestBitPackAccumPoisonDiverges(t *testing.T) {
	p := randomProblem(64, 17)
	params := quantParams()

	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.accum", fault.Scenario{After: 3, Times: -1})
	res := Solve(p, params)
	if !res.BitPacked {
		t.Fatal("fast path not taken")
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("poisoned bit-packed run not quarantined: diverged=%v energy=%g", res.Diverged, res.Energy)
	}
	for _, s := range res.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("invalid spin %d in quarantined result", s)
		}
	}
}

// TestBitPackIgnoredOutsideDiscrete: on a dense instance whose quantized
// dSB solve packs, Quantize under bSB and aSB is a silent no-op —
// bit-identical to the plain run, no fast-path flags.
func TestBitPackIgnoredOutsideDiscrete(t *testing.T) {
	p := randomProblem(64, 3)
	if !Solve(p, quantParams()).BitPacked {
		t.Fatal("quantized dSB solve did not pack")
	}
	for _, v := range []Variant{Ballistic, Adiabatic} {
		params := divergenceParams(v)
		plain := Solve(p, params)
		params.Quantize = true
		res := Solve(p, params)
		if res.Quantized || res.BitPacked {
			t.Fatalf("fast-path flags on a %v solve: %+v", v, []bool{res.Quantized, res.BitPacked})
		}
		assertSameTrajectory(t, plain, res, v.String()+" with Quantize set")
	}
}

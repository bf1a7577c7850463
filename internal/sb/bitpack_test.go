package sb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
)

// bitpackParams is divergenceParams for the discrete variant with the
// bit-packed popcount path requested (BitPack implies Quantize).
func bitpackParams() Params {
	base := divergenceParams(Discrete)
	base.BitPack = true
	return base
}

// clusteredSparseProblem builds a ~20%-dense instance whose quantized
// form lands in the CSR layout (below DefaultSparseDensity) yet still
// passes the bit-pack density × width heuristic — the regime exercising
// the CSR-backed plane blocks through a real solve.
func clusteredSparseProblem(n int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
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
func TestBitPackExactRepresentableMatchesFloat(t *testing.T) {
	p := exactQuantProblem(20, 5)
	params := divergenceParams(Discrete)
	exact := Solve(p, params)
	params.BitPack = true
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
// (lossy) quantization: the bit-packed solve is bit-identical to the
// scalar quantized solve — same integer fields, same trajectory, same
// spins — with only the BitPacked flag distinguishing the results.
func TestBitPackMatchesQuantTrajectory(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(64, 7)},
		{"csr", clusteredSparseProblem(96, 11)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			quant := Solve(tc.p, quantParams())
			packed := Solve(tc.p, bitpackParams())
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
		{"csr", clusteredSparseProblem(96, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := assertLanesMatchSingles(t, tc.name, tc.p, BatchParams{Base: bitpackParams(), Replicas: replicas}, nil)
			if !res.BitPacked {
				t.Fatal("fast path not taken")
			}
		})
	}
}

// TestBitPackHeuristicFallback: when the density × width dispatch rejects
// packing (a scattered 5%-dense instance), the solve stays on the scalar
// quantized kernels bit-identically, reporting Quantized without
// BitPacked.
func TestBitPackHeuristicFallback(t *testing.T) {
	p := randomSparseProblem(64, 11, true)
	quant := Solve(p, quantParams())
	packed := Solve(p, bitpackParams())
	if !quant.Quantized {
		t.Fatal("quantized fast path not taken")
	}
	if !packed.Quantized || packed.BitPacked {
		t.Fatalf("heuristic rejection must fall back to scalar quant: %+v",
			[]bool{packed.Quantized, packed.BitPacked})
	}
	assertSameTrajectory(t, quant, packed, "heuristic fallback")
}

// TestBitPackPackFailpointFallback: with ising.bitpack.pack poisoning the
// packer, a batch and each of its r = 1 solves must degrade to the scalar
// quantized path bit-identically — the chaos contract behind the
// fallback claim.
func TestBitPackPackFailpointFallback(t *testing.T) {
	const replicas = 3
	p := randomProblem(64, 9)
	quant, _ := SolveBatch(context.Background(), p, BatchParams{Base: quantParams(), Replicas: replicas})

	defer fault.DisarmAll()
	fb, _ := assertLanesMatchSingles(t, "pack fallback", p, BatchParams{Base: bitpackParams(), Replicas: replicas}, func() {
		fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	})
	fault.DisarmAll()

	if fb.BitPacked {
		t.Fatal("BitPacked reported after a forced packing failure")
	}
	if !fb.Quantized {
		t.Fatal("poisoned packer must leave the scalar quantized path intact")
	}
	assertSameTrajectory(t, quant, fb, "pack fallback winner")
}

// TestBitPackAccumPoisonDiverges: an always-firing popcount-accumulate
// fault poisons the packed field, and the standard divergence guard must
// catch it at the sample cadence rather than let NaN spins escape.
func TestBitPackAccumPoisonDiverges(t *testing.T) {
	p := randomProblem(64, 17)
	params := bitpackParams()

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

// TestBitPackIgnoredOutsideDiscrete: BitPack on a ballistic solve is a
// silent no-op — bit-identical to the plain run, no fast-path flags.
func TestBitPackIgnoredOutsideDiscrete(t *testing.T) {
	p := randomProblem(16, 3)
	params := divergenceParams(Ballistic)
	plain := Solve(p, params)
	params.BitPack = true
	packed := Solve(p, params)
	if packed.Quantized || packed.BitPacked {
		t.Fatalf("fast-path flags on a ballistic solve: %+v", []bool{packed.Quantized, packed.BitPacked})
	}
	assertSameTrajectory(t, plain, packed, "bSB with BitPack set")
}

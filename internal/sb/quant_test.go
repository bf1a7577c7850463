package sb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// exactQuantProblem builds a spin glass whose couplings are integer
// multiples of 2⁻⁵ with |k| ∈ [64, 127]: the int8 scale comes out as
// exactly 2⁻⁵, quantization is lossless, and the quantized trajectory
// must be bit-identical to the float one end to end.
func exactQuantProblem(n int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	const ulp = 1.0 / 32
	d.Set(0, 1, 127*ulp)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 && j == 1 {
				continue
			}
			k := 64 + rng.Intn(64)
			if rng.Intn(2) == 0 {
				k = -k
			}
			d.Set(i, j, float64(k)*ulp)
		}
	}
	p, err := ising.NewProblem(d, nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// quantParams is divergenceParams for the discrete variant with the
// quantized fast path requested.
func quantParams() Params {
	base := divergenceParams(Discrete)
	base.Quantize = true
	return base
}

func assertSameTrajectory(t *testing.T, a, b Result, context string) {
	t.Helper()
	if math.Float64bits(a.Energy) != math.Float64bits(b.Energy) {
		t.Fatalf("%s: energy %g vs %g", context, a.Energy, b.Energy)
	}
	if a.Iterations != b.Iterations || a.Stopped != b.Stopped || a.Diverged != b.Diverged {
		t.Fatalf("%s: trajectory shape differs: %+v vs %+v", context,
			[]any{a.Iterations, a.Stopped, a.Diverged}, []any{b.Iterations, b.Stopped, b.Diverged})
	}
	for i := range a.Spins {
		if a.Spins[i] != b.Spins[i] {
			t.Fatalf("%s: spin %d differs", context, i)
		}
	}
}

// TestQuantExactRepresentableMatchesFloat: on a losslessly-quantizable
// coupling the quantized dSB solve on the scalar integer kernels is
// bit-identical to the float solve — fields, trajectory, sample
// energies, final spins.
func TestQuantExactRepresentableMatchesFloat(t *testing.T) {
	p := exactQuantProblem(20, 5)
	params := divergenceParams(Discrete)
	exact := Solve(p, params)
	params.Quantize = true
	quant := solveScalarQuant(p, params)
	if !quant.Quantized || quant.BitPacked {
		t.Fatal("scalar quantized fast path not taken")
	}
	if exact.Quantized {
		t.Fatal("float solve reports Quantized")
	}
	assertSameTrajectory(t, exact, quant, "exact-representable dSB")
}

// TestQuantFusedMatchesFuseOff pins the lane property on the scalar
// quantized kernels (ising.bitpack.pack keeps the dense instance off the
// bit-planes), for dense and CSR couplers: each lane of a quantized
// batch (one sliced kernel call per step) equals its r = 1 quantized
// solve bitwise.
func TestQuantFusedMatchesFuseOff(t *testing.T) {
	const replicas = 4
	defer fault.DisarmAll()
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{
		{"dense", randomProblem(24, 7)},
		{"csr", randomSparseProblem(48, 11, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := assertLanesMatchSingles(t, tc.name, tc.p, BatchParams{Base: quantParams(), Replicas: replicas}, func() {
				fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
			})
			if !res.Quantized || res.BitPacked {
				t.Fatal("scalar quantized fast path not taken")
			}
		})
	}
}

// TestQuantIgnoredOutsideDiscrete: Quantize on a ballistic solve is a
// silent no-op — bit-identical to the plain run, Quantized false.
func TestQuantIgnoredOutsideDiscrete(t *testing.T) {
	p := randomProblem(16, 3)
	params := divergenceParams(Ballistic)
	plain := Solve(p, params)
	params.Quantize = true
	quant := Solve(p, params)
	if quant.Quantized {
		t.Fatal("Quantized reported on a ballistic solve")
	}
	assertSameTrajectory(t, plain, quant, "bSB with Quantize set")
}

// TestQuantOverflowFallbackBothEngines: with the overflow failpoint
// forcing Quantize to fail, a batch and each of its r = 1 solves must
// degrade to the float path bit-identically (Quantized false, same
// trajectory as a plain solve).
func TestQuantOverflowFallbackBothEngines(t *testing.T) {
	const replicas = 3
	p := randomProblem(20, 9)
	base := divergenceParams(Discrete)
	exact, exactStats := SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: replicas})

	defer fault.DisarmAll()
	base.Quantize = true
	fb, fbStats := assertLanesMatchSingles(t, "overflow fallback", p, BatchParams{Base: base, Replicas: replicas}, func() {
		fault.MustArm("ising.quant.overflow", fault.Scenario{Times: -1})
	})
	fault.DisarmAll()

	if fb.Quantized {
		t.Fatal("Quantized reported after a forced quantization failure")
	}
	assertSameTrajectory(t, exact, fb, "overflow fallback winner")
	for r := range exactStats.Energies {
		if math.Float64bits(exactStats.Energies[r]) != math.Float64bits(fbStats.Energies[r]) ||
			exactStats.Iterations[r] != fbStats.Iterations[r] {
			t.Fatalf("replica %d: fallback (E=%g, it=%d) != float batch (E=%g, it=%d)", r,
				fbStats.Energies[r], fbStats.Iterations[r], exactStats.Energies[r], exactStats.Iterations[r])
		}
	}
}

// TestQuantDivergenceQuarantineBothEngines: the keyed sb.diverge fault on
// one quantized replica must quarantine exactly that replica, and its
// lane must equal its r = 1 solve — the divergence guard does not care
// which field kernel produced the poisoned trajectory.
func TestQuantDivergenceQuarantineBothEngines(t *testing.T) {
	const replicas = 4
	const victim = 2
	p := randomSparseProblem(32, 13, true)
	base := quantParams()
	key := base.Seed + int64(victim)

	defer fault.DisarmAll()
	res, st := assertLanesMatchSingles(t, "quant diverge", p, BatchParams{Base: base, Replicas: replicas}, func() {
		fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{key}, Times: -1})
	})
	if !st.Diverged[victim] || st.Diverges != 1 {
		t.Fatalf("Diverged = %v (count %d), want replica %d quarantined", st.Diverged, st.Diverges, victim)
	}
	if st.Stopped[victim] != metrics.StopDiverged {
		t.Fatalf("diverged replica stop %v, want StopDiverged", st.Stopped[victim])
	}
	if st.BestReplica == victim {
		t.Fatal("diverged replica won the batch")
	}
	if !res.Quantized {
		t.Fatal("fast path not taken under the keyed fault")
	}
}

// TestQuantAccumPoisonDiverges: an always-firing accumulate fault poisons
// the quantized field, and the standard divergence guard must catch it at
// the sample cadence rather than let NaN spins escape.
func TestQuantAccumPoisonDiverges(t *testing.T) {
	p := randomSparseProblem(24, 17, false)
	params := quantParams()

	defer fault.DisarmAll()
	fault.MustArm("ising.quant.accum", fault.Scenario{After: 3, Times: -1})
	res := Solve(p, params)
	if !res.Quantized {
		t.Fatal("fast path not taken")
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("poisoned quantized run not quarantined: diverged=%v energy=%g", res.Diverged, res.Energy)
	}
	for _, s := range res.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("invalid spin %d in quarantined result", s)
		}
	}
}

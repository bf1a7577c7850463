package sb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
)

// benchBatchParams is the shared configuration for the engine benches:
// a fixed step budget with no dynamic stop, so every run executes
// exactly the same Euler steps and the comparisons isolate the field
// kernels.
func benchBatchParams(replicas int) BatchParams {
	base := DefaultParams()
	base.Steps = 100
	base.Seed = 7
	return BatchParams{Base: base, Replicas: replicas}
}

func benchEngineGrid(b *testing.B, run func(b *testing.B, n, r int)) {
	for _, n := range []int{64, 256, 1024} {
		for _, r := range []int{4, 32, 64} {
			b.Run(fmt.Sprintf("n=%d/r=%d", n, r), func(b *testing.B) {
				run(b, n, r)
			})
		}
	}
}

// BenchmarkSolveFused measures a replica batch on the lane engine over a
// warm workspace: one coupling stream per step for all replicas. (The
// name predates the single engine and keeps BENCH_*.json comparable.)
func BenchmarkSolveFused(b *testing.B) {
	benchEngineGrid(b, func(b *testing.B, n, r int) {
		p := randomProblem(n, int64(n))
		bp := benchBatchParams(r)
		ws := new(Workspace)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveBatch(context.Background(), p, bp, ws)
		}
	})
}

// randomSparseProblem builds a density-0.05 spin-glass instance, the
// regime the CSR and quantized fast paths target, with the coupler picked
// by useCSR.
func randomSparseProblem(n int, seed int64, useCSR bool) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.05 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	var c ising.Coupler = d
	if useCSR {
		c = ising.NewSparseFromDense(d)
	}
	p, err := ising.NewProblem(c, nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// benchFusedDSB runs the lane engine over the grid on a prebuilt problem
// family under dSB; all six end-to-end dSB benches share it so the
// comparisons isolate the coupler/quantization choice. scalar arms the
// ising.bitpack.pack failpoint, keeping a quantized run on the scalar
// integer kernels where the instance would pick the bit-planes.
func benchFusedDSB(b *testing.B, prob func(n int) *ising.Problem, quantize, scalar bool) {
	if scalar {
		fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
		defer fault.DisarmAll()
	}
	benchEngineGrid(b, func(b *testing.B, n, r int) {
		p := prob(n)
		bp := benchBatchParams(r)
		bp.Base.Variant = Discrete
		bp.Base.Quantize = quantize
		ws := new(Workspace)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			solveBatch(context.Background(), p, bp, ws)
		}
	})
}

// BenchmarkSolveFusedDSB is the float dSB trajectory baseline on a dense
// spin glass.
func BenchmarkSolveFusedDSB(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, false, false)
}

// BenchmarkSolveFusedDSBQuant is the same trajectory through the scalar
// int8 fixed-point field kernels (energies still evaluated against
// exact J), held off the bit-planes the instance would pick.
func BenchmarkSolveFusedDSBQuant(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, true, true)
}

// BenchmarkSolveFusedDSBBitpack is the same quantized trajectory on the
// kernels the dense instance picks: sign/magnitude bit-planes against
// replica-bit-sliced spin masks, bit-identical to the scalar run.
func BenchmarkSolveFusedDSBBitpack(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomProblem(n, int64(n)) }, true, false)
}

// BenchmarkSolveFusedDSBSparseDense runs a density-0.05 instance through
// the dense coupler — the end-to-end baseline for the sparse speedup gate.
func BenchmarkSolveFusedDSBSparseDense(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), false) }, false, false)
}

// BenchmarkSolveFusedDSBSparseCSR is the same instance through the CSR
// coupler: bit-identical trajectory, nnz-bound field kernels.
func BenchmarkSolveFusedDSBSparseCSR(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), true) }, false, false)
}

// BenchmarkSolveFusedDSBSparseQuant stacks both fast paths: quantized CSR
// codes on the sparse instance.
func BenchmarkSolveFusedDSBSparseQuant(b *testing.B) {
	benchFusedDSB(b, func(n int) *ising.Problem { return randomSparseProblem(n, int64(n), true) }, true, false)
}

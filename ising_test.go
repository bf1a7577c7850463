package isinglut_test

import (
	"math"
	"testing"

	"isinglut"
)

// maxCutProblem encodes max-cut of a small graph: J_ij = -w_ij so that
// cutting (opposite spins) is rewarded.
func maxCutProblem() *isinglut.IsingProblem {
	// 5-cycle with unit weights: max cut = 4.
	p := isinglut.NewIsingProblem(5)
	for i := 0; i < 5; i++ {
		p.SetCoupling(i, (i+1)%5, -1)
	}
	return p
}

func cutSize(spins []int8) int {
	cut := 0
	for i := 0; i < 5; i++ {
		if spins[i] != spins[(i+1)%5] {
			cut++
		}
	}
	return cut
}

func TestSolveIsingMaxCut(t *testing.T) {
	p := maxCutProblem()
	best := 0
	for seed := int64(0); seed < 5; seed++ {
		res, err := isinglut.SolveIsing(p, isinglut.SBOptions{Steps: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if c := cutSize(res.Spins); c > best {
			best = c
		}
	}
	if best != 4 {
		t.Fatalf("best cut %d, want 4", best)
	}
}

func TestSolveIsingVariants(t *testing.T) {
	p := maxCutProblem()
	for _, v := range []isinglut.SBVariant{isinglut.BallisticSB, isinglut.AdiabaticSB, isinglut.DiscreteSB} {
		opts := isinglut.SBOptions{Variant: v, Steps: 500, Seed: 1}
		if v == isinglut.AdiabaticSB {
			opts.Dt = 0.5
		}
		res, err := isinglut.SolveIsing(p, opts)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if math.Abs(p.Energy(res.Spins)-res.Energy) > 1e-9 {
			t.Fatalf("%v: energy inconsistent", v)
		}
	}
}

func TestSolveIsingDynamicStop(t *testing.T) {
	p := isinglut.NewIsingProblem(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			p.SetCoupling(i, j, 1)
		}
	}
	res, err := isinglut.SolveIsing(p, isinglut.SBOptions{
		Steps: 100000, Seed: 2, DynamicStop: true, F: 10, S: 5, Epsilon: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("dynamic stop did not fire")
	}
	if res.Energy != -15 {
		t.Fatalf("energy %g, want -15", res.Energy)
	}
}

func TestAnnealIsing(t *testing.T) {
	p := maxCutProblem()
	res, err := isinglut.AnnealIsing(p, 200, 2.0, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cutSize(res.Spins) != 4 {
		t.Fatalf("SA cut %d, want 4", cutSize(res.Spins))
	}
}

func TestAnnealIsingValidation(t *testing.T) {
	p := maxCutProblem()
	bad := [][4]float64{
		{0, 2, 1e-3, 0},  // sweeps 0
		{10, 0, 1e-3, 0}, // tStart 0
		{10, 2, 0, 0},    // tEnd 0
		{10, 1, 2, 0},    // tEnd > tStart
	}
	for i, c := range bad {
		if _, err := isinglut.AnnealIsing(p, int(c[0]), c[1], c[2], 0); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestIsingProblemBiasAndEnergy(t *testing.T) {
	p := isinglut.NewIsingProblem(2)
	p.SetBias(0, 1)
	p.SetBias(1, -1)
	p.SetCoupling(0, 1, 0.5)
	// E(+,-) = -(1*1 + (-1)(-1)) - 0.5*0.5*(+1)(-1)*2 = -2 + 0.5 = -1.5
	if got := p.Energy([]int8{1, -1}); math.Abs(got-(-1.5)) > 1e-12 {
		t.Fatalf("Energy = %g, want -1.5", got)
	}
	if p.N() != 2 {
		t.Fatal("N wrong")
	}
}

// TestSolveIsingSparseBitIdentity: the Sparse hint routes a low-density
// instance onto the CSR coupler, which must not change a single bit of
// the result — only which kernel streams J.
func TestSolveIsingSparseBitIdentity(t *testing.T) {
	n := 64
	p := isinglut.NewIsingProblem(n)
	for i := 0; i < n; i++ {
		p.SetCoupling(i, (i+1)%n, -1) // ring: ~3% dense, CSR auto-picks
	}
	for _, v := range []isinglut.SBVariant{isinglut.BallisticSB, isinglut.DiscreteSB} {
		for _, replicas := range []int{1, 4} {
			opts := isinglut.SBOptions{Variant: v, Steps: 300, Seed: 7, Replicas: replicas}
			dense, err := isinglut.SolveIsing(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Sparse = true
			sparse, err := isinglut.SolveIsing(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dense.Energy) != math.Float64bits(sparse.Energy) ||
				dense.Iterations != sparse.Iterations {
				t.Fatalf("%v r=%d: dense (E=%.17g, it=%d) != sparse (E=%.17g, it=%d)",
					v, replicas, dense.Energy, dense.Iterations, sparse.Energy, sparse.Iterations)
			}
			for i := range dense.Spins {
				if dense.Spins[i] != sparse.Spins[i] {
					t.Fatalf("%v r=%d: spins differ at %d", v, replicas, i)
				}
			}
		}
	}
}

// TestSolveIsingQuantize: Quantize outside DiscreteSB is a validation
// error; on the unit-coupling max-cut instance (losslessly quantizable)
// the fast path runs and is bit-identical to the float dSB solve.
func TestSolveIsingQuantize(t *testing.T) {
	p := maxCutProblem()
	if _, err := isinglut.SolveIsing(p, isinglut.SBOptions{Variant: isinglut.BallisticSB, Quantize: true}); err == nil {
		t.Fatal("Quantize accepted outside DiscreteSB, want an error")
	}

	opts := isinglut.SBOptions{Variant: isinglut.DiscreteSB, Steps: 500, Seed: 1}
	exact, err := isinglut.SolveIsing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Quantize = true
	quant, err := isinglut.SolveIsing(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !quant.Quantized {
		t.Fatal("quantized fast path not taken")
	}
	if exact.Quantized {
		t.Fatal("float solve reports Quantized")
	}
	if math.Float64bits(exact.Energy) != math.Float64bits(quant.Energy) ||
		exact.Iterations != quant.Iterations {
		t.Fatalf("lossless quantization moved the trajectory: (E=%.17g, it=%d) vs (E=%.17g, it=%d)",
			exact.Energy, exact.Iterations, quant.Energy, quant.Iterations)
	}
	if math.Abs(p.Energy(quant.Spins)-quant.Energy) > 1e-9 {
		t.Fatal("reported energy inconsistent with spins under exact J")
	}
}

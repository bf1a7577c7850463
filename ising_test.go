package isinglut_test

import (
	"math"
	"math/rand"
	"reflect"
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

// TestSolveIsingASBDefaultDt: aSB with Dt 0 runs at the variant's
// stable step, 0.5, bit for bit — on a direct solve, a replica batch and
// a sharded solve alike, since all three map SBOptions the same way.
func TestSolveIsingASBDefaultDt(t *testing.T) {
	p := shardTestProblem(t, 24)
	for _, base := range []isinglut.SBOptions{
		{Steps: 300, Seed: 5},
		{Steps: 300, Seed: 5, Replicas: 3},
		{Steps: 150, Seed: 5, MaxShard: 8, ShardRounds: 3},
	} {
		base.Variant = isinglut.AdiabaticSB
		explicit := base
		explicit.Dt = 0.5
		got, err := isinglut.SolveIsing(p, base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := isinglut.SolveIsing(p, explicit)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Dt 0 gave %+v, Dt 0.5 gave %+v", base, got, want)
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

// TestSolveIsingSparseBitIdentity: a dense-backed problem and its
// NewSparseIsingProblem twin give bit-identical results. On a ~3%-dense
// ring the dense-backed solve picks the CSR coupler itself; on a
// half-dense glass it keeps the dense kernel while the twin walks CSR,
// so the two kernels must agree to the last bit.
func TestSolveIsingSparseBitIdentity(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(5))
	ring, glass := []isinglut.IsingCoupling{}, []isinglut.IsingCoupling{}
	for i := 0; i < n; i++ {
		ring = append(ring, isinglut.IsingCoupling{I: i, J: (i + 1) % n, V: -1})
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				glass = append(glass, isinglut.IsingCoupling{I: i, J: j, V: rng.NormFloat64()})
			}
		}
	}
	for _, inst := range []struct {
		name      string
		couplings []isinglut.IsingCoupling
	}{{"ring", ring}, {"glass", glass}} {
		dense := isinglut.NewIsingProblem(n)
		for _, c := range inst.couplings {
			dense.SetCoupling(c.I, c.J, c.V)
		}
		twin, err := isinglut.NewSparseIsingProblem(n, inst.couplings)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []isinglut.SBVariant{isinglut.BallisticSB, isinglut.DiscreteSB} {
			for _, replicas := range []int{1, 4} {
				opts := isinglut.SBOptions{Variant: v, Steps: 300, Seed: 7, Replicas: replicas}
				a, err := isinglut.SolveIsing(dense, opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := isinglut.SolveIsing(twin, opts)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(a.Energy) != math.Float64bits(b.Energy) || a.Iterations != b.Iterations {
					t.Fatalf("%s %v r=%d: dense-backed (E=%.17g, it=%d) != CSR twin (E=%.17g, it=%d)",
						inst.name, v, replicas, a.Energy, a.Iterations, b.Energy, b.Iterations)
				}
				for i := range a.Spins {
					if a.Spins[i] != b.Spins[i] {
						t.Fatalf("%s %v r=%d: spins differ at %d", inst.name, v, replicas, i)
					}
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

package ising

import (
	"math"
	"math/rand"
	"testing"
)

// randomDense builds a random symmetric coupling and bias.
func randomDense(n int, rng *rand.Rand) (*Dense, []float64) {
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	return d, h
}

// naiveEnergy evaluates Eq. 1 directly from At and the bias.
func naiveEnergy(p *Problem, sigma []int8) float64 {
	n := p.N()
	e := 0.0
	for i := 0; i < n; i++ {
		e -= p.Bias(i) * float64(sigma[i])
		for j := 0; j < n; j++ {
			e -= 0.5 * p.Coup.At(i, j) * float64(sigma[i]) * float64(sigma[j])
		}
	}
	return e
}

func TestEnergyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		d, h := randomDense(n, rng)
		p, err := NewProblem(d, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]int8, n)
		for i := range sigma {
			sigma[i] = int8(2*rng.Intn(2) - 1)
		}
		if got, want := p.Energy(sigma), naiveEnergy(p, sigma); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Energy = %g, naive = %g", trial, got, want)
		}
	}
}

func TestDenseSymmetry(t *testing.T) {
	d := NewDense(4)
	d.Set(1, 3, 2.5)
	if d.At(3, 1) != 2.5 || d.At(1, 3) != 2.5 {
		t.Error("Set did not symmetrize")
	}
	d.Add(1, 3, 0.5)
	if d.At(3, 1) != 3.0 {
		t.Error("Add did not symmetrize")
	}
}

func TestDenseDiagonalPanics(t *testing.T) {
	d := NewDense(3)
	for _, f := range []func(){func() { d.Set(1, 1, 1) }, func() { d.Add(2, 2, 1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("diagonal write did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBipartiteMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		c, r := 1+rng.Intn(40), 1+rng.Intn(6)
		b := randomTwinCoupler(c, r, rng.Int63())
		d := b.ToDense()
		n := b.N()
		// At equivalence.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(b.At(i, j)-d.At(i, j)) > 1e-12 {
					t.Fatalf("At(%d,%d): bipartite %g vs dense %g", i, j, b.At(i, j), d.At(i, j))
				}
			}
		}
		// Field equivalence on random x.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fb := make([]float64, n)
		fd := make([]float64, n)
		b.Field(x, fb)
		d.Field(x, fd)
		for i := range fb {
			if math.Abs(fb[i]-fd[i]) > 1e-9 {
				t.Fatalf("Field[%d]: bipartite %g vs dense %g", i, fb[i], fd[i])
			}
		}
		// Frobenius norm equivalence.
		if math.Abs(b.FrobeniusNorm()-d.FrobeniusNorm()) > 1e-9 {
			t.Fatalf("FrobeniusNorm: %g vs %g", b.FrobeniusNorm(), d.FrobeniusNorm())
		}
	}
}

// TestTwinSetColumnLayout pins At's view of a twin block: U_j couples to
// W1_i through Q_ji and to W2_i through 0 − Q_ji, symmetrically, and
// nothing couples within a group. SetColumn stores 0 + q, so a −0 entry
// reads back as +0 on both sides.
func TestTwinSetColumnLayout(t *testing.T) {
	b := NewTwin(2, 2)
	b.SetColumn(1, []float64{2, math.Copysign(0, -1)})
	// Spins: U 0-1, W1 2-3, W2 4-5.
	if b.At(0, 3) != 2 || b.At(3, 0) != 2 {
		t.Errorf("At(0,3) = %g, At(3,0) = %g, want 2", b.At(0, 3), b.At(3, 0))
	}
	if b.At(0, 5) != -2 || b.At(5, 0) != -2 {
		t.Errorf("At(0,5) = %g, At(5,0) = %g, want -2", b.At(0, 5), b.At(5, 0))
	}
	for _, ij := range [][2]int{{1, 3}, {1, 5}, {0, 2}, {0, 4}} {
		if v := b.At(ij[0], ij[1]); math.Float64bits(v) != 0 {
			t.Errorf("At(%d,%d) = %v (%#x), want +0", ij[0], ij[1], v, math.Float64bits(v))
		}
	}
	for _, ij := range [][2]int{{0, 1}, {2, 3}, {2, 4}, {3, 5}} {
		if b.At(ij[0], ij[1]) != 0 {
			t.Errorf("intra-group coupling At(%d,%d) nonzero", ij[0], ij[1])
		}
	}
}

func TestBruteForceTinyKnown(t *testing.T) {
	// Two spins, ferromagnetic J = 1, no bias: ground states ±(1,1) with
	// E = -1.
	d := NewDense(2)
	d.Set(0, 1, 1)
	p, _ := NewProblem(d, nil, 0)
	spins, e := BruteForce(p)
	if e != -1 {
		t.Fatalf("ground energy %g, want -1", e)
	}
	if spins[0] != spins[1] {
		t.Fatal("ferromagnetic ground state not aligned")
	}
}

func TestBruteForceWithBias(t *testing.T) {
	// Single spin with h = 2: ground state +1 with E = -2.
	d := NewDense(1)
	p, _ := NewProblem(d, []float64{2}, 0)
	spins, e := BruteForce(p)
	if spins[0] != 1 || e != -2 {
		t.Fatalf("spins=%v e=%g", spins, e)
	}
}

func TestBruteForceFindsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, h := randomDense(6, rng)
	p, _ := NewProblem(d, h, 0)
	_, bestE := BruteForce(p)
	sigma := make([]int8, 6)
	for trial := 0; trial < 200; trial++ {
		for i := range sigma {
			sigma[i] = int8(2*rng.Intn(2) - 1)
		}
		if p.Energy(sigma) < bestE-1e-12 {
			t.Fatal("random state below brute-force ground energy")
		}
	}
}

func TestObjectiveValueOffset(t *testing.T) {
	d := NewDense(2)
	d.Set(0, 1, 1)
	p, _ := NewProblem(d, nil, 10)
	spins, e := BruteForce(p)
	if got := p.ObjectiveValue(spins); math.Abs(got-(e+10)) > 1e-12 {
		t.Errorf("ObjectiveValue = %g", got)
	}
}

func TestSpinBinaryConversions(t *testing.T) {
	if SpinToBinary(1) != 1 || SpinToBinary(-1) != 0 {
		t.Error("SpinToBinary wrong")
	}
	if BinaryToSpin(1) != 1 || BinaryToSpin(0) != -1 {
		t.Error("BinaryToSpin wrong")
	}
	for _, b := range []int{0, 1} {
		if SpinToBinary(BinaryToSpin(b)) != b {
			t.Error("conversion round trip failed")
		}
	}
}

func TestSignsOf(t *testing.T) {
	s := SignsOf([]float64{-0.5, 0, 0.3, -1e-9})
	want := []int8{-1, 1, 1, -1}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("SignsOf[%d] = %d, want %d", i, s[i], want[i])
		}
	}
}

func TestNewProblemBiasLengthMismatch(t *testing.T) {
	if _, err := NewProblem(NewDense(3), []float64{1, 2}, 0); err == nil {
		t.Error("bias length mismatch accepted")
	}
}

func TestEnergyLengthPanics(t *testing.T) {
	p, _ := NewProblem(NewDense(3), nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length spin vector did not panic")
		}
	}()
	p.Energy([]int8{1, 1})
}

// TestEnergyContinuousIntoMatches: the scratch-based energy evaluation
// must agree exactly with the allocating one on both coupler types.
func TestEnergyContinuousIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, h := randomDense(8, rng)
	b := randomTwinCoupler(4, 2, rng.Int63())
	for _, p := range []*Problem{
		mustProblem(d, h),
		mustProblem(b, h),
	} {
		n := p.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		scratch := make([]float64, n)
		if got, want := p.EnergyContinuousInto(x, scratch), p.EnergyContinuous(x); got != want {
			t.Fatalf("EnergyContinuousInto = %g, EnergyContinuous = %g", got, want)
		}
		sigma := SignsOf(x)
		xs := make([]float64, n)
		if got, want := p.EnergySpinsInto(sigma, xs, scratch), p.Energy(sigma); got != want {
			t.Fatalf("EnergySpinsInto = %g, Energy = %g", got, want)
		}
	}
}

func mustProblem(c Coupler, h []float64) *Problem {
	p, err := NewProblem(c, h, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// TestEnergyContinuousIntoZeroAllocs pins the hot-path contract for both
// coupler types: an energy evaluation with caller-owned scratch performs
// no heap allocations.
func TestEnergyContinuousIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, h := randomDense(16, rng)
	tw := randomTwinCoupler(6, 5, rng.Int63())
	for name, p := range map[string]*Problem{
		"dense": mustProblem(d, h),
		"twin":  mustProblem(tw, h),
	} {
		n := p.N()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		scratch := make([]float64, n)
		sigma := make([]int8, n)
		xs := make([]float64, n)
		var sink float64
		if allocs := testing.AllocsPerRun(20, func() {
			sink += p.EnergyContinuousInto(x, scratch)
		}); allocs != 0 {
			t.Errorf("%s: EnergyContinuousInto allocates %.1f times per call, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			SignsInto(x, sigma)
			sink += p.EnergySpinsInto(sigma, xs, scratch)
		}); allocs != 0 {
			t.Errorf("%s: SignsInto+EnergySpinsInto allocates %.1f times per call, want 0", name, allocs)
		}
		_ = sink
	}
}

// TestSignsInto: shared rounding semantics with SignsOf (0 rounds to +1)
// and dimension validation.
func TestSignsInto(t *testing.T) {
	x := []float64{-0.5, 0, 3, -1e-12}
	dst := make([]int8, 4)
	got := SignsInto(x, dst)
	want := SignsOf(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SignsInto[%d] = %d, SignsOf = %d", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SignsInto(x, make([]int8, 3))
}

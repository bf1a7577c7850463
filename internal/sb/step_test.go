package sb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/ising"
)

// stepBody is wallStep's signature.
type stepBody func(x, y, f, h, s []float64, k, c0, dt, dta float64)

// stepBodies returns the step bodies this host runs: the Go body
// everywhere, and wallStep (AVX2 body plus Go tail) where the CPU has
// AVX2.
func stepBodies() map[string]stepBody {
	b := map[string]stepBody{"go": wallStepGo}
	if ising.HasAVX2() {
		b["avx2"] = wallStep
	}
	return b
}

// forceGoStep makes wallStep run its Go body until the returned function
// restores the CPUID probe's choice.
func forceGoStep() func() {
	stepAVX2 = false
	return func() { stepAVX2 = ising.HasAVX2() }
}

// refStep is the engine's step as it was written before wallStep, kept
// as the reference: a bias pass into the field, then per spin the
// scalar update, the wall branches and, when s is non-nil, the dSB sign.
// The bias pass writes a copy, since wallStep leaves f alone.
func refStep(x, y, f, h, s []float64, a0, at, c0, dt float64) {
	f = append([]float64(nil), f[:len(x)]...)
	if h != nil {
		for i := range f {
			f[i] += h[i]
		}
	}
	for i := range x {
		y[i] += dt * (-(a0-at)*x[i] + c0*f[i])
		x[i] += dt * a0 * y[i]
		if x[i] > 1 {
			x[i] = 1
			y[i] = 0
		} else if x[i] < -1 {
			x[i] = -1
			y[i] = 0
		}
		if s != nil {
			if x[i] >= 0 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
	}
}

// sameBits reports a and b having the same bits, any two NaNs counting
// as equal (payloads aside).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// stepSpecials are the values the step's branches and roundings turn on:
// signed zeros, the walls and their neighbours, NaN, infinities and
// subnormals.
var stepSpecials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(-1, -2), math.Nextafter(-1, 0),
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074),
	0.5, -0.75, 1e300, -1e300,
}

// stepCase is one step input: a lane of n spins, a bias used only when
// biased is set, dSB signs when s is non-nil, and the pump state.
type stepCase struct {
	x, y, f, h, s  []float64
	a0, at, c0, dt float64
	biased         bool
}

// checkStep runs every step body on a copy of c and compares x, y and s
// with refStep bit for bit (NaN payloads aside); f must be unchanged.
func checkStep(t *testing.T, name string, c stepCase) {
	t.Helper()
	clone := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		return append([]float64(nil), v...)
	}
	wx, wy, ws := clone(c.x), clone(c.y), clone(c.s)
	var h []float64
	if c.biased {
		h = c.h
	}
	refStep(wx, wy, c.f, h, ws, c.a0, c.at, c.c0, c.dt)
	for body, step := range stepBodies() {
		x, y, f, s := clone(c.x), clone(c.y), clone(c.f), clone(c.s)
		step(x, y, f, h, s, -(c.a0 - c.at), c.c0, c.dt, c.dt*c.a0)
		for i := range x {
			if !sameBits(x[i], wx[i]) || !sameBits(y[i], wy[i]) {
				t.Fatalf("%s/%s spin %d: (x, y) = (%v, %v), want (%v, %v)", name, body, i, x[i], y[i], wx[i], wy[i])
			}
			if s != nil && !sameBits(s[i], ws[i]) {
				t.Fatalf("%s/%s spin %d: s = %v, want %v", name, body, i, s[i], ws[i])
			}
			if !sameBits(f[i], c.f[i]) {
				t.Fatalf("%s/%s spin %d: f written", name, body, i)
			}
		}
	}
}

// randomStepCase fills an n-spin case from rng, drawing each value from
// stepSpecials with probability special and from a normal law otherwise.
func randomStepCase(rng *rand.Rand, n int, special float64, biased, discrete bool) stepCase {
	draw := func(scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Float64() < special {
				v[i] = stepSpecials[rng.Intn(len(stepSpecials))]
			} else {
				v[i] = rng.NormFloat64() * scale
			}
		}
		return v
	}
	c := stepCase{
		x: draw(0.8), y: draw(0.5), f: draw(2), h: draw(0.3),
		a0: 1, at: rng.Float64(), c0: 0.1 + rng.Float64(), dt: []float64{1, 0.5, 0.25}[rng.Intn(3)],
		biased: biased,
	}
	if discrete {
		c.s = make([]float64, n)
	}
	return c
}

// TestWallStepKernelsMatch is the step kernels' differential test: the
// Go body and, on AVX2 hosts, the assembly body with its Go tail must
// reproduce the reference step bit for bit for every n mod 4, with and
// without a bias and dSB signs, on inputs full of signed zeros, wall
// neighbours, NaN, infinities and subnormals.
func TestWallStepKernelsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 40, 43, 64, 66, 768} {
		for _, biased := range []bool{false, true} {
			for _, discrete := range []bool{false, true} {
				for _, special := range []float64{0, 0.3, 1} {
					name := fmt.Sprintf("n=%d/h=%v/s=%v/special=%v", n, biased, discrete, special)
					for rep := 0; rep < 4; rep++ {
						checkStep(t, name, randomStepCase(rng, n, special, biased, discrete))
					}
				}
			}
		}
	}
	// Every special value in every input position, n = 7 so the AVX2
	// body and the tail both see it.
	for _, v := range stepSpecials {
		for pos := 0; pos < 7; pos++ {
			for _, field := range []int{0, 1, 2, 3} {
				c := randomStepCase(rng, 7, 0, true, true)
				[][]float64{c.x, c.y, c.f, c.h}[field][pos] = v
				checkStep(t, fmt.Sprintf("special=%v/field=%d/pos=%d", v, field, pos), c)
			}
		}
	}
}

// FuzzWallStep drives the step kernels with arbitrary lanes: each input
// byte picks a special value or a scaled byte for one of x, y, f and h,
// and the pump state and coupling scale are free. Every body must match
// refStep as in TestWallStepKernelsMatch.
func FuzzWallStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 0.3, 0.2, 1.0, true, true)
	f.Add([]byte{200, 7, 150, 3, 99, 12, 1}, 0.0, 1.5, 0.5, false, true)
	f.Add([]byte{8, 8, 8, 8, 255, 128, 64, 32, 16, 1, 2}, 0.9, -0.4, 0.25, true, false)
	f.Fuzz(func(t *testing.T, data []byte, at, c0, dt float64, biased, discrete bool) {
		n := len(data) / 4
		if n > 256 {
			n = 256
		}
		val := func(b byte) float64 {
			if int(b) < len(stepSpecials) {
				return stepSpecials[b]
			}
			return (float64(b) - 128) / 32
		}
		c := stepCase{a0: 1, at: at, c0: c0, dt: dt, biased: biased}
		c.x, c.y, c.f, c.h = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			c.x[i], c.y[i], c.f[i], c.h[i] = val(data[4*i]), val(data[4*i+1]), val(data[4*i+2]), val(data[4*i+3])
		}
		if discrete {
			c.s = make([]float64, n)
		}
		checkStep(t, "fuzz", c)
	})
}

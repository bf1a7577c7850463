package ising

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// fieldSpecials are the positions the bit-identity argument of the tiled
// bipartite kernel hinges on: exact signed zeros (the rows the two-pass
// kernel skips), the bSB wall positions, and non-finite poison.
var fieldSpecials = []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// specialVector draws n positions, each one of fieldSpecials with
// probability specialFrac and Gaussian otherwise.
func specialVector(n int, rng *rand.Rand, specialFrac float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() < specialFrac {
			x[i] = fieldSpecials[rng.Intn(len(fieldSpecials))]
		} else {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// assertFieldMatchesTwoPass checks a Field kernel against the two-pass
// reference kernel on one input, bit for bit except for NaN payloads:
// IEEE 754 leaves open which operand's payload a NaN+NaN sum carries, and
// the compiler may commute an addition's operands differently in the two
// kernels (a fuzzing build does). SB reads a NaN only through
// comparisons, which ignore the payload. Both outputs start poisoned with
// different values, so an entry either kernel fails to write shows up as
// a mismatch.
func assertFieldMatchesTwoPass(t testing.TB, b *Bipartite, field func(x, out []float64), x []float64, label string) {
	t.Helper()
	n := b.N()
	got, want := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i], want[i] = 7, -7
	}
	field(x, got)
	b.fieldTwoPass(x, want)
	for i := range got {
		bothNaN := math.IsNaN(got[i]) && math.IsNaN(want[i])
		if !bothNaN && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: spin %d: Field %v (%#x) != two-pass %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// finiteKernels lists Field's finite-block kernels that run on this host,
// called directly: the Go tiles everywhere, the AVX2 assembly tile where
// the CPU has it.
func finiteKernels(b *Bipartite) map[string]func(x, out []float64) {
	k := map[string]func(x, out []float64){"go": b.fieldGo}
	if hasAVX2 {
		k["avx2"] = b.fieldAVX2
	}
	return k
}

// TestBipartiteFieldTiledBitIdentical pins both finite-block kernels,
// the Go tiles and the AVX2 tile, to the two-pass kernel for every row
// count up to three 8-row tiles (nu = 1…24), every column remainder of
// the 4-column AVX2 block, and the Fig. 4 core-COP shape (512×256), on
// inputs holding exact ±0, ±1, NaN and ±Inf, including vectors whose U
// side is entirely ±0.
func TestBipartiteFieldTiledBitIdentical(t *testing.T) {
	type shape struct{ nu, nw int }
	var shapes []shape
	for nu := 1; nu <= 24; nu++ {
		for _, nw := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
			shapes = append(shapes, shape{nu, nw})
		}
	}
	shapes = append(shapes, shape{512, 256})
	for _, s := range shapes {
		b := randomBipartiteCoupler(s.nu, s.nw, int64(100*s.nu+s.nw))
		// Exact-zero couplings make -0 products with negative positions.
		b.SetCross(0, 0, 0)
		rng := rand.New(rand.NewSource(int64(s.nu*s.nw + 1)))
		n := s.nu + s.nw
		inputs := map[string][]float64{
			"gaussian": specialVector(n, rng, 0),
			"mixed":    specialVector(n, rng, 0.3),
			"specials": specialVector(n, rng, 1),
			"zero":     make([]float64, n),
		}
		// Signed zeros on every U row: the rows the two-pass kernel skips.
		uZero := specialVector(n, rng, 0.3)
		for u := 0; u < s.nu; u++ {
			uZero[u] = fieldSpecials[u%2]
		}
		inputs["u-zero"] = uZero
		// Only ±0 and the ±1 walls: the positions of a clamped bSB state.
		walls := make([]float64, n)
		for i := range walls {
			walls[i] = fieldSpecials[rng.Intn(4)]
		}
		inputs["walls"] = walls
		for kernel, field := range finiteKernels(b) {
			for name, x := range inputs {
				assertFieldMatchesTwoPass(t, b, field, x, fmt.Sprintf("%s/%dx%d/%s", kernel, s.nu, s.nw, name))
			}
		}
	}
}

// TestAVX2ProbeMatchesCPUInfo guards the CPUID/XGETBV probe: on a Linux
// host whose /proc/cpuinfo lists AVX2, the probe must report it, or
// Field would fall back to the Go tiles unnoticed. Linux hides the
// osxsave flag from /proc/cpuinfo, so xsave stands in for it: Linux
// drops avx and avx2 from the list when it does not enable XSAVE.
func TestAVX2ProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if !flags["avx2"] || !(flags["osxsave"] || flags["xsave"]) {
		t.Skip("/proc/cpuinfo lists no avx2 with OS-enabled XSAVE")
	}
	if !hasAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 and xsave, but the CPUID probe reports no AVX2")
	}
}

// TestBipartiteFieldNonFiniteTakesTwoPass: with an Inf or NaN coupling
// on a row whose position is exactly 0, the two-pass kernel skips the
// row while a tile would add 0·Inf = NaN, so a non-finite block must
// take the two-pass path.
func TestBipartiteFieldNonFiniteTakesTwoPass(t *testing.T) {
	for _, poison := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for nu := 1; nu <= 9; nu++ {
			nw := 6
			b := randomBipartiteCoupler(nu, nw, int64(nu))
			b.SetCross(nu-1, 2, poison)
			rng := rand.New(rand.NewSource(int64(nu)))
			x := specialVector(nu+nw, rng, 0)
			x[nu-1] = 0
			assertFieldMatchesTwoPass(t, b, b.Field, x, fmt.Sprintf("nu=%d/J=%v", nu, poison))
			// The poisoned row is skipped, so W spin 2 stays finite.
			out := make([]float64, nu+nw)
			b.Field(x, out)
			if math.IsNaN(out[nu+2]) {
				t.Fatalf("nu=%d/J=%v: 0·J leaked into W spin 2", nu, poison)
			}
		}
	}
}

// FuzzBipartiteField compares Field, and on finite blocks each
// finite-block kernel, with the two-pass kernel on random shapes (up to
// three 8-row tiles, every row and column remainder), positions drawn
// partly from fieldSpecials, exact-zero couplings, and (when poison is
// odd) one non-finite coupling.
func FuzzBipartiteField(f *testing.F) {
	f.Add(uint8(3), uint8(7), int64(1), uint8(30), uint8(0))
	f.Add(uint8(8), uint8(1), int64(2), uint8(100), uint8(1))
	f.Add(uint8(0), uint8(0), int64(3), uint8(0), uint8(0))
	f.Add(uint8(13), uint8(40), int64(4), uint8(50), uint8(3))
	f.Fuzz(func(t *testing.T, nuRaw, nwRaw uint8, seed int64, specialPct, poison uint8) {
		nu, nw := 1+int(nuRaw)%24, 1+int(nwRaw)%48
		rng := rand.New(rand.NewSource(seed))
		b := NewBipartite(nu, nw)
		for u := 0; u < nu; u++ {
			for w := 0; w < nw; w++ {
				if rng.Intn(5) != 0 {
					b.SetCross(u, w, rng.NormFloat64())
				}
			}
		}
		if poison%2 == 1 {
			b.SetCross(rng.Intn(nu), rng.Intn(nw), fieldSpecials[4+int(poison/2)%3])
		}
		x := specialVector(nu+nw, rng, float64(specialPct%101)/100)
		label := fmt.Sprintf("%dx%d seed=%d", nu, nw, seed)
		assertFieldMatchesTwoPass(t, b, b.Field, x, label)
		if poison%2 == 0 {
			for kernel, field := range finiteKernels(b) {
				assertFieldMatchesTwoPass(t, b, field, x, kernel+"/"+label)
			}
		}
	})
}

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

// fieldSpecials are the positions the bit-identity argument of the twin
// kernels hinges on: exact signed zeros (the rows the two-pass
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
func assertFieldMatchesTwoPass(t testing.TB, b *Twin, field func(x, out []float64), x []float64, label string) {
	t.Helper()
	assertFieldPrefixMatchesTwoPass(t, b, b.N(), field, x, label)
}

// assertFieldUMatchesTwoPass is assertFieldMatchesTwoPass for a FieldU
// kernel: the U-side outputs only.
func assertFieldUMatchesTwoPass(t testing.TB, b *Twin, field func(x, out []float64), x []float64, label string) {
	t.Helper()
	assertFieldPrefixMatchesTwoPass(t, b, b.c, field, x, label)
}

// assertFieldPrefixMatchesTwoPass compares the first m outputs of field
// with the two-pass kernel's. field gets an N-long output buffer.
func assertFieldPrefixMatchesTwoPass(t testing.TB, b *Twin, m int, field func(x, out []float64), x []float64, label string) {
	t.Helper()
	n := b.N()
	got, want := make([]float64, n), make([]float64, n)
	for i := range got {
		got[i], want[i] = 7, -7
	}
	field(x, got)
	b.fieldTwoPass(x, want)
	for i := range got[:m] {
		bothNaN := math.IsNaN(got[i]) && math.IsNaN(want[i])
		if !bothNaN && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: spin %d: Field %v (%#x) != two-pass %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// twinKernel is one finite-block kernel pair, called directly: Field's
// and FieldU's.
type twinKernel struct {
	field, fieldU func(x, out []float64)
}

// hostFamilies lists the kernel families that run on this host: Go
// everywhere, AVX2 where the CPU has AVX2 (AVX-512 hosts included,
// though Field runs the AVX-512 family there) and AVX-512 where it has
// AVX-512.
func hostFamilies() map[string]twinFamily {
	f := map[string]twinFamily{"go": familyGo}
	if hasAVX2 {
		f["avx2"] = familyAVX2
	}
	if hasAVX512 {
		f["avx512"] = familyAVX512
	}
	return f
}

// familyField is Field's finite-block product on family f's kernels,
// run from term 0 without checkpoints.
func (t *Twin) familyField(f twinFamily) func(x, out []float64) {
	return func(x, out []float64) {
		t.uChains(f, x, out, 0, nil, nil)
		t.wChains(f, x, out, 0, nil, nil)
	}
}

// familyFieldU is FieldU's finite-block product on family f's kernels.
func (t *Twin) familyFieldU(f twinFamily) func(x, out []float64) {
	return func(x, out []float64) { t.uChains(f, x, out, 0, nil, nil) }
}

// finiteKernels lists the finite-block kernel pairs of hostFamilies,
// each called directly.
func finiteKernels(b *Twin) map[string]twinKernel {
	k := map[string]twinKernel{}
	for name, f := range hostFamilies() {
		k[name] = twinKernel{b.familyField(f), b.familyFieldU(f)}
	}
	return k
}

// twinShapes are the c×r shapes the kernel tests cover: every U row
// count up to three 32-row panels and a remainder (c = 1…97) against
// every W column remainder of the 64-, 16- and 4-column assembly
// blocks, plus the n = 9 serve shape (32×16) and the Fig. 4 core-COP
// shape (512×128). Below 64 columns every c runs; from 64 columns on,
// c steps through 1, 2, 3, every seventh count and the panel edges 31,
// 32, 33, 63, 64, 65, 95, 96 and 97, which keeps the run short.
func twinShapes() [][2]int {
	var shapes [][2]int
	for c := 1; c <= 97; c++ {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32, 33} {
			shapes = append(shapes, [2]int{c, r})
		}
		if c > 3 && c%7 != 0 && (c+1)%32 > 2 {
			continue
		}
		for _, r := range []int{63, 64, 65, 96, 127, 128, 129} {
			shapes = append(shapes, [2]int{c, r})
		}
	}
	return append(shapes, [2]int{32, 16}, [2]int{512, 128})
}

// TestBipartiteFieldTiledBitIdentical pins every finite-block kernel
// pair that runs on the host (Go, AVX2 and AVX-512) to the two-pass
// kernel on every twinShapes shape, on inputs holding exact ±0, ±1, NaN
// and ±Inf, including vectors whose U side is entirely ±0, and pins
// each FieldU kernel to the U half of its Field kernel.
func TestBipartiteFieldTiledBitIdentical(t *testing.T) {
	for _, s := range twinShapes() {
		c, r := s[0], s[1]
		b := randomTwinCoupler(c, r, int64(100*c+r))
		// Exact-zero couplings make ±0 products.
		zero := make([]float64, c)
		for j := range zero {
			zero[j] = b.q[j*r]
		}
		zero[0] = 0
		zero[c-1] = math.Copysign(0, -1)
		b.SetColumn(0, zero)
		rng := rand.New(rand.NewSource(int64(c*r + 1)))
		n := b.N()
		inputs := map[string][]float64{
			"gaussian": specialVector(n, rng, 0),
			"mixed":    specialVector(n, rng, 0.3),
			"specials": specialVector(n, rng, 1),
			"zero":     make([]float64, n),
		}
		// Signed zeros on every U row: the rows the two-pass kernel skips.
		uZero := specialVector(n, rng, 0.3)
		for u := 0; u < c; u++ {
			uZero[u] = fieldSpecials[u%2]
		}
		inputs["u-zero"] = uZero
		// Only ±0 and the ±1 walls: the positions of a clamped bSB state.
		walls := make([]float64, n)
		for i := range walls {
			walls[i] = fieldSpecials[rng.Intn(4)]
		}
		inputs["walls"] = walls
		for kernel, k := range finiteKernels(b) {
			for name, x := range inputs {
				label := fmt.Sprintf("%s/%dx%d/%s", kernel, c, r, name)
				assertFieldMatchesTwoPass(t, b, k.field, x, label)
				assertFieldUMatchesTwoPass(t, b, k.fieldU, x, label+"/FieldU")
				assertFieldUMatchesField(t, b, k.field, k.fieldU, x, label)
			}
		}
	}
}

// assertFieldUMatchesField checks a FieldU kernel against the U half of
// a Field kernel bit for bit, NaN payloads included.
func assertFieldUMatchesField(t testing.TB, b *Twin, field, fieldU func(x, out []float64), x []float64, label string) {
	t.Helper()
	full, u := make([]float64, b.N()), make([]float64, b.c)
	field(x, full)
	fieldU(x, u)
	for j := range u {
		if math.Float64bits(u[j]) != math.Float64bits(full[j]) {
			t.Fatalf("%s: FieldU[%d] %v (%#x) != Field %v (%#x)", label, j,
				u[j], math.Float64bits(u[j]), full[j], math.Float64bits(full[j]))
		}
	}
}

// cpuInfoFlags returns the first flags line of /proc/cpuinfo as a set,
// after logging which kernel sets the probe picked, so a verbose run
// shows them. It skips the test off Linux or when the file is missing.
// Linux hides the osxsave flag from /proc/cpuinfo, so xsave stands in
// for it: Linux drops avx, avx2 and avx512f from the list when it does
// not enable XSAVE, and avx512f when it does not save the ZMM state.
func cpuInfoFlags(t *testing.T) map[string]bool {
	t.Helper()
	t.Logf("probe: avx2=%v avx512=%v", hasAVX2, hasAVX512)
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
	return flags
}

// TestAVX2ProbeMatchesCPUInfo guards the CPUID/XGETBV probe: on a Linux
// host whose /proc/cpuinfo lists AVX2, the probe must report it, or
// Field would fall back to the Go kernels unnoticed.
func TestAVX2ProbeMatchesCPUInfo(t *testing.T) {
	flags := cpuInfoFlags(t)
	if !flags["avx2"] || !(flags["osxsave"] || flags["xsave"]) {
		t.Skip("/proc/cpuinfo lists no avx2 with OS-enabled XSAVE")
	}
	if !hasAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 and xsave, but the CPUID probe reports no AVX2")
	}
}

// TestAVX512ProbeMatchesCPUInfo is TestAVX2ProbeMatchesCPUInfo for the
// AVX-512 kernels: a Linux host whose /proc/cpuinfo lists avx512f must
// run them.
func TestAVX512ProbeMatchesCPUInfo(t *testing.T) {
	flags := cpuInfoFlags(t)
	if !flags["avx512f"] || !(flags["osxsave"] || flags["xsave"]) {
		t.Skip("/proc/cpuinfo lists no avx512f with OS-enabled XSAVE")
	}
	if !hasAVX512 {
		t.Fatal("/proc/cpuinfo lists avx512f and xsave, but the CPUID probe reports no AVX-512")
	}
}

// TestBipartiteFieldNonFiniteTakesTwoPass: with an Inf or NaN coupling
// on a row whose position is exactly 0, the two-pass kernel skips the
// row while the finite-block kernels would add 0·Inf = NaN, so a
// non-finite block must take the two-pass path, in Field and FieldU.
func TestBipartiteFieldNonFiniteTakesTwoPass(t *testing.T) {
	for _, poison := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, c := range []int{1, 2, 5, 9, 32, 33, 70} {
			r := 3
			b := randomTwinCoupler(c, r, int64(c))
			col := make([]float64, c)
			for j := range col {
				col[j] = b.q[j*r+2]
			}
			col[c-1] = poison
			b.SetColumn(2, col)
			rng := rand.New(rand.NewSource(int64(c)))
			x := specialVector(b.N(), rng, 0)
			x[c-1] = 0
			label := fmt.Sprintf("c=%d/J=%v", c, poison)
			assertFieldMatchesTwoPass(t, b, b.Field, x, label)
			assertFieldUMatchesTwoPass(t, b, b.FieldU, x, label+"/FieldU")
			// The poisoned row is skipped, so both W spins of pair 2
			// stay finite.
			out := make([]float64, b.N())
			b.Field(x, out)
			if math.IsNaN(out[c+2]) || math.IsNaN(out[c+r+2]) {
				t.Fatalf("%s: 0·J leaked into pair 2", label)
			}
		}
	}
}

// FuzzBipartiteField compares Field and FieldU, and on finite blocks
// each finite-block kernel (Go, AVX2 and AVX-512, as the host runs
// them), with the two-pass kernel on random twin shapes (up to three
// 32-row panels and a remainder, every W column remainder of the
// assembly blocks up to 130 columns), positions drawn partly from
// fieldSpecials, exact-zero couplings, and (when poison is odd) one
// non-finite coupling.
func FuzzBipartiteField(f *testing.F) {
	f.Add(uint8(3), uint8(7), int64(1), uint8(30), uint8(0))
	f.Add(uint8(8), uint8(1), int64(2), uint8(100), uint8(1))
	f.Add(uint8(0), uint8(0), int64(3), uint8(0), uint8(0))
	f.Add(uint8(13), uint8(40), int64(4), uint8(50), uint8(3))
	f.Add(uint8(69), uint8(32), int64(5), uint8(20), uint8(0))
	f.Add(uint8(96), uint8(128), int64(6), uint8(30), uint8(0))
	f.Add(uint8(40), uint8(100), int64(7), uint8(60), uint8(0))
	f.Fuzz(func(t *testing.T, cRaw, rRaw uint8, seed int64, specialPct, poison uint8) {
		c, r := 1+int(cRaw)%100, 1+int(rRaw)%130
		rng := rand.New(rand.NewSource(seed))
		b := NewTwin(c, r)
		col := make([]float64, c)
		poisonRow, poisonCol := rng.Intn(c), rng.Intn(r)
		for i := 0; i < r; i++ {
			for j := range col {
				col[j] = 0
				if rng.Intn(5) != 0 {
					col[j] = rng.NormFloat64()
				}
			}
			if poison%2 == 1 && i == poisonCol {
				col[poisonRow] = fieldSpecials[4+int(poison/2)%3]
			}
			b.SetColumn(i, col)
		}
		x := specialVector(b.N(), rng, float64(specialPct%101)/100)
		label := fmt.Sprintf("%dx%d seed=%d", c, r, seed)
		assertFieldMatchesTwoPass(t, b, b.Field, x, label)
		assertFieldUMatchesTwoPass(t, b, b.FieldU, x, label+"/FieldU")
		if poison%2 == 0 {
			for kernel, k := range finiteKernels(b) {
				assertFieldMatchesTwoPass(t, b, k.field, x, kernel+"/"+label)
				assertFieldUMatchesField(t, b, k.field, k.fieldU, x, kernel+"/"+label)
			}
		}
	})
}

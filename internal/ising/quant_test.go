package ising

import (
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/fault"
)

// exactQuantDense builds a dense coupling whose entries are integer
// multiples k·2⁻⁵ with |k| ≤ 127 and at least one |k| = 127, so the
// symmetric int8 scale comes out as exactly 2⁻⁵ and quantization is
// lossless. Entries are kept large (|k| ≥ 64) so the rms stays above the
// int16-promotion threshold.
func exactQuantDense(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(n)
	const ulp = 1.0 / 32 // 2^-5
	d.Set(0, 1, 127*ulp)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 && j == 1 {
				continue
			}
			k := 64 + rng.Intn(64) // [64, 127]
			if rng.Intn(2) == 0 {
				k = -k
			}
			d.Set(i, j, float64(k)*ulp)
		}
	}
	return d
}

// signsVec materializes the ±1 float64 sign buffer the dSB engines feed
// the quantized kernels (v >= 0 → +1, else -1).
func signsVec(x []float64) []float64 {
	s := make([]float64, len(x))
	for i, v := range x {
		if v >= 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// fieldOfSigns computes the float reference the quantized kernel
// approximates: c.Field applied to sign(x) under the engines' v >= 0
// convention.
func fieldOfSigns(c Coupler, x []float64) []float64 {
	out := make([]float64, c.N())
	c.Field(signsVec(x), out)
	return out
}

// TestQuantizeExactRepresentable: when every coupling is an integer
// multiple of the scale, the fixed-point field is bit-identical to the
// float field of signs — integer sums scaled by a power of two are exact
// in both pipelines.
func TestQuantizeExactRepresentable(t *testing.T) {
	for _, n := range []int{2, 5, 16, 33} {
		d := exactQuantDense(n, int64(n))
		q, ok := Quantize(d)
		if !ok {
			t.Fatalf("n=%d: Quantize rejected an exact-representable matrix", n)
		}
		if q.Bits() != 8 {
			t.Fatalf("n=%d: picked %d-bit, want 8-bit (rms well above threshold)", n, q.Bits())
		}
		if q.Scale() != 1.0/32 {
			t.Fatalf("n=%d: scale %v, want exactly 2^-5", n, q.Scale())
		}
		x := randomBlock(n, 1, int64(n)+100, 0.1)
		want := fieldOfSigns(d, x)
		got := make([]float64, n)
		q.FieldSigns(signsVec(x), got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d spin %d: quant %v != float %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestQuantizeWidthSelection pins the int8/int16 auto-pick: a spread
// distribution stays at 8 bits, a small-rms distribution with one outlier
// is promoted to 16.
func TestQuantizeWidthSelection(t *testing.T) {
	spread := randomDenseCoupler(16, 3)
	q, ok := Quantize(spread)
	if !ok || q.Bits() != 8 {
		t.Fatalf("Gaussian couplings: ok=%v bits=%d, want 8-bit", ok, q.Bits())
	}
	// One unit outlier among ~10³ tiny entries: maxAbs = 1 but the rms
	// dilutes below the 8·(maxAbs/127) promotion threshold, so int8 would
	// flush everything but the outlier — the picker must go to 16 bits.
	const m = 32
	skewed := NewDense(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			skewed.Set(i, j, 1e-3)
		}
	}
	skewed.Set(0, 1, 1.0)
	q, ok = Quantize(skewed)
	if !ok || q.Bits() != 16 {
		t.Fatalf("outlier-dominated couplings: ok=%v bits=%d, want 16-bit", ok, q.Bits())
	}
	// At 16 bits the small entries survive: round(1e-3 / (1/32767)) > 0.
	x := make([]float64, m)
	for i := range x {
		x[i] = 1
	}
	out := make([]float64, m)
	q.FieldSigns(x, out) // x is all +1, already a valid sign buffer
	if out[5] == 0 {
		t.Fatal("16-bit path flushed the small couplings to zero")
	}
}

// TestQuantizeRejections: matrices the fast path must refuse, degrading
// to the exact float kernels.
func TestQuantizeRejections(t *testing.T) {
	if _, ok := Quantize(NewDense(8)); ok {
		t.Fatal("accepted an all-zero matrix (scale would be 0)")
	}
	bad := NewDense(4)
	bad.Set(0, 1, math.NaN())
	if _, ok := Quantize(bad); ok {
		t.Fatal("accepted a NaN coupling")
	}
	inf := NewDense(4)
	inf.Set(1, 2, math.Inf(-1))
	if _, ok := Quantize(inf); ok {
		t.Fatal("accepted an Inf coupling")
	}
	b := NewTwin(3, 3)
	b.SetColumn(0, []float64{1, 0, 0})
	if _, ok := Quantize(b); ok {
		t.Fatal("accepted a Twin coupler (no quantized kernel for it)")
	}
}

// TestQuantizeOverflowSiteForcesFallback: the armed overflow failpoint
// models the dynamic-range guard tripping; Quantize must report failure
// so callers stay on the float path.
func TestQuantizeOverflowSiteForcesFallback(t *testing.T) {
	defer fault.DisarmAll()
	fault.MustArm("ising.quant.overflow", fault.Scenario{Times: -1})
	if _, ok := Quantize(randomDenseCoupler(8, 1)); ok {
		t.Fatal("Quantize succeeded with the overflow site armed")
	}
	fault.DisarmAll()
	if _, ok := Quantize(randomDenseCoupler(8, 1)); !ok {
		t.Fatal("Quantize still failing after disarm")
	}
}

// TestQuantizeAccumSitePoisons: the accumulate failpoint corrupts the
// first output — the hook the chaos suite uses to prove divergence guards
// catch quantized-kernel faults.
func TestQuantizeAccumSitePoisons(t *testing.T) {
	defer fault.DisarmAll()
	q, ok := Quantize(randomDenseCoupler(8, 2))
	if !ok {
		t.Fatal("Quantize failed")
	}
	fault.MustArm("ising.quant.accum", fault.Scenario{Times: -1})
	out := make([]float64, 8)
	q.FieldSigns(signsVec(randomBlock(8, 1, 3, 0)), out)
	if !math.IsNaN(out[0]) {
		t.Fatalf("armed accum site left out[0] = %v, want NaN", out[0])
	}
}

// TestQuantizeDenseCSRLayoutsAgree: the same matrix quantized through the
// dense layout and through the CSR layout must produce bit-identical
// fields — same scale, same codes, zero codes contribute nothing.
func TestQuantizeDenseCSRLayoutsAgree(t *testing.T) {
	n := 24
	d := randomSparseDense(n, 0.5, 9) // above threshold → dense layout
	qd, ok := Quantize(d)
	if !ok {
		t.Fatal("dense-layout Quantize failed")
	}
	qs, ok := Quantize(NewSparseFromDense(d)) // CSR layout
	if !ok {
		t.Fatal("CSR-layout Quantize failed")
	}
	if qd.Scale() != qs.Scale() || qd.Bits() != qs.Bits() {
		t.Fatalf("layouts disagree on scale/width: (%v,%d) vs (%v,%d)", qd.Scale(), qd.Bits(), qs.Scale(), qs.Bits())
	}
	x := randomBlock(n, 1, 10, 0.1)
	od := make([]float64, n)
	os := make([]float64, n)
	sigma := signsVec(x)
	qd.FieldSigns(sigma, od)
	qs.FieldSigns(sigma, os)
	for i := range od {
		if math.Float64bits(od[i]) != math.Float64bits(os[i]) {
			t.Fatalf("spin %d: dense layout %v != CSR layout %v", i, od[i], os[i])
		}
	}
}

// TestFieldSignsBatchMatchesScalar: every batch lane equals a scalar
// FieldSigns call bitwise, including ragged replica counts.
func TestFieldSignsBatchMatchesScalar(t *testing.T) {
	for _, density := range []float64{0.1, 0.8} {
		for _, r := range []int{1, 2, 3, 5, 8} {
			n := 19
			q, ok := Quantize(randomSparseDense(n, density, int64(r)))
			if !ok {
				t.Fatalf("Quantize failed (density %g)", density)
			}
			x := randomBlock(n, r, int64(r)+50, 0.1)
			sg := signsVec(x)
			batch := make([]float64, n*r)
			q.FieldSignsBatch(sg, batch, r)
			lane := make([]float64, n)
			for k := 0; k < r; k++ {
				q.FieldSigns(sg[k*n:k*n+n], lane)
				for i := range lane {
					if math.Float64bits(batch[k*n+i]) != math.Float64bits(lane[i]) {
						t.Fatalf("density=%g r=%d lane %d spin %d: batch %v != scalar %v", density, r, k, i, batch[k*n+i], lane[i])
					}
				}
			}
		}
	}
}

// TestQuantizeErrorEnvelope: the per-spin deviation from the float field
// of signs is bounded by the rounding budget — each coupling moves by at
// most scale/2, so row i deviates by at most nnz(i)·scale/2 (plus float
// rounding slack). This is the documented accuracy envelope.
func TestQuantizeErrorEnvelope(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, density := range []float64{0.1, 0.5, 1} {
			n := 40
			d := randomSparseDense(n, density, seed)
			q, ok := Quantize(d)
			if !ok {
				t.Fatalf("Quantize failed (density %g seed %d)", density, seed)
			}
			x := randomBlock(n, 1, seed+7, 0)
			want := fieldOfSigns(d, x)
			got := make([]float64, n)
			q.FieldSigns(signsVec(x), got)
			for i := 0; i < n; i++ {
				nnz := 0
				for j := 0; j < n; j++ {
					if d.At(i, j) != 0 {
						nnz++
					}
				}
				bound := float64(nnz)*q.Scale()/2 + 1e-12
				if dev := math.Abs(got[i] - want[i]); dev > bound {
					t.Fatalf("density=%g seed=%d spin %d: deviation %g exceeds envelope %g (nnz=%d scale=%g)",
						density, seed, i, dev, bound, nnz, q.Scale())
				}
			}
		}
	}
}

// TestFieldSignsNoAllocs: after construction, both quantized kernels run
// allocation-free on caller scratch.
func TestFieldSignsNoAllocs(t *testing.T) {
	n, r := 32, 4
	for name, c := range map[string]Coupler{
		"dense": randomSparseDense(n, 0.8, 4),
		"csr":   NewSparseFromDense(randomSparseDense(n, 0.1, 5)),
	} {
		q, ok := Quantize(c)
		if !ok {
			t.Fatalf("%s: Quantize failed", name)
		}
		x := randomBlock(n, r, 6, 0)
		out := make([]float64, n*r)
		sigma := signsVec(x)
		if a := testing.AllocsPerRun(20, func() { q.FieldSigns(sigma[:n], out[:n]) }); a != 0 {
			t.Errorf("%s FieldSigns allocates %.1f times per call, want 0", name, a)
		}
		if a := testing.AllocsPerRun(20, func() { q.FieldSignsBatch(sigma, out, r) }); a != 0 {
			t.Errorf("%s FieldSignsBatch allocates %.1f times per call, want 0", name, a)
		}
	}
}

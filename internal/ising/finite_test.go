package ising

import (
	"math"
	"testing"
)

// TestBipartiteFieldBatchNonFiniteRoutesToFallback is the regression test
// for the batched twin kernel's wrong-answer case: the two-pass kernel
// skips W-side rank-1 contributions where x[u] is exactly zero, while the
// finite-block kernels multiply through — fine for finite J, but
// 0·Inf = NaN. A non-finite coupling must route FieldBatch to the
// per-lane two-pass path so both agree bitwise.
func TestBipartiteFieldBatchNonFiniteRoutesToFallback(t *testing.T) {
	nu, pairs := 3, 2
	n := nu + 2*pairs
	b := NewTwin(nu, pairs)
	b.SetColumn(0, []float64{0, 0, 0.5})
	b.SetColumn(1, []float64{math.Inf(1), -2, 0})
	if b.AllFinite() {
		t.Fatal("AllFinite missed the Inf coupling")
	}

	r := 5
	x := randomBlock(n, r, 11, 0)
	// Zero out the U spin that feeds the Inf coupling in some lanes: the
	// two-pass kernel's xv==0 skip makes those W fields finite, the
	// finite-block kernels would make them NaN.
	x[0*n+0] = 0
	x[2*n+0] = 0
	x[4*n+0] = 0

	batch := make([]float64, n*r)
	b.FieldBatch(x, batch, r)
	lane := make([]float64, n)
	for k := 0; k < r; k++ {
		b.Field(x[k*n:k*n+n], lane)
		for i := range lane {
			if math.Float64bits(batch[k*n+i]) != math.Float64bits(lane[i]) {
				t.Fatalf("lane %d spin %d: batch %v != scalar %v", k, i, batch[k*n+i], lane[i])
			}
		}
	}
}

// TestBipartiteAllFiniteMemoized: the finiteness scan is cached (Field
// consults it every call) and invalidated only by SetColumn.
func TestBipartiteAllFiniteMemoized(t *testing.T) {
	b := NewTwin(2, 2)
	b.SetColumn(0, []float64{1, 0})
	if !b.AllFinite() {
		t.Fatal("finite coupler reported non-finite")
	}
	b.q[1] = math.NaN() // behind the cache's back
	if !b.AllFinite() {
		t.Fatal("scan re-ran without invalidation")
	}
	b.SetColumn(0, []float64{2, 0}) // invalidates; NaN still present
	if b.AllFinite() {
		t.Fatal("SetColumn did not invalidate the finiteness cache")
	}
	b.SetColumn(1, []float64{0, 1}) // overwrites the NaN
	if !b.AllFinite() {
		t.Fatal("SetColumn did not invalidate the finiteness cache")
	}
}

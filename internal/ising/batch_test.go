package ising

import (
	"math"
	"math/rand"
	"testing"
)

// randomDense builds a dense coupling with Gaussian entries.
func randomDenseCoupler(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	return d
}

// randomTwinCoupler builds a c×r twin coupling with Gaussian entries.
func randomTwinCoupler(c, r int, seed int64) *Twin {
	rng := rand.New(rand.NewSource(seed))
	t := NewTwin(c, r)
	col := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := range col {
			col[j] = rng.NormFloat64()
		}
		t.SetColumn(i, col)
	}
	return t
}

// randomBlock fills an n×r column-major replica block. A fraction of the
// entries is forced to exactly zero to exercise the twin kernels'
// x_u == 0 handling (the two-pass kernel skips those rows, the finite
// kernels do not) — the bit-identity argument in the Field comment is
// load-bearing there.
func randomBlock(n, r int, seed int64, zeroFrac float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n*r)
	for i := range x {
		if rng.Float64() < zeroFrac {
			continue // leave exactly 0
		}
		x[i] = rng.NormFloat64()
	}
	return x
}

// assertBatchMatchesField checks every lane of FieldBatch against a
// per-lane Field call, bitwise.
func assertBatchMatchesField(t *testing.T, c Coupler, n, r int, seed int64) {
	t.Helper()
	x := randomBlock(n, r, seed, 0.2)
	batched := make([]float64, n*r)
	FieldBatch(c, x, batched, r)
	ref := make([]float64, n)
	for k := 0; k < r; k++ {
		c.Field(x[k*n:(k+1)*n], ref)
		for i := 0; i < n; i++ {
			got, want := batched[k*n+i], ref[i]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d r=%d lane %d spin %d: FieldBatch %v (bits %x) != Field %v (bits %x)",
					n, r, k, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestFieldBatchMatchesFieldDense is the dense differential test: random
// sizes including r=1 and replica counts that are not multiples of the
// 4-lane register tile.
func TestFieldBatchMatchesFieldDense(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64} {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16} {
			assertBatchMatchesField(t, randomDenseCoupler(n, int64(n)), n, r, int64(100*n+r))
		}
	}
}

// TestFieldBatchMatchesFieldBipartite covers the twin kernel, including
// skewed group sizes, the single-row/single-pair edges and a shape with
// a full 32-row panel plus a remainder.
func TestFieldBatchMatchesFieldBipartite(t *testing.T) {
	cases := []struct{ c, r int }{
		{1, 1}, {1, 5}, {5, 1}, {3, 8}, {8, 3}, {16, 16}, {6, 30}, {35, 17},
	}
	for _, c := range cases {
		for _, r := range []int{1, 3, 4, 5, 8, 9} {
			b := randomTwinCoupler(c.c, c.r, int64(c.c*31+c.r))
			assertBatchMatchesField(t, b, b.N(), r, int64(7*c.c+r))
		}
	}
}

// TestFieldBatchBipartiteMatchesDense cross-checks the twin batched
// kernel against the dense batched kernel on the materialized matrix
// (tolerance-based: the two accumulate in different orders).
func TestFieldBatchBipartiteMatchesDense(t *testing.T) {
	b := randomTwinCoupler(9, 7, 5)
	d := b.ToDense()
	n, r := b.N(), 6
	x := randomBlock(n, r, 77, 0.1)
	ob := make([]float64, n*r)
	od := make([]float64, n*r)
	FieldBatch(b, x, ob, r)
	FieldBatch(d, x, od, r)
	for i := range ob {
		if math.Abs(ob[i]-od[i]) > 1e-9 {
			t.Fatalf("entry %d: bipartite %g vs dense %g", i, ob[i], od[i])
		}
	}
}

// plainCoupler wraps a Coupler while hiding any BatchCoupler
// implementation, forcing the package-level FieldBatch fallback.
type plainCoupler struct {
	c Coupler
}

func (p plainCoupler) N() int                 { return p.c.N() }
func (p plainCoupler) Field(x, out []float64) { p.c.Field(x, out) }
func (p plainCoupler) At(i, j int) float64    { return p.c.At(i, j) }
func (p plainCoupler) FrobeniusNorm() float64 { return p.c.FrobeniusNorm() }

// fieldCounter wraps a BatchCoupler and counts the Field and FieldBatch
// calls that reach it.
type fieldCounter struct {
	BatchCoupler
	field, batch int
}

func (c *fieldCounter) Field(x, out []float64) {
	c.field++
	c.BatchCoupler.Field(x, out)
}

func (c *fieldCounter) FieldBatch(x, out []float64, r int) {
	c.batch++
	c.BatchCoupler.FieldBatch(x, out, r)
}

// TestFieldBatchFallback: FieldBatch runs per-lane Field calls,
// bit-identically, for a third-party Coupler without a batched kernel —
// and for every built-in coupler at r = 1, where a single lane is
// exactly one Field call and the batched kernel is not entered; at r = 2
// the batched kernel runs once.
func TestFieldBatchFallback(t *testing.T) {
	d := randomDenseCoupler(12, 9)
	assertBatchMatchesField(t, plainCoupler{d}, 12, 5, 21)

	for name, c := range map[string]BatchCoupler{
		"dense":  randomDenseCoupler(12, 9),
		"sparse": NewSparseFromDense(randomDenseCoupler(12, 10)),
		"twin":   randomTwinCoupler(5, 4, 11),
	} {
		fc := &fieldCounter{BatchCoupler: c}
		n := c.N()
		x := randomBlock(n, 2, 31, 0.2)
		got, want := make([]float64, 2*n), make([]float64, n)
		FieldBatch(fc, x[:n], got[:n], 1)
		if fc.field != 1 || fc.batch != 0 {
			t.Fatalf("%s r=1: %d Field and %d FieldBatch calls, want exactly one Field", name, fc.field, fc.batch)
		}
		c.Field(x[:n], want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s r=1 spin %d: FieldBatch %v != Field %v", name, i, got[i], want[i])
			}
		}
		FieldBatch(fc, x, got, 2)
		if fc.field != 1 || fc.batch != 1 {
			t.Fatalf("%s r=2: %d Field and %d FieldBatch calls, want the batched kernel once", name, fc.field, fc.batch)
		}
	}
}

// TestFieldBatchZeroReplicas: r=0 is a no-op, not a panic.
func TestFieldBatchZeroReplicas(t *testing.T) {
	d := randomDenseCoupler(4, 1)
	FieldBatch(d, nil, nil, 0)
}

// TestFieldBatchShortBlockPanics pins the layout validation.
func TestFieldBatchShortBlockPanics(t *testing.T) {
	d := randomDenseCoupler(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("short replica block accepted")
		}
	}()
	FieldBatch(d, make([]float64, 7), make([]float64, 8), 2)
}

// TestFieldBatchNoAllocs pins the kernel allocation contract for both
// built-in couplers and the generic fallback.
func TestFieldBatchNoAllocs(t *testing.T) {
	n, r := 24, 6
	couplers := map[string]Coupler{
		"dense":    randomDenseCoupler(n, 3),
		"twin":     randomTwinCoupler(n/2, n/4, 4),
		"fallback": plainCoupler{randomDenseCoupler(n, 5)},
	}
	x := randomBlock(n, r, 6, 0)
	out := make([]float64, n*r)
	for name, c := range couplers {
		allocs := testing.AllocsPerRun(20, func() {
			FieldBatch(c, x, out, r)
		})
		if allocs != 0 {
			t.Errorf("%s: FieldBatch allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestFrobeniusNormMemoized proves the norm scan is cached: mutating the
// backing slice directly (bypassing Set) must NOT change the reported
// norm until a Set invalidates the cache. This is a white-box stand-in
// for counting scans.
func TestFrobeniusNormMemoized(t *testing.T) {
	d := randomDenseCoupler(8, 11)
	first := d.FrobeniusNorm()
	d.j[1] = d.j[1] + 100 // behind the cache's back
	if got := d.FrobeniusNorm(); got != first {
		t.Fatalf("norm rescanned without invalidation: %g != cached %g", got, first)
	}
	d.j[1] -= 100
	d.Set(0, 1, 5)
	if got := d.FrobeniusNorm(); got == first {
		t.Fatal("Set did not invalidate the cached norm")
	}

	b := randomTwinCoupler(4, 3, 12)
	bfirst := b.FrobeniusNorm()
	b.q[0] += 50
	if got := b.FrobeniusNorm(); got != bfirst {
		t.Fatalf("twin norm rescanned without invalidation: %g != cached %g", got, bfirst)
	}
	b.q[0] -= 50
	b.SetColumn(0, []float64{3, 0, 0, 0})
	if got := b.FrobeniusNorm(); got == bfirst {
		t.Fatal("SetColumn did not invalidate the cached norm")
	}
}

// TestFrobeniusNormFreshAndInvalidated checks the cached values agree
// with a direct recomputation through every mutation path.
func TestFrobeniusNormFreshAndInvalidated(t *testing.T) {
	d := NewDense(3)
	if got := d.FrobeniusNorm(); got != 0 {
		t.Fatalf("all-zero norm %g, want 0", got)
	}
	d.Set(0, 1, 3)
	d.Add(1, 2, 4)
	want := math.Sqrt(2 * (9.0 + 16.0)) // each pair appears twice
	if got := d.FrobeniusNorm(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("norm %g, want %g", got, want)
	}
	// Cached read returns the same value.
	if got := d.FrobeniusNorm(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cached norm %g, want %g", got, want)
	}
}

package ising

import (
	"fmt"
	"math"
	"sync/atomic"
)

// normCache memoizes a coupler's Frobenius norm. SB resolves the
// coupling strength c0 from the norm, and a replica batch used to rescan
// the full coupling structure once per replica; the cache makes the scan
// once-per-mutation instead. The cached value is stored as its IEEE bit
// pattern in an atomic so concurrent readers (batch workers sharing one
// read-only coupler) never race: a norm is sqrt of a sum of squares and
// therefore never NaN, so a NaN bit pattern doubles as the "invalidated"
// sentinel. The zero value caches norm 0, which is exactly right for a
// freshly allocated all-zero coupling.
type normCache struct {
	bits atomic.Uint64
}

// invalidNorm is a quiet-NaN bit pattern; FrobeniusNorm never produces a
// NaN, so the sentinel is unambiguous.
const invalidNorm = ^uint64(0)

func (c *normCache) invalidate() { c.bits.Store(invalidNorm) }

// norm returns the cached value, computing and caching via f on a miss.
// Concurrent misses recompute the same deterministic value; last store
// wins with identical bits.
func (c *normCache) norm(f func() float64) float64 {
	if b := c.bits.Load(); b != invalidNorm {
		return math.Float64frombits(b)
	}
	v := f()
	c.bits.Store(math.Float64bits(v))
	return v
}

// finiteCache memoizes an AllFinite scan the same way normCache memoizes
// the norm: 0 = unknown, 1 = all finite, -1 = non-finite seen.
// Invalidated by mutation; concurrent misses recompute the same value.
type finiteCache struct {
	state atomic.Int32
}

func (c *finiteCache) invalidate() { c.state.Store(0) }

func (c *finiteCache) allFinite(scan func() bool) bool {
	switch c.state.Load() {
	case 1:
		return true
	case -1:
		return false
	}
	ok := scan()
	if ok {
		c.state.Store(1)
	} else {
		c.state.Store(-1)
	}
	return ok
}

// Dense is a dense symmetric coupling matrix with zero diagonal, stored
// row-major in a flat slice.
type Dense struct {
	n    int
	j    []float64
	frob normCache
}

// NewDense allocates an n-spin all-zero coupling matrix.
func NewDense(n int) *Dense {
	if n <= 0 {
		panic(fmt.Sprintf("ising: invalid spin count %d", n))
	}
	return &Dense{n: n, j: make([]float64, n*n)}
}

// N implements Coupler.
func (d *Dense) N() int { return d.n }

// Set assigns J_ij = J_ji = v. Setting the diagonal is rejected.
func (d *Dense) Set(i, j int, v float64) {
	if i == j {
		panic("ising: diagonal coupling J_ii must stay zero")
	}
	d.j[i*d.n+j] = v
	d.j[j*d.n+i] = v
	d.frob.invalidate()
}

// Add accumulates v onto J_ij (and J_ji).
func (d *Dense) Add(i, j int, v float64) {
	if i == j {
		panic("ising: diagonal coupling J_ii must stay zero")
	}
	d.j[i*d.n+j] += v
	d.j[j*d.n+i] += v
	d.frob.invalidate()
}

// At implements Coupler.
func (d *Dense) At(i, j int) float64 { return d.j[i*d.n+j] }

// AllFinite reports whether every coupling is finite (no NaN or ±Inf).
// One non-finite entry poisons the whole oscillator state within a
// single field product, so callers validate up front instead of letting
// the dynamics diverge.
func (d *Dense) AllFinite() bool {
	for _, v := range d.j {
		if v-v != 0 { // NaN or ±Inf: v-v is NaN, not 0
			return false
		}
	}
	return true
}

// NNZ returns the number of nonzero couplings (counting both triangle
// halves, like Sparse.NNZ).
func (d *Dense) NNZ() int {
	nnz := 0
	for _, v := range d.j {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// Density returns NNZ / n² — the quantity the CompactCoupler auto-pick
// thresholds on.
func (d *Dense) Density() float64 {
	return float64(d.NNZ()) / (float64(d.n) * float64(d.n))
}

// Field implements Coupler: out = J*x.
func (d *Dense) Field(x, out []float64) {
	n := d.n
	for i := 0; i < n; i++ {
		row := d.j[i*n : i*n+n]
		sum := 0.0
		for k, v := range row {
			sum += v * x[k]
		}
		out[i] = sum
	}
}

// FrobeniusNorm implements Coupler. The O(n²) scan runs once per
// mutation epoch: the result is memoized and invalidated by Set/Add.
func (d *Dense) FrobeniusNorm() float64 {
	return d.frob.norm(func() float64 {
		sum := 0.0
		for _, v := range d.j {
			sum += v * v
		}
		return math.Sqrt(sum)
	})
}

// FieldBatch implements BatchCoupler: out's lane k receives J*x_k for
// each of the r column-major replica lanes.
//
// The loop nest streams each J row exactly once per call: the row is the
// innermost reused operand (lanes are register-tiled four at a time, so
// a row loaded for the first tile is served from L1 for the rest), while
// the replica block — n×r floats, L2-resident at the sizes SB batches
// use — is the operand that gets re-read per row. Beyond the memory
// shape, the four accumulator chains per row break the serial FP-add
// dependence that limits the scalar Field kernel. Exploiting symmetry
// (halving the J traffic by updating out[j] while scanning row i) was
// measured and rejected: the scattered lane-strided writes it needs cost
// more than the halved streaming saves, and it would change the per-lane
// accumulation order that the bit-identity contract pins.
func (d *Dense) FieldBatch(x, out []float64, r int) {
	n := d.n
	checkBatchDims(n, len(x), len(out), r)
	for i := 0; i < n; i++ {
		row := d.j[i*n : i*n+n]
		k := 0
		for ; k+4 <= r; k += 4 {
			// Four lanes per row visit: four independent accumulator
			// chains hide the FP-add latency that serializes the scalar
			// kernel, and the row is loaded once for all of them (an
			// 8-lane tile was measured slower: the extra streams spill
			// registers). The [:len(row)] re-slices let the compiler prove
			// every lane access in-bounds from the range variable alone;
			// without the hint each lane pays a bounds check per element.
			x0 := x[k*n : k*n+n][:len(row)]
			x1 := x[k*n+n : k*n+2*n][:len(row)]
			x2 := x[k*n+2*n : k*n+3*n][:len(row)]
			x3 := x[k*n+3*n : k*n+4*n][:len(row)]
			var s0, s1, s2, s3 float64
			for j, v := range row {
				s0 += v * x0[j]
				s1 += v * x1[j]
				s2 += v * x2[j]
				s3 += v * x3[j]
			}
			out[k*n+i] = s0
			out[k*n+n+i] = s1
			out[k*n+2*n+i] = s2
			out[k*n+3*n+i] = s3
		}
		for ; k < r; k++ {
			xk := x[k*n : k*n+n][:len(row)]
			var s float64
			for j, v := range row {
				s += v * xk[j]
			}
			out[k*n+i] = s
		}
	}
}

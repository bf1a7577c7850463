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

// Bipartite is a coupling in which spins split into two groups U (size
// nu) and W (size nw) and only U-W couplings are nonzero, stored as an
// nu x nw block. Spin indices are U first (0..nu-1) then W (nu..nu+nw-1).
//
// The column-based core COP has exactly this structure: the c column-type
// spins T couple to the 2r pattern spins V1, V2 and to nothing else, so a
// Field product costs O(nu*nw) instead of O((nu+nw)^2).
type Bipartite struct {
	nu, nw int
	b      []float64 // b[u*nw+w] = J between spin u and spin nu+w
	frob   normCache
	fin    finiteCache
}

// NewBipartite allocates an all-zero bipartite coupling with group sizes
// nu and nw.
func NewBipartite(nu, nw int) *Bipartite {
	if nu <= 0 || nw <= 0 {
		panic(fmt.Sprintf("ising: invalid bipartite sizes %d, %d", nu, nw))
	}
	return &Bipartite{nu: nu, nw: nw, b: make([]float64, nu*nw)}
}

// N implements Coupler.
func (b *Bipartite) N() int { return b.nu + b.nw }

// SetCross assigns the coupling between spin u (in U) and spin nu+w.
func (b *Bipartite) SetCross(u, w int, v float64) {
	b.b[u*b.nw+w] = v
	b.frob.invalidate()
	b.fin.invalidate()
}

// AddCross accumulates onto the coupling between spin u and spin nu+w.
func (b *Bipartite) AddCross(u, w int, v float64) {
	b.b[u*b.nw+w] += v
	b.frob.invalidate()
	b.fin.invalidate()
}

// AllFinite reports whether every cross coupling is finite. The scan is
// memoized (invalidated by SetCross/AddCross) because FieldBatch consults
// it on every call to pick its kernel.
func (b *Bipartite) AllFinite() bool {
	return b.fin.allFinite(func() bool {
		for _, v := range b.b {
			if v-v != 0 {
				return false
			}
		}
		return true
	})
}

// At implements Coupler.
func (b *Bipartite) At(i, j int) float64 {
	iu, ju := i < b.nu, j < b.nu
	switch {
	case iu && !ju:
		return b.b[i*b.nw+(j-b.nu)]
	case !iu && ju:
		return b.b[j*b.nw+(i-b.nu)]
	default:
		return 0
	}
}

// Field implements Coupler: out = J*x exploiting the bipartite block, in
// one pass over row tiles of the nu×nw block. Per tile, independent
// U-side dot-product chains share each x_W load, and each out_W[w] is
// loaded and stored once, with the tile's rank-1 terms added in
// ascending-u order. Several multiply-add chains in flight hide the
// FP-add latency that serializes a one-chain-per-row kernel. On amd64
// CPUs with AVX2 (probed once at init) the bulk of the block runs as
// 8-row × 4-column assembly tiles (fieldAVX2); elsewhere it runs as
// 4-row Go tiles (fieldGo).
//
// The result is bit-identical to the two-pass kernel (fieldTwoPass):
// every output keeps its exact accumulation order — out_U[u] adds its
// row in ascending w from +0, out_W[w] adds its column in ascending u
// from +0 — and the only difference, not skipping rows with x_u == 0,
// adds ±0 products that cannot change any partial sum, because a sum
// that starts at +0 can never become -0. That argument needs finite
// couplings (0·Inf = NaN), so a non-finite block keeps the two-pass
// kernel; the memoized AllFinite makes the check one atomic load.
func (b *Bipartite) Field(x, out []float64) {
	switch {
	case !b.AllFinite():
		b.fieldTwoPass(x, out)
	case hasAVX2:
		b.fieldAVX2(x, out)
	default:
		b.fieldGo(x, out)
	}
}

// fieldGo is Field's finite-block kernel in Go: 4-row tiles, then one
// row at a time.
func (b *Bipartite) fieldGo(x, out []float64) {
	clear(out[b.nu : b.nu+b.nw])
	b.fieldGoRows(x, out, 0)
}

// fieldAVX2 is Field's finite-block kernel for AVX2 CPUs: the assembly
// tile covers 8 rows by the largest multiple of 4 columns, Go code adds
// the tile's last nw mod 4 columns, and rows past the last full 8-row
// tile go through the Go tiles. Callers must check hasAVX2.
func (b *Bipartite) fieldAVX2(x, out []float64) {
	nu, nw := b.nu, b.nw
	xu, xw := x[:nu], x[nu:nu+nw]
	ow := out[nu : nu+nw]
	clear(ow)
	var s [8]float64
	u := 0
	for ; u+8 <= nu; u += 8 {
		rows := b.b[u*nw : (u+8)*nw]
		xt := (*[8]float64)(xu[u : u+8])
		bipartiteTile8AVX2(rows, xw, ow, xt, &s)
		for w := nw &^ 3; w < nw; w++ {
			xv, o := xw[w], ow[w]
			for k, xk := range xt {
				v := rows[k*nw+w]
				s[k] += v * xv
				o += v * xk
			}
			ow[w] = o
		}
		copy(out[u:u+8], s[:])
	}
	b.fieldGoRows(x, out, u)
}

// fieldGoRows runs the Go tiles over rows u0..nu-1. out_W must already
// hold the sums of rows 0..u0-1 (all zero when u0 is 0).
func (b *Bipartite) fieldGoRows(x, out []float64, u0 int) {
	nu, nw := b.nu, b.nw
	xu, xw := x[:nu], x[nu:nu+nw]
	ow := out[nu : nu+nw]
	u := u0
	for ; u+4 <= nu; u += 4 {
		out[u], out[u+1], out[u+2], out[u+3] = bipartiteTile4(
			b.b[u*nw:u*nw+nw], b.b[u*nw+nw:u*nw+2*nw], b.b[u*nw+2*nw:u*nw+3*nw], b.b[u*nw+3*nw:u*nw+4*nw],
			xw, ow, xu[u], xu[u+1], xu[u+2], xu[u+3])
	}
	for ; u < nu; u++ {
		row := b.b[u*nw : u*nw+nw]
		xt, ot := xw[:len(row)], ow[:len(row)]
		xv := xu[u]
		var s float64
		for w, v := range row {
			s += v * xt[w]
			ot[w] += v * xv
		}
		out[u] = s
	}
}

// bipartiteTile4 runs one 4-row tile of Field: it returns the dot
// products of rows r0..r3 with xw and adds x0·r0 + x1·r1 + x2·r2 + x3·r3
// onto ow, in that order per element. It is a function of its own so the
// register allocator sees only the loop's operands: inlined into Field's
// row loop, the slice bases and two products spilled to the stack and
// the kernel ran about 1.5x slower (Go 1.24, amd64).
func bipartiteTile4(r0, r1, r2, r3, xw, ow []float64, x0, x1, x2, x3 float64) (s0, s1, s2, s3 float64) {
	// The [:len(r0)] re-slices are bounds-check-elimination hints: they
	// let the range variable prove every access in-bounds.
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	xw, ow = xw[:len(r0)], ow[:len(r0)]
	for w, v0 := range r0 {
		xv := xw[w]
		o := ow[w]
		s0 += v0 * xv
		o += v0 * x0
		v1 := r1[w]
		s1 += v1 * xv
		o += v1 * x1
		v2 := r2[w]
		s2 += v2 * xv
		o += v2 * x2
		v3 := r3[w]
		s3 += v3 * xv
		o += v3 * x3
		ow[w] = o
	}
	return s0, s1, s2, s3
}

// fieldTwoPass is the reference bipartite kernel: a dot product per U
// row, then a second pass of rank-1 updates onto the W side that skips
// rows with x_u == 0. Field uses it for non-finite blocks, where that
// skip decides the answer (it turns 0·Inf into "no contribution").
func (b *Bipartite) fieldTwoPass(x, out []float64) {
	nu, nw := b.nu, b.nw
	xu, xw := x[:nu], x[nu:]
	for u := 0; u < nu; u++ {
		row := b.b[u*nw : u*nw+nw]
		sum := 0.0
		for w, v := range row {
			sum += v * xw[w]
		}
		out[u] = sum
	}
	ow := out[nu:]
	for w := 0; w < nw; w++ {
		ow[w] = 0
	}
	for u := 0; u < nu; u++ {
		row := b.b[u*nw : u*nw+nw]
		xv := xu[u]
		if xv == 0 {
			continue
		}
		for w, v := range row {
			ow[w] += v * xv
		}
	}
}

// FrobeniusNorm implements Coupler. Each cross coupling appears twice in
// the full symmetric matrix (J_uw and J_wu). The scan is memoized and
// invalidated by SetCross/AddCross.
func (b *Bipartite) FrobeniusNorm() float64 {
	return b.frob.norm(func() float64 {
		sum := 0.0
		for _, v := range b.b {
			sum += 2 * v * v
		}
		return math.Sqrt(sum)
	})
}

// FieldBatch implements BatchCoupler with one Field call per replica
// lane, so every lane is bit-identical to Field by construction,
// non-finite blocks included. Streaming the block once for four lanes
// at a time measured 1.2–1.7x slower than these per-lane calls: its
// W-side rank-1 updates store each out_W entry once per row and lane,
// where the row-tiled Field stores it once per four rows.
func (b *Bipartite) FieldBatch(x, out []float64, r int) {
	n := b.N()
	checkBatchDims(n, len(x), len(out), r)
	for k := 0; k < r; k++ {
		b.Field(x[k*n:k*n+n], out[k*n:k*n+n])
	}
}

// ToDense materializes the bipartite coupling as a Dense matrix; used by
// tests to validate the specialized Field kernel and by ablation benches.
func (b *Bipartite) ToDense() *Dense {
	d := NewDense(b.N())
	for u := 0; u < b.nu; u++ {
		for w := 0; w < b.nw; w++ {
			if v := b.b[u*b.nw+w]; v != 0 {
				d.Set(u, b.nu+w, v)
			}
		}
	}
	return d
}

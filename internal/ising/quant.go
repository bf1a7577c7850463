package ising

import (
	"math"

	"isinglut/internal/fault"
)

// Failpoints in the quantized fast path. ising.quant.accum poisons the
// first integer-accumulated field value (the quantized analogue of
// ising.field — it must flow into the same divergence quarantine), and
// ising.quant.overflow forces the dynamic-range check to report overflow
// so the float64 fallback is testable at sizes where a real int32
// overflow is unreachable (it needs a row of ~16.9M full-scale int8
// entries).
var (
	siteQuantAccum    = fault.NewSite("ising.quant.accum")
	siteQuantOverflow = fault.NewSite("ising.quant.overflow")
)

// quantVal is the fixed-point storage width of a quantized coupling.
type quantVal interface {
	~int8 | ~int16
}

// Quantized is a coupling matrix quantized once per solve to symmetric
// fixed point for the discrete-SB field product J·sign(x): every entry
// becomes q = round(J/scale) with a single per-matrix scale, the
// accumulation is integer-exact (the spins are ±1, so every term and —
// by the per-row dynamic-range guard — every partial sum is an integer
// far below 2⁵³, making the float64-register accumulation bit-identical
// to int32 accumulation), and the field is rescaled by one multiply per
// output. The exact float J is still what evaluates energies at sample
// points.
//
// The width is picked per matrix: int8 (scale = maxAbs/127) when the
// coupling magnitudes are reasonably uniform, int16 (scale =
// maxAbs/32767) when the RMS magnitude is small against the maximum —
// the case where 8-bit rounding would wipe out the typical entry.
// Storage is dense row-major for dense couplings above the sparsity
// threshold and CSR otherwise, so a sparse instance keeps its nnz-bound
// cost in the quantized path too.
type Quantized struct {
	n     int
	scale float64

	// Exactly one of the four layouts is populated.
	d8  []int8  // dense row-major n×n
	d16 []int16 // dense row-major n×n

	rowPtr []int32 // CSR offsets (with s8 or s16)
	col    []int32
	s8     []int8
	s16    []int16

	// rowBuf is per-row dequantization scratch for the batch kernels:
	// each code row is widened to float64 once and reused across all r
	// lanes, so the code→float conversion amortizes over the whole batch
	// while the streamed matrix stays 1–2 bytes per entry. It makes a
	// Quantized NOT safe for concurrent use — like a Workspace, each
	// goroutine builds its own (the batch engines already do).
	rowBuf []float64
}

// N returns the spin count.
func (q *Quantized) N() int { return q.n }

// Scale returns the per-matrix quantization step.
func (q *Quantized) Scale() float64 { return q.scale }

// Bits returns the storage width (8 or 16).
func (q *Quantized) Bits() int {
	if q.d16 != nil || q.s16 != nil {
		return 16
	}
	return 8
}

// quantStats scans coupling values and returns (maxAbs, rms, ok) over the
// nonzero entries; ok is false when any value is non-finite or all are
// zero.
func quantStats(vals []float64) (maxAbs, rms float64, ok bool) {
	var sumSq float64
	nnz := 0
	for _, v := range vals {
		if v-v != 0 {
			return 0, 0, false
		}
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
		sumSq += v * v
		nnz++
	}
	if nnz == 0 || maxAbs == 0 {
		return 0, 0, false
	}
	return maxAbs, math.Sqrt(sumSq / float64(nnz)), true
}

// int16Threshold decides the storage width: when the RMS coupling is
// below 8 int8 steps, 8-bit rounding loses most of the typical entry's
// information, so the matrix is stored at 16 bits instead.
func useInt16(maxAbs, rms float64) bool {
	return rms < 8*(maxAbs/127)
}

// Quantize builds the fixed-point form of a coupling, or reports ok=false
// when the coupling is not quantizable — non-finite or all-zero entries,
// a dynamic range that could overflow the int32 accumulator, an
// unsupported coupler kind (anything but *Dense and *Sparse falls back to
// the float engine), or a forced ising.quant.overflow failpoint. Callers
// must treat ok=false as "run the float64 path", never as an error.
func Quantize(c Coupler) (*Quantized, bool) {
	if siteQuantOverflow.Fire() {
		return nil, false
	}
	switch src := c.(type) {
	case *Dense:
		maxAbs, rms, ok := quantStats(src.j)
		if !ok {
			return nil, false
		}
		if src.Density() > DefaultSparseDensity {
			if useInt16(maxAbs, rms) {
				return quantizeDense[int16](src, maxAbs/32767)
			}
			return quantizeDense[int8](src, maxAbs/127)
		}
		return quantizeSparse(NewSparseFromDense(src), maxAbs, rms)
	case *Sparse:
		maxAbs, rms, ok := quantStats(src.val)
		if !ok {
			return nil, false
		}
		return quantizeSparse(src, maxAbs, rms)
	default:
		return nil, false
	}
}

func quantizeSparse(src *Sparse, maxAbs, rms float64) (*Quantized, bool) {
	if useInt16(maxAbs, rms) {
		return quantizeCSR[int16](src, maxAbs/32767)
	}
	return quantizeCSR[int8](src, maxAbs/127)
}

// quantizeDense fills the dense layout; rowOverflows guards the int32
// accumulator against the worst case |Σ q·σ| = Σ|q| per row.
func quantizeDense[T quantVal](src *Dense, scale float64) (*Quantized, bool) {
	n := src.n
	q := make([]T, n*n)
	for i := 0; i < n; i++ {
		var rowAbs int64
		row := src.j[i*n : i*n+n]
		for j, v := range row {
			iv := int64(math.Round(v / scale))
			q[i*n+j] = T(iv)
			if iv < 0 {
				iv = -iv
			}
			rowAbs += iv
		}
		if rowAbs > math.MaxInt32 {
			return nil, false
		}
	}
	out := &Quantized{n: n, scale: scale, rowBuf: make([]float64, n)}
	switch qq := any(q).(type) {
	case []int8:
		out.d8 = qq
	case []int16:
		out.d16 = qq
	}
	return out, true
}

// quantizeCSR fills the CSR layout, dropping entries that round to zero
// (they contribute nothing to any quantized sum).
func quantizeCSR[T quantVal](src *Sparse, scale float64) (*Quantized, bool) {
	n := src.n
	rowPtr := make([]int32, n+1)
	col := make([]int32, 0, len(src.col))
	q := make([]T, 0, len(src.col))
	for i := 0; i < n; i++ {
		var rowAbs int64
		for e := src.rowPtr[i]; e < src.rowPtr[i+1]; e++ {
			iv := int64(math.Round(src.val[e] / scale))
			if iv == 0 {
				continue
			}
			col = append(col, src.col[e])
			q = append(q, T(iv))
			if iv < 0 {
				iv = -iv
			}
			rowAbs += iv
		}
		if rowAbs > math.MaxInt32 {
			return nil, false
		}
		rowPtr[i+1] = int32(len(col))
	}
	maxRow := 0
	for i := 0; i < n; i++ {
		if w := int(rowPtr[i+1] - rowPtr[i]); w > maxRow {
			maxRow = w
		}
	}
	out := &Quantized{n: n, scale: scale, rowPtr: rowPtr, col: col, rowBuf: make([]float64, maxRow)}
	switch qq := any(q).(type) {
	case []int8:
		out.s8 = qq
	case []int16:
		out.s16 = qq
	}
	return out, true
}

// FieldSigns computes out = scale·(Q·σ) for one replica. sigma holds the
// materialized spin signs as float64 ±1 — exactly the sign buffer the dSB
// engines already maintain (v >= 0 → +1, else -1) — so the kernel is a
// plain multiply-accumulate over 1-byte codes. Every product q·σ is an
// exact small integer and the row-abs guard bounds every partial sum far
// below 2⁵³, so the float64 accumulation is bit-identical to integer
// accumulation while the accumulators stay in XMM registers (a pure-int32
// scalar MAC spills Go's scarce general registers and runs ~2x slower).
func (q *Quantized) FieldSigns(sigma, out []float64) {
	n := q.n
	if len(sigma) < n || len(out) < n {
		panic("ising: FieldSigns buffer shorter than n")
	}
	switch {
	case q.d8 != nil:
		quantFieldDense(n, q.d8, sigma, out, q.scale)
	case q.d16 != nil:
		quantFieldDense(n, q.d16, sigma, out, q.scale)
	case q.s8 != nil:
		quantFieldCSR(n, q.rowPtr, q.col, q.s8, sigma, out, q.scale)
	default:
		quantFieldCSR(n, q.rowPtr, q.col, q.s16, sigma, out, q.scale)
	}
	if siteQuantAccum.Fire() {
		out[0] = math.NaN()
	}
}

// FieldSignsBatch is FieldSigns over r column-major replica lanes (the
// SB lane-engine layout): sigma and out are n×r blocks like FieldBatch's.
// The accumulation is exact, hence order-independent, so each lane is
// exactly FieldSigns of that lane; a single lane is one FieldSigns call.
func (q *Quantized) FieldSignsBatch(sigma, out []float64, r int) {
	n := q.n
	checkBatchDims(n, len(sigma), len(out), r)
	if r == 1 {
		q.FieldSigns(sigma, out)
		return
	}
	switch {
	case q.d8 != nil:
		quantFieldDenseBatch(n, q.d8, q.rowBuf, sigma, out, q.scale, r)
	case q.d16 != nil:
		quantFieldDenseBatch(n, q.d16, q.rowBuf, sigma, out, q.scale, r)
	case q.s8 != nil:
		quantFieldCSRBatch(n, q.rowPtr, q.col, q.s8, q.rowBuf, sigma, out, q.scale, r)
	default:
		quantFieldCSRBatch(n, q.rowPtr, q.col, q.s16, q.rowBuf, sigma, out, q.scale, r)
	}
	if siteQuantAccum.Fire() {
		out[0] = math.NaN()
	}
}

func quantFieldDense[T quantVal](n int, q []T, sigma, out []float64, scale float64) {
	for i := 0; i < n; i++ {
		row := q[i*n : i*n+n]
		sg := sigma[:len(row)]
		var acc float64
		for j, v := range row {
			acc += float64(v) * sg[j]
		}
		out[i] = scale * acc
	}
}

// quantFieldDenseBatch widens each code row to float64 once (into the
// L1-resident fbuf) and streams it across four replica lanes at a time —
// the same register-tiling shape as the float FieldBatch kernels, with
// the code→float conversion amortized over all r lanes and the matrix
// traffic at 1–2 bytes per entry instead of 8.
func quantFieldDenseBatch[T quantVal](n int, q []T, fbuf, sigma, out []float64, scale float64, r int) {
	for i := 0; i < n; i++ {
		row := q[i*n : i*n+n]
		fb := fbuf[:len(row)]
		for j, v := range row {
			fb[j] = float64(v)
		}
		k := 0
		for ; k+4 <= r; k += 4 {
			g0 := sigma[k*n : k*n+n][:len(fb)]
			g1 := sigma[k*n+n : k*n+2*n][:len(fb)]
			g2 := sigma[k*n+2*n : k*n+3*n][:len(fb)]
			g3 := sigma[k*n+3*n : k*n+4*n][:len(fb)]
			var a0, a1, a2, a3 float64
			for j, w := range fb {
				a0 += w * g0[j]
				a1 += w * g1[j]
				a2 += w * g2[j]
				a3 += w * g3[j]
			}
			out[k*n+i] = scale * a0
			out[k*n+n+i] = scale * a1
			out[k*n+2*n+i] = scale * a2
			out[k*n+3*n+i] = scale * a3
		}
		for ; k < r; k++ {
			gk := sigma[k*n : k*n+n][:len(fb)]
			var acc float64
			for j, w := range fb {
				acc += w * gk[j]
			}
			out[k*n+i] = scale * acc
		}
	}
}

func quantFieldCSR[T quantVal](n int, rowPtr, col []int32, q []T, sigma, out []float64, scale float64) {
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := col[lo:hi]
		vals := q[lo:hi][:len(cols)]
		var acc float64
		for e, c := range cols {
			acc += float64(vals[e]) * sigma[c]
		}
		out[i] = scale * acc
	}
}

func quantFieldCSRBatch[T quantVal](n int, rowPtr, col []int32, q []T, fbuf, sigma, out []float64, scale float64, r int) {
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := col[lo:hi]
		vals := q[lo:hi][:len(cols)]
		fb := fbuf[:len(cols)]
		for e, v := range vals {
			fb[e] = float64(v)
		}
		k := 0
		for ; k+4 <= r; k += 4 {
			g0 := sigma[k*n : k*n+n]
			g1 := sigma[k*n+n : k*n+2*n]
			g2 := sigma[k*n+2*n : k*n+3*n]
			g3 := sigma[k*n+3*n : k*n+4*n]
			var a0, a1, a2, a3 float64
			for e, c := range cols {
				w := fb[e]
				a0 += w * g0[c]
				a1 += w * g1[c]
				a2 += w * g2[c]
				a3 += w * g3[c]
			}
			out[k*n+i] = scale * a0
			out[k*n+n+i] = scale * a1
			out[k*n+2*n+i] = scale * a2
			out[k*n+3*n+i] = scale * a3
		}
		for ; k < r; k++ {
			gk := sigma[k*n : k*n+n]
			var acc float64
			for e, c := range cols {
				acc += fb[e] * gk[c]
			}
			out[k*n+i] = scale * acc
		}
	}
}

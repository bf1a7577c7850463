package ising

import (
	"fmt"
	"math"
)

// Twin is the coupling of the column-based core COP: c U-side spins
// (indices 0..c-1) against r pairs of W-side spins, where W1_i (index
// c+i) couples to U_j through +Q_ji and W2_i (index c+r+i) through
// -Q_ji, for one c×r block Q. No other couplings exist, so a Field
// product costs O(c·r) instead of O((c+2r)²), and the coupler stores Q
// rather than the c×2r block [Q | -Q].
//
// Q is kept in two layouts, one per side of the product:
//
//   - row-major (q[j*r+i] = Q_ji), for the W-side rank-1 sums and the
//     Go kernels;
//   - column-major panels of 32 U rows (panels[p*r + i*32 + k] =
//     Q_{p+k,i} for the panel starting at row p), for the U-side dot
//     products of the AVX2 and AVX-512 kernels.
//
// With these layouts both sides run as vertical multiply-then-add
// chains, one output per vector lane, with no transposes.
type Twin struct {
	c, r   int
	q      []float64
	panels []float64 // the first c &^ 31 rows of Q
	frob   normCache
	fin    finiteCache
}

// twinPanel is the U-row count of one column-major panel.
const twinPanel = 32

// NewTwin allocates an all-zero twin coupling of c U-side spins against
// r W-side pairs.
func NewTwin(c, r int) *Twin {
	if c <= 0 || r <= 0 {
		panic(fmt.Sprintf("ising: invalid twin sizes %d, %d", c, r))
	}
	return &Twin{c: c, r: r, q: make([]float64, c*r), panels: make([]float64, c&^(twinPanel-1)*r)}
}

// N implements Coupler.
func (t *Twin) N() int { return t.c + 2*t.r }

// Shape returns the twin's sizes: c U-side spins against r W-side pairs.
func (t *Twin) Shape() (c, r int) { return t.c, t.r }

// SetColumn assigns column i of Q: Q_ji = 0 + col[j] for every U spin j,
// so a -0 entry is stored as +0. len(col) must be c.
func (t *Twin) SetColumn(i int, col []float64) {
	if len(col) != t.c {
		panic(fmt.Sprintf("ising: SetColumn(%d) with %d entries on a %d×%d twin", i, len(col), t.c, t.r))
	}
	t.SetColumns(i, col)
}

// SetColumns assigns columns i, i+1, ... of Q from cols, which holds them
// one after another (column i+u is cols[u·c : u·c+c]), as SetColumn does
// for each: Q_j,i+u = 0 + cols[u·c + j]. len(cols) must be a multiple of
// c. A block of w columns stores w adjacent entries of each row-major row
// per visit, where SetColumn stores one at an r-entry stride.
func (t *Twin) SetColumns(i int, cols []float64) {
	c, r := t.c, t.r
	w := len(cols) / c
	if i < 0 || w*c != len(cols) || i+w > r {
		panic(fmt.Sprintf("ising: SetColumns(%d) with %d entries on a %d×%d twin", i, len(cols), c, r))
	}
	for j := 0; j < c; j++ {
		dst := t.q[j*r+i : j*r+i+w]
		for u := range dst {
			dst[u] = 0 + cols[u*c+j]
		}
	}
	for u := 0; u < w; u++ {
		col := cols[u*c : u*c+c]
		for p := 0; p+twinPanel <= c; p += twinPanel {
			dst := t.panels[p*r+(i+u)*twinPanel : p*r+(i+u+1)*twinPanel]
			for k, v := range col[p : p+twinPanel] {
				dst[k] = 0 + v
			}
		}
	}
	t.frob.invalidate()
	t.fin.invalidate()
}

// AllFinite reports whether every coupling is finite. The scan is
// memoized (invalidated by SetColumn) because Field consults it on every
// call to pick its kernel.
func (t *Twin) AllFinite() bool {
	return t.fin.allFinite(func() bool {
		for _, v := range t.q {
			if v-v != 0 {
				return false
			}
		}
		return true
	})
}

// At implements Coupler.
func (t *Twin) At(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if i >= t.c || j < t.c {
		return 0
	}
	if w := j - t.c; w < t.r {
		return t.q[i*t.r+w]
	}
	return 0 - t.q[i*t.r+j-t.c-t.r]
}

// Field implements Coupler: out = J*x. One CPUID probe at init picks
// the kernels: on amd64 CPUs with AVX-512 the AVX-512 assembly
// (fieldAVX512), on those with AVX2 the AVX2 assembly (fieldAVX2),
// elsewhere Go (fieldGo).
//
// The result is bit-identical to the two-pass kernel on the c×2r block
// [Q | 0−Q] (fieldTwoPass), which adds every output's terms in ascending
// order from +0:
//
//   - out_U[j] adds Q_ji·x_W1[i] over ascending i, then subtracts
//     Q_ji·x_W2[i] over ascending i. In IEEE arithmetic acc − q·x equals
//     acc + (−q)·x, and a ±0 product from a zero entry cannot change a
//     sum that starts at +0 (such a sum is never −0).
//   - out_W1[i] adds Q_ji·x_U[j] over ascending j. The two-pass kernel
//     skips rows with x_U[j] == 0; the ±0 products the kernels add there
//     change nothing, by the same argument.
//   - out_W2[i] is 0 − out_W1[i]. Rounding is symmetric in sign, so each
//     partial sum over −Q is the negated partial sum over Q, or +0 where
//     that one is +0; 0 − v maps +0 to +0 where −v would give −0.
//
// No FMA is used: every product is rounded before it is added, as in the
// two-pass kernel. The zero-product arguments need finite couplings
// (0·Inf = NaN), so a non-finite block keeps the two-pass kernel; the
// memoized AllFinite makes the check one atomic load.
func (t *Twin) Field(x, out []float64) {
	switch {
	case !t.AllFinite():
		t.fieldTwoPass(x, out)
	case hasAVX512:
		t.fieldAVX512(x, out)
	case hasAVX2:
		t.fieldAVX2(x, out)
	default:
		t.fieldGo(x, out)
	}
}

// FieldU writes the U-side outputs of Field, out_U = (J*x)[0:c], into
// out[0:c], bit-identically to Field; it reads only the W side of x.
// It costs about half a Field call. Like Field it keeps no scratch in
// the coupler, so replicas sharing one coupler may call it concurrently.
func (t *Twin) FieldU(x, out []float64) {
	switch {
	case !t.AllFinite():
		t.dotsTwoPass(x, out)
	case hasAVX512:
		t.fieldUAVX512(x, out)
	case hasAVX2:
		t.fieldUAVX2(x, out)
	default:
		t.fieldUGo(x, out)
	}
}

// HasAVX2 reports whether this CPU has AVX2: the result of the package's
// one CPUID probe, which package sb also reads to pick its step kernel
// (Twin.Field runs its AVX-512 kernels instead where the CPU has those
// too). Callers can read the choice, not change it.
func HasAVX2() bool { return hasAVX2 }

// fieldGo is Field's finite-block kernel in Go.
func (t *Twin) fieldGo(x, out []float64) {
	t.fieldUGo(x, out)
	t.fieldWCols(x, out, 0)
	t.negateW2(out, 0)
}

// fieldUGo is FieldU's finite-block kernel in Go.
func (t *Twin) fieldUGo(x, out []float64) { t.fieldURows(x, out, 0) }

// fieldAVX2 is Field's finite-block kernel for AVX2 CPUs. Callers must
// check hasAVX2.
func (t *Twin) fieldAVX2(x, out []float64) {
	t.fieldUAVX2(x, out)
	t.fieldWAVX2(x, out, 0)
}

// fieldAVX512 is Field's finite-block kernel for AVX-512 CPUs: 64 W
// columns per AVX-512 call, the rest as in fieldAVX2. Callers must
// check hasAVX512.
func (t *Twin) fieldAVX512(x, out []float64) {
	t.fieldUAVX512(x, out)
	c, r := t.c, t.r
	xu, o1, o2 := x[:c], out[c:c+r], out[c+r:c+2*r]
	i := 0
	for ; i+64 <= r; i += 64 {
		twinRank1x64AVX512(t.q[i:], r, xu, (*[64]float64)(o1[i:i+64]), (*[64]float64)(o2[i:i+64]))
	}
	t.fieldWAVX2(x, out, i)
}

// fieldWAVX2 writes out_W1 and out_W2 for columns i..r-1: 16 and then 4
// columns per AVX2 call, each storing its W2 twins, then Go for the
// last r mod 4 columns. Callers must check hasAVX2.
func (t *Twin) fieldWAVX2(x, out []float64, i int) {
	c, r := t.c, t.r
	xu, o1, o2 := x[:c], out[c:c+r], out[c+r:c+2*r]
	for ; i+16 <= r; i += 16 {
		twinRank1x16AVX2(t.q[i:], r, xu, (*[16]float64)(o1[i:i+16]), (*[16]float64)(o2[i:i+16]))
	}
	for ; i+4 <= r; i += 4 {
		twinRank1x4AVX2(t.q[i:], r, xu, (*[4]float64)(o1[i:i+4]), (*[4]float64)(o2[i:i+4]))
	}
	t.fieldWCols(x, out, i)
	t.negateW2(out, i)
}

// fieldUAVX2 is FieldU's finite-block kernel for AVX2 CPUs: the
// assembly kernel covers each full 32-row panel, Go code the last c mod
// 32 rows. Callers must check hasAVX2.
func (t *Twin) fieldUAVX2(x, out []float64) {
	c, r := t.c, t.r
	x1, x2 := x[c:c+r], x[c+r:c+2*r]
	j := 0
	for ; j+twinPanel <= c; j += twinPanel {
		twinPanelAVX2(t.panels[j*r:(j+twinPanel)*r], x1, x2, (*[twinPanel]float64)(out[j:j+twinPanel]))
	}
	t.fieldURows(x, out, j)
}

// fieldUAVX512 is fieldUAVX2 with the AVX-512 panel kernel. Callers
// must check hasAVX512.
func (t *Twin) fieldUAVX512(x, out []float64) {
	c, r := t.c, t.r
	x1, x2 := x[c:c+r], x[c+r:c+2*r]
	j := 0
	for ; j+twinPanel <= c; j += twinPanel {
		twinPanelAVX512(t.panels[j*r:(j+twinPanel)*r], x1, x2, (*[twinPanel]float64)(out[j:j+twinPanel]))
	}
	t.fieldURows(x, out, j)
}

// fieldURows writes out_U[j] for rows j0..c-1 from the row-major block:
// four rows at a time, then one.
func (t *Twin) fieldURows(x, out []float64, j0 int) {
	c, r := t.c, t.r
	x1, x2 := x[c:c+r], x[c+r:c+2*r]
	j := j0
	for ; j+4 <= c; j += 4 {
		out[j], out[j+1], out[j+2], out[j+3] = twinDots4(t.q[j*r:(j+4)*r], x1, x2)
	}
	for ; j < c; j++ {
		row := t.q[j*r : j*r+r]
		// Re-slicing to len(row) lets the range variable prove every
		// access in-bounds.
		y1, y2 := x1[:len(row)], x2[:len(row)]
		var s float64
		for i, v := range row {
			s += v * y1[i]
		}
		for i, v := range row {
			s -= v * y2[i]
		}
		out[j] = s
	}
}

// twinDots4 returns out_U of the four consecutive rows held in rows
// (4·len(x1) entries): four independent chains share each x load. It is
// a function of its own so the register allocator sees only the loop's
// operands.
func twinDots4(rows, x1, x2 []float64) (s0, s1, s2, s3 float64) {
	r := len(x1)
	q0 := rows[:r]
	q1, q2, q3 := rows[r : 2*r][:len(q0)], rows[2*r : 3*r][:len(q0)], rows[3*r : 4*r][:len(q0)]
	x1, x2 = x1[:len(q0)], x2[:len(q0)]
	for i, v0 := range q0 {
		xv := x1[i]
		s0 += v0 * xv
		s1 += q1[i] * xv
		s2 += q2[i] * xv
		s3 += q3[i] * xv
	}
	for i, v0 := range q0 {
		xv := x2[i]
		s0 -= v0 * xv
		s1 -= q1[i] * xv
		s2 -= q2[i] * xv
		s3 -= q3[i] * xv
	}
	return s0, s1, s2, s3
}

// fieldWCols writes out_W1[i] for columns i0..r-1: rank-1 updates from
// four rows at a time, each output loaded and stored once per four rows
// with their terms added in ascending row order, then one row at a time.
func (t *Twin) fieldWCols(x, out []float64, i0 int) {
	c, r := t.c, t.r
	if i0 >= r {
		return
	}
	xu, o := x[:c], out[c+i0:c+r]
	clear(o)
	j := 0
	for ; j+4 <= c; j += 4 {
		q0 := t.q[j*r+i0 : j*r+r]
		q1, q2, q3 := t.q[(j+1)*r+i0 : (j+1)*r+r][:len(q0)], t.q[(j+2)*r+i0 : (j+2)*r+r][:len(q0)], t.q[(j+3)*r+i0 : (j+3)*r+r][:len(q0)]
		x0, x1, x2, x3 := xu[j], xu[j+1], xu[j+2], xu[j+3]
		ot := o[:len(q0)]
		for i, v0 := range q0 {
			s := ot[i]
			s += v0 * x0
			s += q1[i] * x1
			s += q2[i] * x2
			s += q3[i] * x3
			ot[i] = s
		}
	}
	for ; j < c; j++ {
		row := t.q[j*r+i0 : j*r+r]
		xv, ot := xu[j], o[:len(row)]
		for i, v := range row {
			ot[i] += v * xv
		}
	}
}

// negateW2 sets out_W2 = 0 − out_W1 (see Field for why 0 − v) for
// columns i0..r-1.
func (t *Twin) negateW2(out []float64, i0 int) {
	c, r := t.c, t.r
	o1 := out[c+i0 : c+r]
	o2 := out[c+r+i0 : c+2*r][:len(o1)]
	for i, v := range o1 {
		o2[i] = 0 - v
	}
}

// fieldTwoPass is the reference kernel: the two-pass product on the
// c×2r block [Q | 0−Q] — a dot product per U row, then rank-1 updates
// onto the W side that skip rows with x_U[j] == 0. Field uses it for
// non-finite blocks, where that skip decides the answer (it turns 0·Inf
// into "no contribution").
func (t *Twin) fieldTwoPass(x, out []float64) {
	c, r := t.c, t.r
	t.dotsTwoPass(x, out)
	xu := x[:c]
	ow := out[c : c+2*r]
	clear(ow)
	for j := 0; j < c; j++ {
		xv := xu[j]
		if xv == 0 {
			continue
		}
		row := t.q[j*r : j*r+r]
		for i, v := range row {
			ow[i] += v * xv
		}
		for i, v := range row {
			ow[r+i] += (0 - v) * xv
		}
	}
}

// dotsTwoPass is the U half of fieldTwoPass: out_U[j] is row j of
// [Q | 0−Q] times x_W, in ascending column order from +0.
func (t *Twin) dotsTwoPass(x, out []float64) {
	c, r := t.c, t.r
	xw := x[c : c+2*r]
	for j := 0; j < c; j++ {
		row := t.q[j*r : j*r+r]
		sum := 0.0
		for i, v := range row {
			sum += v * xw[i]
		}
		for i, v := range row {
			sum += (0 - v) * xw[r+i]
		}
		out[j] = sum
	}
}

// FrobeniusNorm implements Coupler. Each coupling appears twice in the
// full symmetric matrix, and each row of Q twice in [Q | −Q]; the sum
// visits the squares in the order of that c×2r block, row by row, so
// the bits match a scan of the block. The scan is memoized and
// invalidated by SetColumn.
func (t *Twin) FrobeniusNorm() float64 {
	return t.frob.norm(func() float64 {
		sum := 0.0
		for j := 0; j < t.c; j++ {
			row := t.q[j*t.r : j*t.r+t.r]
			for range 2 {
				for _, v := range row {
					sum += 2 * v * v
				}
			}
		}
		return math.Sqrt(sum)
	})
}

// FieldBatch implements BatchCoupler with one Field call per replica
// lane, so every lane is bit-identical to Field by construction,
// non-finite blocks included.
func (t *Twin) FieldBatch(x, out []float64, r int) {
	n := t.N()
	checkBatchDims(n, len(x), len(out), r)
	for k := 0; k < r; k++ {
		t.Field(x[k*n:k*n+n], out[k*n:k*n+n])
	}
}

// ToDense materializes the twin coupling as a Dense matrix; used by tests
// to validate the specialized kernels and by ablation benches.
func (t *Twin) ToDense() *Dense {
	d := NewDense(t.N())
	for j := 0; j < t.c; j++ {
		for w := 0; w < 2*t.r; w++ {
			if v := t.At(j, t.c+w); v != 0 {
				d.Set(j, t.c+w, v)
			}
		}
	}
	return d
}

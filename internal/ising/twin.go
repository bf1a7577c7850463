package ising

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
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
	gen    uint64    // content generation, from twinGen
	frob   normCache
	fin    finiteCache
}

// twinPanel is the U-row count of one column-major panel.
const twinPanel = 32

// twinGen numbers twin contents: NewTwin and every SetColumns call take
// its next value, so the tag of a TwinCache names one content of one
// twin and never matches another twin or a rewritten one.
var twinGen atomic.Uint64

// NewTwin allocates an all-zero twin coupling of c U-side spins against
// r W-side pairs.
func NewTwin(c, r int) *Twin {
	if c <= 0 || r <= 0 {
		panic(fmt.Sprintf("ising: invalid twin sizes %d, %d", c, r))
	}
	return &Twin{c: c, r: r, q: make([]float64, c*r), panels: make([]float64, c&^(twinPanel-1)*r), gen: twinGen.Add(1)}
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
	t.gen = twinGen.Add(1)
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
// the kernel family (hostFamily): on amd64 CPUs with AVX-512 the AVX-512
// assembly, on those with AVX2 the AVX2 assembly, elsewhere Go.
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
	if !t.AllFinite() {
		t.fieldTwoPass(x, out)
		return
	}
	f := hostFamily()
	t.uChains(f, x, out, 0, nil, nil)
	t.wChains(f, x, out, 0, nil, nil)
}

// FieldU writes the U-side outputs of Field, out_U = (J*x)[0:c], into
// out[0:c], bit-identically to Field; it reads only the W side of x.
// It costs about half a Field call. Like Field it keeps no scratch in
// the coupler, so replicas sharing one coupler may call it concurrently.
func (t *Twin) FieldU(x, out []float64) {
	if !t.AllFinite() {
		t.dotsTwoPass(x, out)
		return
	}
	t.uChains(hostFamily(), x, out, 0, nil, nil)
}

// HasAVX2 reports whether this CPU has AVX2: the result of the package's
// one CPUID probe, which package sb also reads to pick its step kernel
// (Twin.Field runs its AVX-512 kernels instead where the CPU has those
// too). Callers can read the choice, not change it.
func HasAVX2() bool { return hasAVX2 }

// twinFamily names one set of twin chain kernels.
type twinFamily uint8

const (
	familyGo twinFamily = iota
	familyAVX2
	familyAVX512
)

// hostFamily is the kernel family the CPUID probe picked.
func hostFamily() twinFamily {
	switch {
	case hasAVX512:
		return familyAVX512
	case hasAVX2:
		return familyAVX2
	}
	return familyGo
}

// The chain kernels. Every output of a finite-block product is one chain
// of multiply-then-add terms in the order Field describes: out_U[j] has
// 2r terms, term i < r adding Q_ji·x_W1[i] and term r+i subtracting
// Q_ji·x_W2[i]; out_W1[i] has c terms, term j adding Q_ji·x_U[j]. A
// kernel call runs every chain of one side from term t0 on, a multiple of
// that side's checkpoint stride (twinUStride or twinWStride):
//
//   - from holds each chain's partial sum after its first t0 terms,
//     from[j] on the U side and from[i] on the W side; it is nil when t0
//     is 0, and the chains then start from +0.
//   - ck, when not nil, receives the partial sums at every checkpoint
//     above t0: slot m, at ck[m·c:] on the U side and ck[m·r:] on the W
//     side, holds the sums after t0 + (m+1)·stride terms.
//
// Each partial sum is the same rounded value whichever call computes it,
// so a chain resumed from a stored partial sum ends on the bits of one
// run from +0. Field and FieldU run the kernels from term 0 without
// checkpoints; FieldCached resumes them.
const (
	twinUStride = 16 // U-chain terms per checkpoint
	twinWStride = 32 // W-chain terms per checkpoint
)

// uChains runs every U-side chain with family f's kernels: full 32-row
// panels in assembly, the last c mod 32 rows (all rows under familyGo)
// in Go.
func (t *Twin) uChains(f twinFamily, x, out []float64, t0 int, from, ck []float64) {
	c, r := t.c, t.r
	j := 0
	if f != familyGo {
		x1, x2 := x[c:c+r], x[c+r:c+2*r]
		// The plus terms left start at i1, the minus terms at i2.
		i1, i2 := min(t0, r), max(t0-r, 0)
		for ; j+twinPanel <= c; j += twinPanel {
			panel := t.panels[j*r : (j+twinPanel)*r]
			p1, p2 := panel[i1*twinPanel:], panel[i2*twinPanel:]
			s := (*[twinPanel]float64)(out[j : j+twinPanel])
			fj, ckj := part(from, j, twinPanel), part(ck, j, -1)
			if f == familyAVX512 {
				twinPanelAVX512(p1, x1[i1:], p2, x2[i2:], s, fj, ckj, c)
			} else {
				twinPanelAVX2(p1, x1[i1:], p2, x2[i2:], s, fj, ckj, c)
			}
		}
	}
	t.uRows(x, out, j, t0, from, ck)
}

// wChains runs every W-side chain with family f's kernels and stores
// the W2 twins: 64 columns per AVX-512 call, then 16 and 4 per AVX2
// call, then Go for the rest (all columns under familyGo).
func (t *Twin) wChains(f twinFamily, x, out []float64, t0 int, from, ck []float64) {
	c, r := t.c, t.r
	i := 0
	if f != familyGo {
		q, xu, o1, o2 := t.q[t0*r:], x[t0:c], out[c:c+r], out[c+r:c+2*r]
		if f == familyAVX512 {
			for ; i+64 <= r; i += 64 {
				twinRank1x64AVX512(q[i:], r, xu, (*[64]float64)(o1[i:i+64]), (*[64]float64)(o2[i:i+64]), part(from, i, 64), part(ck, i, -1))
			}
		}
		for ; i+16 <= r; i += 16 {
			twinRank1x16AVX2(q[i:], r, xu, (*[16]float64)(o1[i:i+16]), (*[16]float64)(o2[i:i+16]), part(from, i, 16), part(ck, i, -1))
		}
		for ; i+4 <= r; i += 4 {
			twinRank1x4AVX2(q[i:], r, xu, (*[4]float64)(o1[i:i+4]), (*[4]float64)(o2[i:i+4]), part(from, i, 4), part(ck, i, -1))
		}
	}
	t.wCols(x, out, i, t0, from, ck)
}

// part returns a kernel block's view of from or ck: s[i:i+n], or s[i:]
// for n < 0, and nil for an empty s.
func part(s []float64, i, n int) []float64 {
	switch {
	case len(s) == 0:
		return nil
	case n < 0:
		return s[i:]
	}
	return s[i : i+n]
}

// uRows runs the U-side chains of rows j0..c-1 in Go: four rows at a
// time, then one, each in spans of twinUStride terms when ck is set.
func (t *Twin) uRows(x, out []float64, j0, t0 int, from, ck []float64) {
	c, r := t.c, t.r
	x1, x2 := x[c:c+r], x[c+r:c+2*r]
	span := max(2*r-t0, 1)
	if ck != nil {
		span = twinUStride
	}
	j := j0
	for ; j+4 <= c; j += 4 {
		var s0, s1, s2, s3 float64
		if from != nil {
			s0, s1, s2, s3 = from[j], from[j+1], from[j+2], from[j+3]
		}
		rows := t.q[j*r : (j+4)*r]
		for lo, m := t0, 0; lo < 2*r; lo, m = lo+span, m+1 {
			hi := min(lo+span, 2*r)
			s0, s1, s2, s3 = twinDots4(rows, x1, x2, lo, hi, s0, s1, s2, s3)
			if ck != nil && hi-lo == span {
				k := ck[m*c+j : m*c+j+4]
				k[0], k[1], k[2], k[3] = s0, s1, s2, s3
			}
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < c; j++ {
		var s float64
		if from != nil {
			s = from[j]
		}
		row := t.q[j*r : j*r+r]
		for lo, m := t0, 0; lo < 2*r; lo, m = lo+span, m+1 {
			hi := min(lo+span, 2*r)
			s = twinDot(row, x1, x2, lo, hi, s)
			if ck != nil && hi-lo == span {
				ck[m*c+j] = s
			}
		}
		out[j] = s
	}
}

// twinDots4 continues the U chains of the four consecutive rows held in
// rows (4·len(x1) entries) from the sums s0..s3 over terms lo..hi-1:
// four independent chains share each x load. It is a function of its own
// so the register allocator sees only the loop's operands.
func twinDots4(rows, x1, x2 []float64, lo, hi int, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	r := len(x1)
	q0 := rows[:r]
	q1, q2, q3 := rows[r : 2*r][:len(q0)], rows[2*r : 3*r][:len(q0)], rows[3*r : 4*r][:len(q0)]
	if lo < r {
		e := min(hi, r)
		a0 := q0[lo:e]
		a1, a2, a3, xs := q1[lo:e][:len(a0)], q2[lo:e][:len(a0)], q3[lo:e][:len(a0)], x1[lo:e][:len(a0)]
		for i, v0 := range a0 {
			xv := xs[i]
			s0 += v0 * xv
			s1 += a1[i] * xv
			s2 += a2[i] * xv
			s3 += a3[i] * xv
		}
	}
	if hi > r {
		b, e := max(lo-r, 0), hi-r
		a0 := q0[b:e]
		a1, a2, a3, xs := q1[b:e][:len(a0)], q2[b:e][:len(a0)], q3[b:e][:len(a0)], x2[b:e][:len(a0)]
		for i, v0 := range a0 {
			xv := xs[i]
			s0 -= v0 * xv
			s1 -= a1[i] * xv
			s2 -= a2[i] * xv
			s3 -= a3[i] * xv
		}
	}
	return s0, s1, s2, s3
}

// twinDot is twinDots4 for one row.
func twinDot(row, x1, x2 []float64, lo, hi int, s float64) float64 {
	r := len(row)
	if lo < r {
		e := min(hi, r)
		a, xs := row[lo:e], x1[lo:e]
		xs = xs[:len(a)]
		for i, v := range a {
			s += v * xs[i]
		}
	}
	if hi > r {
		b, e := max(lo-r, 0), hi-r
		a, xs := row[b:e], x2[b:e]
		xs = xs[:len(a)]
		for i, v := range a {
			s -= v * xs[i]
		}
	}
	return s
}

// wCols runs the W-side chains of columns i0..r-1 in Go, in spans of
// twinWStride rows when ck is set, and stores their W2 twins.
func (t *Twin) wCols(x, out []float64, i0, t0 int, from, ck []float64) {
	c, r := t.c, t.r
	if i0 >= r {
		return
	}
	o := out[c+i0 : c+r]
	if from != nil {
		copy(o, from[i0:r])
	} else {
		clear(o)
	}
	span := max(c-t0, 1)
	if ck != nil {
		span = twinWStride
	}
	for lo, m := t0, 0; lo < c; lo, m = lo+span, m+1 {
		hi := min(lo+span, c)
		t.rank1Rows(x, o, i0, lo, hi)
		if ck != nil && hi-lo == span {
			copy(ck[m*r+i0:m*r+r], o)
		}
	}
	o2 := out[c+r+i0 : c+2*r][:len(o)]
	for i, v := range o {
		o2[i] = 0 - v // see Field for why 0 − v
	}
}

// rank1Rows adds rows lo..hi-1 of the W-side terms onto o, the sums of
// columns i0..r-1: four rows at a time, each output loaded and stored
// once per four rows with their terms added in ascending row order, then
// one row at a time.
func (t *Twin) rank1Rows(x, o []float64, i0, lo, hi int) {
	r := t.r
	j := lo
	for ; j+4 <= hi; j += 4 {
		q0 := t.q[j*r+i0 : j*r+r]
		q1, q2, q3 := t.q[(j+1)*r+i0 : (j+1)*r+r][:len(q0)], t.q[(j+2)*r+i0 : (j+2)*r+r][:len(q0)], t.q[(j+3)*r+i0 : (j+3)*r+r][:len(q0)]
		x0, x1, x2, x3 := x[j], x[j+1], x[j+2], x[j+3]
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
	for ; j < hi; j++ {
		row := t.q[j*r+i0 : j*r+r]
		xv, ot := x[j], o[:len(row)]
		for i, v := range row {
			ot[i] += v * xv
		}
	}
}

// TwinCache is a caller-owned record of the last product FieldCached
// computed on one twin: its input, its output, and every output's
// partial sums at the chain checkpoints (every twinUStride U-chain and
// twinWStride W-chain terms; ~92 KiB at 512×128). It is tagged with the
// twin and that twin's content generation, so it never serves another
// twin or a rewritten one. The zero value is an empty cache. A cache is
// not safe for concurrent use; give each replica lane its own.
type TwinCache struct {
	gen      uint64    // the twin content it holds products of; 0 = empty
	x, out   []float64 // the last product's input and output
	ckU, ckW []float64 // checkpoint slots, laid out as the chain kernels store them
}

// Reserve sizes the cache for products on t and empties it, reusing its
// buffers when they are large enough, so later FieldCached calls on t
// allocate nothing.
func (tc *TwinCache) Reserve(t *Twin) {
	c, r := t.c, t.r
	tc.gen = 0
	tc.x = resize(tc.x, c+2*r)
	tc.out = resize(tc.out, c+2*r)
	tc.ckU = resize(tc.ckU, 2*r/twinUStride*c)
	tc.ckW = resize(tc.ckW, c/twinWStride*r)
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CachePays reports whether FieldCached is expected to beat Field on
// this twin's shape when about half of a product's terms repeat: a
// product of fewer than twinCacheMinTerms multiply-adds is too short
// for the input scan and the checkpoint stores to pay back.
func (t *Twin) CachePays() bool { return t.c*t.r >= twinCacheMinTerms }

// twinCacheMinTerms is the smallest c·r on which CachePays holds.
const twinCacheMinTerms = 4096

// FieldCached is Field resuming from tc: on each side of the product it
// finds the first input that differs bitwise from tc's last input, and
// every chain of that side restarts from its last checkpoint at or
// before that term; a side whose inputs all repeat copies its outputs
// from tc. The resumed chains repeat the rounded operations of a run
// from +0, so out equals Field's bit for bit. tc then holds this
// product. A tc last used on another twin or on an older content of t
// is refilled from term 0 (Reserve sizes it if needed), and a non-finite
// block runs the two-pass kernel without touching tc.
func (t *Twin) FieldCached(x, out []float64, tc *TwinCache) {
	if !t.AllFinite() {
		t.fieldTwoPass(x, out)
		return
	}
	t.fieldResume(hostFamily(), x, out, tc)
}

// fieldResume is FieldCached's finite-block path with family f's kernels.
func (t *Twin) fieldResume(f twinFamily, x, out []float64, tc *TwinCache) {
	c, r := t.c, t.r
	n := c + 2*r
	x, out = x[:n], out[:n]
	// u and w are the first terms whose inputs differ on each side.
	u, w := 0, 0
	if tc.gen == t.gen {
		u, w = firstDiff(x[c:], tc.x[c:]), firstDiff(x[:c], tc.x[:c])
	} else {
		tc.Reserve(t)
		tc.gen = t.gen
	}
	if u == 2*r {
		copy(out[:c], tc.out[:c])
	} else {
		m := u / twinUStride
		t.uChains(f, x, out, m*twinUStride, checkpoint(tc.ckU, m, c), part(tc.ckU, m*c, -1))
		copy(tc.out[:c], out[:c])
		copy(tc.x[c+u:], x[c+u:])
	}
	if w == c {
		copy(out[c:], tc.out[c:])
	} else {
		m := w / twinWStride
		t.wChains(f, x, out, m*twinWStride, checkpoint(tc.ckW, m, r), part(tc.ckW, m*r, -1))
		copy(tc.out[c:], out[c:])
		copy(tc.x[w:c], x[w:c])
	}
}

// checkpoint returns the sums after m strides, slot m-1 of the width-wide
// slots in ck, or nil for m = 0.
func checkpoint(ck []float64, m, width int) []float64 {
	if m == 0 {
		return nil
	}
	return ck[(m-1)*width : m*width]
}

// firstDiff returns the first index at which a and b differ bitwise, or
// len(a) when none does; b must be at least as long as a.
func firstDiff(a, b []float64) int {
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		// ^ and | share a precedence level in Go: each XOR needs its
		// parentheses.
		d := (math.Float64bits(a[i]) ^ math.Float64bits(b[i])) | (math.Float64bits(a[i+1]) ^ math.Float64bits(b[i+1])) |
			(math.Float64bits(a[i+2]) ^ math.Float64bits(b[i+2])) | (math.Float64bits(a[i+3]) ^ math.Float64bits(b[i+3]))
		if d != 0 {
			break
		}
	}
	for ; i < len(a); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return len(a)
}

// FieldBatchCached is FieldBatch with one caller-owned cache per lane:
// on a *Twin coupler with non-nil caches, lane k's product is
// Twin.FieldCached with caches[k] (len(caches) must be at least r);
// on any other coupler, or with nil caches, it is FieldBatch. Either way
// each lane equals Field bit for bit, and the ising.field failpoint
// fires as it does in FieldBatch.
func FieldBatchCached(c Coupler, x, out []float64, r int, caches []TwinCache) {
	t, ok := c.(*Twin)
	if !ok || caches == nil {
		FieldBatch(c, x, out, r)
		return
	}
	n := t.N()
	checkBatchDims(n, len(x), len(out), r)
	for k := 0; k < r; k++ {
		t.FieldCached(x[k*n:k*n+n], out[k*n:k*n+n], &caches[k])
	}
	if r > 0 && len(out) > 0 && siteField.Fire() {
		out[0] = math.NaN()
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
// full symmetric matrix, and each row of Q twice in [Q | −Q]; the norm
// is the square root of the sum of 2q² over that c×2r block, summed row
// by row as one chain (frobeniusChain), unless exactSquareSum can prove
// the sum has no rounding, in which case any order gives the chain's
// bits. The result is memoized and invalidated by SetColumn.
func (t *Twin) FrobeniusNorm() float64 {
	return t.frob.norm(func() float64 {
		if s, ok := t.exactSquareSum(); ok {
			return math.Sqrt(s)
		}
		return math.Sqrt(t.frobeniusChain())
	})
}

// frobeniusChain sums 2q² over the c×2r block [Q | −Q] row by row, in
// the order of a scan of the block, as one dependent chain from +0.
func (t *Twin) frobeniusChain() float64 {
	sum := 0.0
	for j := 0; j < t.c; j++ {
		row := t.q[j*t.r : j*t.r+t.r]
		for range 2 {
			for _, v := range row {
				sum += 2 * v * v
			}
		}
	}
	return sum
}

// exactSquareSum returns frobeniusChain's sum, summed over Q once with
// four independent chains, when it can prove that no sum in either
// order rounds. Let every q be an integer multiple of g = 2^e (e the
// least LowBitExp over Q), with 2e >= −1074 so that multiples of g² are
// representable. Each chain term 2q² is then a multiple of 2g², and
// every partial sum of the chain is a multiple of 2g² no larger than its
// total T = 4·Σq²; while T < 2^53·2g² every one of them, and every term,
// is exact. The same holds for the four chains here, whose terms q² are
// multiples of g² and whose sums stay below Σq² < 2^52·g², and for the
// final 4·Σq². The computed Σq² is the test: the terms are non-negative
// and rounding is monotone, so a rounded sum below 2^52·g² proves the
// exact one is too. A non-finite q fails the test through a non-finite
// sum, and 2e <= 960 keeps 2^52·g² and T finite. An all-zero Q sums to
// +0, as the chain does.
func (t *Twin) exactSquareSum() (float64, bool) {
	q := t.q
	var s0, s1, s2, s3 float64
	e := math.MaxInt
	i := 0
	for ; i+4 <= len(q); i += 4 {
		v0, v1, v2, v3 := q[i], q[i+1], q[i+2], q[i+3]
		s0 += v0 * v0
		s1 += v1 * v1
		s2 += v2 * v2
		s3 += v3 * v3
		e = min(e, LowBitExp(v0), LowBitExp(v1), LowBitExp(v2), LowBitExp(v3))
	}
	for ; i < len(q); i++ {
		s0 += q[i] * q[i]
		e = min(e, LowBitExp(q[i]))
	}
	if e == math.MaxInt {
		return 0, true
	}
	s := (s0 + s1) + (s2 + s3)
	if 2*e < -1074 || 2*e > 960 || !(s < math.Ldexp(1, 52+2*e)) {
		return 0, false
	}
	return 4 * s, true
}

// LowBitExp returns the exponent of the lowest set significand bit of
// v, so that v is an integer multiple of 2^LowBitExp(v); for zero, a
// multiple of every power of two, it returns math.MaxInt. The value for
// ±Inf and NaN is meaningless.
func LowBitExp(v float64) int {
	b := math.Float64bits(v)
	if b<<1 == 0 {
		return math.MaxInt
	}
	// A subnormal has the exponent of the smallest normal and no
	// implicit bit; setting bit 52 leaves the trailing-zero count of a
	// nonzero subnormal significand unchanged.
	return max(int(b>>52&0x7ff), 1) - 1075 + bits.TrailingZeros64(b|1<<52)
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

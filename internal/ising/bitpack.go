package ising

import (
	"math"
	"math/bits"

	"isinglut/internal/fault"
)

// Failpoints in the bit-packed fast path. ising.bitpack.pack forces
// NewPlanes to reject the coupling so the scalar quantized fallback is
// testable on matrices the heuristic would accept, and
// ising.bitpack.accum poisons the first popcount-accumulated field value
// (the bit-packed analogue of ising.quant.accum — it must flow into the
// same divergence quarantine).
var (
	siteBitpackPack  = fault.NewSite("ising.bitpack.pack")
	siteBitpackAccum = fault.NewSite("ising.bitpack.accum")
)

// Planes is a quantized coupling re-packed into sign+magnitude bit-planes
// for the dSB field product J·sign(x): with spins restricted to ±1, every
// row field Σ_j q_ij·σ_j collapses to popcount arithmetic. Each code is
// split as q = s·Σ_b 2^b·m_b (s the sign bit, m_b the magnitude bit-
// planes); with u the 64-spin word whose bit j says sign(q_ij·σ_j) = +1
// (u = σ-mask XOR sign-plane — zero codes have empty planes, so their u
// bits are dead), the row field is
//
//	Σ_b 2^b·(2·popcount(plane_b ∧ u) − popcount(plane_b)) = 2·P − Σ|q|
//
// so one AND+POPCNT per plane word replaces up to 64 multiply-adds. The
// accumulation is the same exact integer the scalar quantized kernels
// compute in float64 registers, so the rescaled field is bit-identical to
// Quantized.FieldSigns — and therefore whole dSB trajectories are
// bit-identical between the two paths.
//
// Storage is group-major: for each active 64-column word group the block
// [sign, plane_0, …, plane_{B-1}] is contiguous, with a dense layout
// (every group of every row) above the sparsity threshold and a CSR-style
// layout (rowPtr/wIdx over active groups only) below it. Like Quantized,
// a Planes carries per-call scratch and is NOT safe for concurrent use —
// each goroutine builds its own.
type Planes struct {
	n     int
	scale float64
	b     int // magnitude planes per group; a group block is 1+b words
	w     int // words per packed spin row: ceil(n/64)

	// Exactly one of the two layouts is populated.
	dense []uint64 // n rows × w groups × (1+b) words

	rowPtr []int32  // CSR-style offsets into wIdx (n+1)
	wIdx   []int32  // active word-group indices, ascending per row
	blocks []uint64 // len(wIdx) groups × (1+b) words

	rowAbs []int64 // per-row Σ|q|, the popcount baseline (≤ MaxInt32)

	// Scratch for the sign packing and the per-lane accumulators; grown
	// on demand by the batch kernel, reused across steps.
	sliced []uint64 // replica-bit-sliced signs: bit w of word j = lane (g·64+w)'s spin j
	lmask  []uint64 // per-lane packed sign masks, group-major [w*rUp+k]
	acc    []int64  // per-lane row accumulators
}

// N returns the spin count.
func (p *Planes) N() int { return p.n }

// Scale returns the per-matrix quantization step inherited from the
// source Quantized.
func (p *Planes) Scale() float64 { return p.scale }

// PlaneCount returns the number of magnitude bit-planes B (7 for int8
// codes at full scale, up to 15 for int16).
func (p *Planes) PlaneCount() int { return p.b }

// Dense reports whether the dense group layout is in use (vs the CSR
// active-group layout).
func (p *Planes) Dense() bool { return p.dense != nil }

// NewPlanes re-packs a quantized coupling into bit-planes for a run of
// the given lane count, or reports ok=false when packing is expected to
// lose to the scalar quantized kernels at that width — callers must
// treat ok=false as "stay on the quant path", never as an error. The
// dispatch is density × width × lanes; see packWins.
func NewPlanes(q *Quantized, lanes int) (*Planes, bool) {
	return newPlanes(q, lanes, false)
}

// newPlanes is NewPlanes with the heuristic override used by the
// differential tests to force-pack regimes the dispatch would reject.
func newPlanes(q *Quantized, lanes int, force bool) (*Planes, bool) {
	if siteBitpackPack.Fire() {
		return nil, false
	}
	if q == nil || q.n == 0 {
		return nil, false
	}
	switch {
	case q.d8 != nil:
		return packDense(q, q.d8, lanes, force)
	case q.d16 != nil:
		return packDense(q, q.d16, lanes, force)
	case q.s8 != nil:
		return packCSR(q, q.s8, lanes, force)
	case q.s16 != nil:
		return packCSR(q, q.s16, lanes, force)
	default:
		return nil, false
	}
}

// packWins is the packing dispatch. Per lane, the popcount sweep costs
// b+2 word ops for each of the groups active 64-column groups (summed
// over rows) and the scalar kernel one multiply-add for each of the
// stored entries (n² in the dense code layout). Packing wins iff
// k·(b+2)·groups ≤ stored, with the exchange rate k read off the
// measured break-evens (EXPERIMENTS.md, "Kernels picked by the
// instance"): 2.5 dense and 1.5 CSR where FieldSignsBatch makes one
// FieldSigns call per lane (perLaneCalls), so no sign transpose runs;
// 3.5 dense for a batched sweep of two or three lanes; 4 dense from four
// lanes on, where the scalar kernels tile four lanes in registers — and
// int16 planes (b > 7), whose generic sweep is not unrolled, lose there
// at any size. A batched CSR sweep also pays about half a group per row
// for its per-row lane loop, so it packs iff (b+2)·(groups + n/2) ≤
// stored: 20%-dense rows one 64-column word wide stay scalar, wider
// ones pack.
func packWins(dense bool, n, b, groups, stored, lanes int) bool {
	cost := (b + 2) * groups
	perLane := perLaneCalls(n, lanes)
	switch {
	case lanes >= 4 && b > 7:
		return false
	case dense && perLane:
		return 5*cost <= 2*stored
	case dense && lanes < 4:
		return 7*cost <= 2*stored
	case dense:
		return 4*cost <= stored
	case perLane:
		return 3*cost <= 2*stored
	default:
		return (b+2)*(2*groups+n) <= 2*stored
	}
}

// perLaneCalls reports whether FieldSignsBatch runs r lanes of n spins as
// one FieldSigns call each rather than as the bit-sliced sweep. The
// slicing's 64×64 tile transposes cost the same for any r up to 64,
// while the batched sweep saves a share of each lane's row work, so the
// per-lane calls win on small blocks: always at one lane, and below four
// lanes up to r·n = 128 lane spins. The cut is the tightest measured
// break-even, int8 dense rows at three lanes (r·n ≈ 120–132); other
// shapes keep winning somewhat further (EXPERIMENTS.md).
func perLaneCalls(n, r int) bool { return r == 1 || r < 4 && r*n <= 128 }

// planeCount returns B = bits needed for the largest |code|.
func planeCount[T quantVal](codes []T) int {
	var maxAbs int64
	for _, c := range codes {
		a := int64(c)
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	return bits.Len64(uint64(maxAbs))
}

func packDense[T quantVal](q *Quantized, codes []T, lanes int, force bool) (*Planes, bool) {
	n := q.n
	b := planeCount(codes)
	if b == 0 {
		return nil, false
	}
	w := (n + 63) / 64
	if !force && !packWins(true, n, b, n*w, n*n, lanes) {
		return nil, false
	}
	gw := 1 + b
	stride := w * gw
	p := &Planes{
		n: n, scale: q.scale, b: b, w: w,
		dense:  make([]uint64, n*stride),
		rowAbs: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		row := codes[i*n : i*n+n]
		blkRow := p.dense[i*stride : i*stride+stride]
		var abs int64
		for j, c := range row {
			v := int64(c)
			if v == 0 {
				continue
			}
			blk := blkRow[(j>>6)*gw:]
			bit := uint64(1) << (uint(j) & 63)
			if v < 0 {
				blk[0] |= bit
				v = -v
			}
			abs += v
			for pb := 1; v != 0; pb++ {
				if v&1 != 0 {
					blk[pb] |= bit
				}
				v >>= 1
			}
		}
		p.rowAbs[i] = abs
	}
	return p, true
}

func packCSR[T quantVal](q *Quantized, codes []T, lanes int, force bool) (*Planes, bool) {
	n := q.n
	b := planeCount(codes)
	if b == 0 {
		return nil, false
	}
	// First pass: count active 64-column groups per row (columns are
	// ascending within a row, so group changes are monotone) and apply
	// the dispatch against the CSR quant cost.
	activeTotal := 0
	for i := 0; i < n; i++ {
		lastG := int32(-1)
		for e := q.rowPtr[i]; e < q.rowPtr[i+1]; e++ {
			if g := q.col[e] >> 6; g != lastG {
				activeTotal++
				lastG = g
			}
		}
	}
	if !force && !packWins(false, n, b, activeTotal, len(q.col), lanes) {
		return nil, false
	}
	gw := 1 + b
	p := &Planes{
		n: n, scale: q.scale, b: b, w: (n + 63) / 64,
		rowPtr: make([]int32, n+1),
		wIdx:   make([]int32, 0, activeTotal),
		blocks: make([]uint64, activeTotal*gw),
		rowAbs: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		lastG := int32(-1)
		var blk []uint64
		var abs int64
		for e := q.rowPtr[i]; e < q.rowPtr[i+1]; e++ {
			c := q.col[e]
			if g := c >> 6; g != lastG {
				blk = p.blocks[len(p.wIdx)*gw:][:gw]
				p.wIdx = append(p.wIdx, g)
				lastG = g
			}
			v := int64(codes[e])
			bit := uint64(1) << (uint(c) & 63)
			if v < 0 {
				blk[0] |= bit
				v = -v
			}
			abs += v
			for pb := 1; v != 0; pb++ {
				if v&1 != 0 {
					blk[pb] |= bit
				}
				v >>= 1
			}
		}
		p.rowAbs[i] = abs
		p.rowPtr[i+1] = int32(len(p.wIdx))
	}
	return p, true
}

// packSigns packs one replica's materialized ±1 spin signs into a bit
// mask (bit j = 1 iff σ_j = +1). The engines guarantee sigma holds exact
// ±1.0 float64 values, so the IEEE sign bit is the branchless encoding.
func packSigns(sigma []float64, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for j, v := range sigma {
		dst[j>>6] |= ((math.Float64bits(v) >> 63) ^ 1) << (uint(j) & 63)
	}
}

// FieldSigns computes out = scale·(Q·σ) for one replica via the popcount
// sweep; sigma is the same materialized ±1 sign buffer
// Quantized.FieldSigns consumes, and the output is bit-identical to it.
func (p *Planes) FieldSigns(sigma, out []float64) {
	n := p.n
	if len(sigma) < n || len(out) < n {
		panic("ising: FieldSigns buffer shorter than n")
	}
	p.ensureScratch(1)
	mask := p.lmask[:p.w]
	packSigns(sigma[:n], mask)
	if p.dense != nil {
		p.denseField(mask, out)
	} else {
		p.csrField(mask, out)
	}
	if siteBitpackAccum.Fire() {
		out[0] = math.NaN()
	}
}

func (p *Planes) denseField(mask []uint64, out []float64) {
	n, w := p.n, p.w
	gw := 1 + p.b
	stride := w * gw
	for i := 0; i < n; i++ {
		row := p.dense[i*stride : i*stride+stride]
		var pc int
		for g := 0; g < w; g++ {
			blk := row[g*gw : g*gw+gw]
			u := mask[g] ^ blk[0]
			for pb := 1; pb < len(blk); pb++ {
				pc += bits.OnesCount64(blk[pb]&u) << (pb - 1)
			}
		}
		out[i] = p.scale * float64(2*int64(pc)-p.rowAbs[i])
	}
}

func (p *Planes) csrField(mask []uint64, out []float64) {
	n := p.n
	gw := 1 + p.b
	for i := 0; i < n; i++ {
		var pc int
		for e := p.rowPtr[i]; e < p.rowPtr[i+1]; e++ {
			blk := p.blocks[int(e)*gw : int(e)*gw+gw]
			u := mask[p.wIdx[e]] ^ blk[0]
			for pb := 1; pb < len(blk); pb++ {
				pc += bits.OnesCount64(blk[pb]&u) << (pb - 1)
			}
		}
		out[i] = p.scale * float64(2*int64(pc)-p.rowAbs[i])
	}
}

// ensureScratch grows the batch scratch to cover r lanes (rounded up to
// whole 64-lane slice groups, since the transpose emits full tiles).
func (p *Planes) ensureScratch(r int) {
	g := (r + 63) / 64
	rUp := g * 64
	if len(p.sliced) < g*p.n {
		p.sliced = make([]uint64, g*p.n)
	}
	if len(p.lmask) < p.w*rUp {
		p.lmask = make([]uint64, p.w*rUp)
	}
	if len(p.acc) < r {
		p.acc = make([]int64, rUp)
	}
}

// packSignsSliced builds the replica-bit-sliced sign array from the
// column-major n×r lane layout: for slice group g, bit w of word
// sliced[g·n+j] holds lane (g·64+w)'s spin j sign (1 = +1).
func packSignsSliced(sigma []float64, n, r int, sliced []uint64) {
	g := (r + 63) / 64
	for i := range sliced[:g*n] {
		sliced[i] = 0
	}
	for k := 0; k < r; k++ {
		dst := sliced[(k>>6)*n : (k>>6)*n+n]
		lane := sigma[k*n : k*n+n]
		shift := uint(k) & 63
		for j, v := range lane {
			dst[j] |= ((math.Float64bits(v) >> 63) ^ 1) << shift
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place (word k is row k,
// bit c is column c, LSB-first) — the Hacker's Delight recursive block
// swap with the shifts oriented for LSB-first columns: at each scale the
// high-column half of the top rows trades places with the low-column
// half of the bottom rows.
func transpose64(a *[64]uint64) {
	for j, m := uint(32), uint64(0x00000000FFFFFFFF); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// sliceToLaneMasks converts the replica-bit-sliced array into per-lane
// packed sign masks via 64×64 tile transposes, group-major so the sweep's
// inner lane loop is contiguous: lmask[w·rUp + k] is lane k's mask word w.
func sliceToLaneMasks(sliced []uint64, n, r, w int, lmask []uint64) {
	g := (r + 63) / 64
	rUp := g * 64
	var tile [64]uint64
	for sg := 0; sg < g; sg++ {
		src := sliced[sg*n : sg*n+n]
		for wi := 0; wi < w; wi++ {
			base := wi * 64
			for j := 0; j < 64; j++ {
				if base+j < n {
					tile[j] = src[base+j]
				} else {
					tile[j] = 0
				}
			}
			transpose64(&tile)
			dst := lmask[wi*rUp+sg*64 : wi*rUp+sg*64+64]
			copy(dst, tile[:])
		}
	}
}

// FieldSignsBatch is FieldSigns over r column-major replica lanes (the
// SB lane-engine layout): it packs the lanes into the replica-bit-sliced
// array, transposes 64×64 tiles into per-lane masks, then streams each
// group block [sign, plane_0…plane_{B-1}] once across all lanes — one
// AND+POPCNT per plane word advances 64 spins of one lane, and the block
// stays in registers/L1 across the whole lane sweep. Bit-identical to
// Quantized.FieldSignsBatch lane by lane. A block of few lane spins
// (perLaneCalls) skips the slicing and makes one FieldSigns call per
// lane.
func (p *Planes) FieldSignsBatch(sigma, out []float64, r int) {
	n := p.n
	checkBatchDims(n, len(sigma), len(out), r)
	if perLaneCalls(n, r) {
		for l := 0; l < r; l++ {
			p.FieldSigns(sigma[l*n:l*n+n], out[l*n:l*n+n])
		}
		return
	}
	p.ensureScratch(r)
	packSignsSliced(sigma, n, r, p.sliced)
	sliceToLaneMasks(p.sliced, n, r, p.w, p.lmask)
	if p.dense != nil {
		p.denseFieldBatch(out, r)
	} else {
		p.csrFieldBatch(out, r)
	}
	if siteBitpackAccum.Fire() {
		out[0] = math.NaN()
	}
}

// planeSweep8 is the unrolled group sweep for int8 codes (B=7, the full
// int8 code range always populates all 7 planes): the block's sign word
// and seven plane words stay in registers across the whole lane loop,
// and the seven AND+POPCNT chains per lane are independent, so the CPU
// pipelines them. blk is one [sign, p1…p7] group block, lm the lanes'
// mask words for this group.
func planeSweep8(blk, lm []uint64, acc []int64) {
	neg := blk[0]
	p1, p2, p3, p4, p5, p6, p7 := blk[1], blk[2], blk[3], blk[4], blk[5], blk[6], blk[7]
	acc = acc[:len(lm)]
	for k, m := range lm {
		u := m ^ neg
		pc := bits.OnesCount64(p1&u) +
			bits.OnesCount64(p2&u)<<1 +
			bits.OnesCount64(p3&u)<<2 +
			bits.OnesCount64(p4&u)<<3 +
			bits.OnesCount64(p5&u)<<4 +
			bits.OnesCount64(p6&u)<<5 +
			bits.OnesCount64(p7&u)<<6
		acc[k] += int64(pc)
	}
}

// planeSweepGeneric handles any plane count (int16 codes carry up to 15
// planes).
func planeSweepGeneric(blk, lm []uint64, acc []int64) {
	neg := blk[0]
	planes := blk[1:]
	acc = acc[:len(lm)]
	for k, m := range lm {
		u := m ^ neg
		var pc int
		for pb, pw := range planes {
			pc += bits.OnesCount64(pw&u) << pb
		}
		acc[k] += int64(pc)
	}
}

// sweepFor picks the group sweep for the plane count.
func (p *Planes) sweepFor() func(blk, lm []uint64, acc []int64) {
	if p.b == 7 {
		return planeSweep8
	}
	return planeSweepGeneric
}

func (p *Planes) denseFieldBatch(out []float64, r int) {
	n, w := p.n, p.w
	gw := 1 + p.b
	stride := w * gw
	rUp := ((r + 63) / 64) * 64
	acc := p.acc[:r]
	sweep := p.sweepFor()
	for i := 0; i < n; i++ {
		row := p.dense[i*stride : i*stride+stride]
		for k := range acc {
			acc[k] = 0
		}
		for g := 0; g < w; g++ {
			sweep(row[g*gw:g*gw+gw], p.lmask[g*rUp:g*rUp+r], acc)
		}
		a, s := p.rowAbs[i], p.scale
		for k, pc := range acc {
			out[k*n+i] = s * float64(2*pc-a)
		}
	}
}

func (p *Planes) csrFieldBatch(out []float64, r int) {
	n := p.n
	gw := 1 + p.b
	rUp := ((r + 63) / 64) * 64
	acc := p.acc[:r]
	sweep := p.sweepFor()
	for i := 0; i < n; i++ {
		for k := range acc {
			acc[k] = 0
		}
		for e := p.rowPtr[i]; e < p.rowPtr[i+1]; e++ {
			g := int(p.wIdx[e])
			sweep(p.blocks[int(e)*gw:int(e)*gw+gw], p.lmask[g*rUp:g*rUp+r], acc)
		}
		a, s := p.rowAbs[i], p.scale
		for k, pc := range acc {
			out[k*n+i] = s * float64(2*pc-a)
		}
	}
}

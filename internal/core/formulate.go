package core

import (
	"math"
	"sync"

	"isinglut/internal/bitvec"
	"isinglut/internal/decomp"
	"isinglut/internal/ising"
)

// Formulation is the Ising encoding of a column-based core COP
// (Sections 3.2.1/3.2.2). Spins are laid out as:
//
//	index j          in [0, c)        : T-bar_j   (column types)
//	index c + i      in [c, c+r)      : V1-bar_i  (column pattern 1)
//	index c + r + i  in [c+r, c+2r)   : V2-bar_i  (column pattern 2)
//
// so the coupling graph is bipartite between the T group and the V group,
// with the V2 couplings the negated V1 couplings, which the ising.Twin
// coupler exploits. With Delta_ij = cost1-cost0, the model is (both
// modes, Eqs. 9 and 16):
//
//	h[V1_i] = h[V2_i] = -sum_j Delta_ij / 4,  h[T_j] = 0
//	J[T_j, V1_i] = +Delta_ij / 4
//	J[T_j, V2_i] = -Delta_ij / 4
//	Offset = sum_ij (cost0_ij + Delta_ij/2)
//
// so that Problem.ObjectiveValue(spins) equals COP.SettingCost of the
// decoded setting exactly — a property the test suite enforces.
type Formulation struct {
	COP     *COP
	Problem *ising.Problem

	// tBound[j] bounds how far the sign of T_j's field can stray from
	// the Theorem-3 cost comparison of column j (see theorem3Bound): 0
	// when every sum behind both is exact.
	tBound []float64
}

// Formulate builds the Ising problem for the COP. One pass over the
// costs, in row-major order, fills the couplings (a column of Q per
// pattern row), the biases, the offset and the per-column inputs of the
// Theorem-3 bounds.
func Formulate(cop *COP) *Formulation {
	return formulateInto(cop, ising.NewTwin(cop.C, cop.R))
}

// formulateRows is how many pattern rows formulateInto gathers before it
// stores them into the twin with one SetColumns call: eight adjacent
// floats, one cache line, per row-major row of Q.
const formulateRows = 8

// formulateInto is Formulate with a caller-supplied c×r twin, every
// entry of which it overwrites, so a recycled twin needs no clearing. The
// sums keep Formulate's order: the offset over the cells row-major from
// +0, each bias over its row, each column's mass over ascending rows.
func formulateInto(cop *COP, coup *ising.Twin) *Formulation {
	r, c := cop.R, cop.C
	n := c + 2*r
	h := make([]float64, n)
	block := make([]float64, min(r, formulateRows)*c) // Q's columns i0.. : the q of pattern rows i0..
	mass := make([]float64, c)                        // per column: sum of |cost0| + |cost1|
	grain := make([]int, c)                           // per column: min LowBitExp over its costs
	for j := range grain {
		grain[j] = math.MaxInt
	}
	offset := 0.0
	for i0 := 0; i0 < r; i0 += formulateRows {
		rows := min(formulateRows, r-i0)
		for i := i0; i < i0+rows; i++ {
			var hi float64
			offset, hi = formulateRow(offset, cop.Cost0[i*c:i*c+c], cop.Cost1[i*c:i*c+c], block[(i-i0)*c:], mass, grain)
			h[c+i], h[c+r+i] = hi, hi
		}
		coup.SetColumns(i0, block[:rows*c])
	}
	bound := mass // each column's mass becomes its bound in place
	for j, m := range mass {
		bound[j] = theorem3Bound(m, grain[j], r)
	}
	prob, err := ising.NewProblem(coup, h, offset)
	if err != nil {
		panic(err) // dimensions are constructed consistently above
	}
	return &Formulation{COP: cop, Problem: prob, tBound: bound}
}

// formulateRow adds one pattern row's costs into the offset, the column
// masses and the column grains, writes the row's q into q, and returns
// the offset and the row's bias h[V1_i] = h[V2_i], summed over ascending
// j from +0.
func formulateRow(offset float64, cost0, cost1, q, mass []float64, grain []int) (float64, float64) {
	cost1, q, mass, grain = cost1[:len(cost0)], q[:len(cost0)], mass[:len(cost0)], grain[:len(cost0)]
	hi := 0.0
	for j, c0 := range cost0 {
		c1 := cost1[j]
		delta := c1 - c0
		qij := delta / 4
		offset += c0 + delta/2
		hi -= qij
		q[j] = qij // T_j with V1_i; T_j with V2_i is 0 - q
		mass[j] += math.Abs(c0) + math.Abs(c1)
		grain[j] = min(grain[j], ising.LowBitExp(c0), ising.LowBitExp(c1))
	}
	return offset, hi
}

// twinPool recycles the couplers of core solves: a twin holds Q twice
// (2·r·c floats, 1 MiB at the Fig. 4 size), and formulateInto overwrites
// all of it, so a solve that draws one of its shape skips allocating and
// zeroing it.
var twinPool sync.Pool

// getTwin returns a pooled c×r twin, or a new one when the pool has none
// of that shape.
func getTwin(c, r int) *ising.Twin {
	if t, ok := twinPool.Get().(*ising.Twin); ok {
		if tc, tr := t.Shape(); tc == c && tr == r {
			return t
		}
	}
	return ising.NewTwin(c, r)
}

// theorem3Bound returns B_j for a column whose costs have absolute sum
// mass (as computed in float64) over r pattern rows and are all integer
// multiples of 2^grain.
//
// The Theorem-3 comparison cost2_j < cost1_j, with each cost summed over
// ascending rows from +0, equals F_j > 0 in exact arithmetic, where F_j
// is T_j's field at sigma_V = sign(x_V): cost1_j − cost2_j
// = sum_i (sigma1_i − sigma2_i)·Delta_ij/2 = 2·F_j. In floating point the
// two agree whenever |F_j| > B_j, with B_j bounding the rounding of F_j
// plus half that of cost1_j − cost2_j.
//
// B_j is 0 when no sum rounds at all: if every cost is a multiple of
// g = 2^grain, every Delta is a multiple of g, every q = Delta/4 a
// multiple of g/4, and every partial sum of either cost sum (at most
// mass/g units of g) or of the field (at most 2·mass/g units of g/4) is
// an integer below 2^53 in those units once mass <= 2^50·g — the check
// below keeps a factor of 4 over the 2^52 needed, which covers the
// rounding of mass itself. Delta then is exact, q = Delta/4 is exact
// because g/4 >= 2^-1074, and both computations are exact, so they agree
// everywhere, ties (F_j = 0) included. The uniform distribution behind
// every golden, Table 1 and Fig. 4 is such a case: costs are integers
// times 2^-n.
//
// Otherwise, with u = 2^-53 and S = sum_i (|cost0_ij| + |cost1_ij|):
// Delta rounds by at most u·(|cost0| + |cost1|) and q = Delta/4 by at most
// 2^-1075 (only when it underflows), so the exact-Delta field differs from
// the one built from the stored q by at most u/2·S + r·2^-1074; the 2r-term
// field sum rounds by at most (2r−1)·u·(1+ε)·S/2; each r-term cost sum by
// at most (r−1)·u·(1+ε)·S, so half their difference by (r−1)·u·(1+ε)·S.
// The total stays below 2r·u·S plus the underflow term; B_j doubles both,
// which also covers the rounding of the float64 mass and of B_j itself.
// A non-finite mass returns +Inf: such a column always recomputes.
func theorem3Bound(mass float64, grain, r int) float64 {
	if math.IsInf(mass, 0) || math.IsNaN(mass) {
		return math.Inf(1)
	}
	// A positive mass has a nonzero cost, so grain is at most 1023.
	if mass == 0 || grain >= -1072 && mass <= math.Ldexp(1, grain+50) {
		return 0
	}
	return float64(4*r)*0x1p-53*mass + float64(2*r)*0x1p-1074
}

// NumSpins returns c + 2r.
func (f *Formulation) NumSpins() int { return f.COP.C + 2*f.COP.R }

// TIndex returns the spin index of T_j.
func (f *Formulation) TIndex(j int) int { return j }

// V1Index returns the spin index of V1_i.
func (f *Formulation) V1Index(i int) int { return f.COP.C + i }

// V2Index returns the spin index of V2_i.
func (f *Formulation) V2Index(i int) int { return f.COP.C + f.COP.R + i }

// DecodeSpins converts a ±1 spin vector into a column setting via the
// paper's linear transformation b = (sigma+1)/2.
func (f *Formulation) DecodeSpins(sigma []int8) *decomp.ColSetting {
	s := decomp.NewColSetting(f.COP.Part)
	for j := 0; j < f.COP.C; j++ {
		s.T.Set(j, sigma[f.TIndex(j)] > 0)
	}
	for i := 0; i < f.COP.R; i++ {
		s.V1.Set(i, sigma[f.V1Index(i)] > 0)
		s.V2.Set(i, sigma[f.V2Index(i)] > 0)
	}
	return s
}

// EncodeSetting converts a column setting into a ±1 spin vector.
func (f *Formulation) EncodeSetting(s *decomp.ColSetting) []int8 {
	sigma := make([]int8, f.NumSpins())
	for j := 0; j < f.COP.C; j++ {
		sigma[f.TIndex(j)] = ising.BinaryToSpin(s.T.Bit(j))
	}
	for i := 0; i < f.COP.R; i++ {
		sigma[f.V1Index(i)] = ising.BinaryToSpin(s.V1.Bit(i))
		sigma[f.V2Index(i)] = ising.BinaryToSpin(s.V2.Bit(i))
	}
	return sigma
}

// patternsFromPositions reads the V1/V2 patterns implied by the signs of
// the continuous SB positions: x >= 0 is 1, so NaN is 0.
func (f *Formulation) patternsFromPositions(x []float64, v1, v2 *bitvec.Vector) {
	for i := 0; i < f.COP.R; i++ {
		v1.Set(i, x[f.V1Index(i)] >= 0)
		v2.Set(i, x[f.V2Index(i)] >= 0)
	}
}

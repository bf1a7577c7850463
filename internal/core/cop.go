// Package core implements the paper's primary contribution: the
// column-based approximate disjoint decomposition and its second-order
// Ising formulation solved by ballistic simulated bifurcation.
//
// The column-based core COP (Section 3.1) optimizes, for one component
// function g_k under a fixed input partition w, the column patterns
// V1, V2 in {0,1}^r and the column-type vector T in {0,1}^c so that the
// approximate matrix O-hat_ij = (1-T_j) V1_i + T_j V2_i (Eq. 3) minimizes
// a weighted error. The package expresses both objective modes through
// per-entry costs cost(i, j, v) — the penalty of approximating entry
// (i, j) with value v:
//
//   - separate mode (Eq. 4): cost(i,j,v) = p_kij * |v - O_kij|, the
//     component's error rate;
//   - joint mode (Eq. 10): cost(i,j,v) = p_kij * |2^{k-1} v + D_kij|, the
//     whole-word mean error distance given the other components' current
//     approximations (the case split of Eqs. 12-15 is exactly this value
//     for binary v, which the tests verify).
//
// From the costs the package derives the Ising model (Eqs. 9/16), the
// Theorem-3 conditional optimum used by the intervention heuristic, a
// deterministic alternating-minimization reference solver, and the
// bSB-based solver with the paper's two improvement strategies.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"isinglut/internal/bitvec"
	"isinglut/internal/boolmatrix"
	"isinglut/internal/decomp"
	"isinglut/internal/ilp"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// Mode selects the core-COP objective.
type Mode int

const (
	// Separate minimizes the component's own error rate (Section 3.2.1).
	Separate Mode = iota
	// Joint minimizes the whole-output mean error distance given the other
	// components' current approximations (Section 3.2.2).
	Joint
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Separate:
		return "separate"
	case Joint:
		return "joint"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// COP is a column-based core COP instance: per-entry approximation costs
// for one component function under one partition.
type COP struct {
	Part *partition.Partition
	R, C int
	// Cost0[i*C+j] / Cost1[i*C+j] are the costs of O-hat_ij = 0 / 1.
	Cost0, Cost1 []float64
}

// NewSeparateCOP builds the separate-mode instance (Eq. 4) from the
// component's Boolean matrix.
func NewSeparateCOP(m *boolmatrix.Matrix) *COP {
	r, c := m.Rows(), m.Cols()
	cop := &COP{Part: m.Partition(), R: r, C: c,
		Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	for i := 0; i < r; i++ {
		base := i * c
		for j := 0; j < c; j++ {
			p := m.Prob(i, j)
			if m.Value(i, j) == 1 {
				cop.Cost0[base+j] = p // approximating a 1 with 0 costs p
			} else {
				cop.Cost1[base+j] = p
			}
		}
	}
	return cop
}

// NewJointCOP builds the joint-mode instance (Eq. 10) for component k
// (0-based; significance 2^k). exact is the reference function; approx
// holds the current approximations of all components — components not yet
// optimized must equal their exact versions, which reproduces the paper's
// first-round treatment. dist may be nil (uniform).
func NewJointCOP(part *partition.Partition, k int, exact, approx *truthtable.Table, dist prob.Distribution) *COP {
	n := exact.NumInputs()
	if part.NumVars() != n {
		panic(fmt.Sprintf("core: partition over %d vars, function over %d", part.NumVars(), n))
	}
	if dist == nil {
		dist = prob.NewUniform(n)
	}
	mOut := exact.NumOutputs()
	weight := float64(uint64(1) << uint(k)) // 2^{k-1} with the paper's 1-based k
	exactWords, approxWords := componentWords(exact), componentWords(approx)
	r, c := part.Rows(), part.Cols()
	cop := &COP{Part: part, R: r, C: c,
		Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	// D_kij = sum_{l != k} 2^l approx_l(x) - sum_l 2^l exact_l(x). Up to 53
	// outputs every partial sum of the float loop in jointDiffFloat is an
	// integer below 2^53, so that loop is exact and equals the integer
	// difference, which jointDiffTable builds for every input at once.
	// The table lives in Cost1 (there are at least 2^n cells); a first
	// pass moves each reachable cell's D into Cost0. Wider tables run the
	// loop itself: its sums may round.
	table := mOut <= 53
	if table {
		d := cop.Cost1[:1<<n]
		jointDiffTable(d, k, exactWords, approxWords)
		for i := 0; i < r; i++ {
			row := cop.Cost0[i*c : i*c+c]
			for j := range row {
				if part.Valid(i, j) {
					row[j] = d[part.Global(i, j)]
				}
			}
		}
	}
	for i := 0; i < r; i++ {
		base := i * c
		for j := 0; j < c; j++ {
			if !part.Valid(i, j) {
				cop.Cost1[base+j] = 0 // unreachable cell: zero cost either way
				continue
			}
			x := part.Global(i, j)
			p := dist.P(x)
			var d float64
			if table {
				d = cop.Cost0[base+j]
			} else {
				d = jointDiffFloat(x, k, exactWords, approxWords)
			}
			cop.Cost0[base+j] = p * math.Abs(d)
			cop.Cost1[base+j] = p * math.Abs(weight+d)
		}
	}
	return cop
}

// jointDiffTable adds, for every input x, D(x) = sum_{l != k} 2^l
// approx_l(x) - sum_l 2^l exact_l(x) onto d[x] (len(d) = 2^n, zeroed by
// the caller), for at most 53 outputs, where every partial sum is an
// integer below 2^53 and so exact. It works through the packed words 64
// inputs at a time: an output l != k adds 2^l where approx_l is 1 and
// exact_l is 0, and subtracts it where the reverse holds; output k
// subtracts 2^k where exact_k is 1. Outputs on which the two tables
// agree cost one word comparison each. Bits past 2^n are zero in the
// packed words, so every index stays below len(d).
func jointDiffTable(d []float64, k int, exactWords, approxWords [][]uint64) {
	for l, ew := range exactWords {
		unit := float64(uint64(1) << uint(l))
		aw := approxWords[l][:len(ew)]
		for w, e := range ew {
			up, down := aw[w]&^e, e&^aw[w]
			if l == k {
				up, down = 0, e
			}
			block := d[64*w : min(64*w+64, len(d))]
			for ; up != 0; up &= up - 1 {
				block[bits.TrailingZeros64(up)] += unit
			}
			for ; down != 0; down &= down - 1 {
				block[bits.TrailingZeros64(down)] -= unit
			}
		}
	}
}

// jointDiffFloat is D(x) summed in float64 in ascending output order, for
// tables too wide for jointDiffTable.
func jointDiffFloat(x uint64, k int, exactWords, approxWords [][]uint64) float64 {
	word, shift := x>>6, x&63
	var d float64
	for l, ew := range exactWords {
		w := float64(uint64(1) << uint(l))
		if l != k && approxWords[l][word]>>shift&1 == 1 {
			d += w
		}
		if ew[word]>>shift&1 == 1 {
			d -= w
		}
	}
	return d
}

// componentWords returns the packed truth-table words of every output of
// t, indexed by output then by x/64.
func componentWords(t *truthtable.Table) [][]uint64 {
	words := make([][]uint64, t.NumOutputs())
	for l := range words {
		words[l] = t.Component(l).Words()
	}
	return words
}

// EntryCost returns cost(i, j, v).
func (cop *COP) EntryCost(i, j, v int) float64 {
	if v == 0 {
		return cop.Cost0[i*cop.C+j]
	}
	return cop.Cost1[i*cop.C+j]
}

// Delta returns cost1 - cost0 at (i, j): the coefficient of O-hat_ij in
// the linearized objective (p_kij (1-2O_kij) in separate mode, p_kij q_kij
// in joint mode).
func (cop *COP) Delta(i, j int) float64 {
	idx := i*cop.C + j
	return cop.Cost1[idx] - cop.Cost0[idx]
}

// SettingCost evaluates the objective on a column setting.
func (cop *COP) SettingCost(s *decomp.ColSetting) float64 {
	if !s.Part.Equal(cop.Part) {
		panic("core: SettingCost partition mismatch")
	}
	total := 0.0
	for i := 0; i < cop.R; i++ {
		for j := 0; j < cop.C; j++ {
			total += cop.EntryCost(i, j, s.EntryValue(i, j))
		}
	}
	return total
}

// ConstantTerm returns sum_ij cost0, the objective value of the all-zero
// approximation; SettingCost = ConstantTerm + sum over entries approximated
// as 1 of Delta.
func (cop *COP) ConstantTerm() float64 {
	total := 0.0
	for _, v := range cop.Cost0 {
		total += v
	}
	return total
}

// RowInstance reinterprets the same per-entry costs as a row-based core
// COP for the ilp baseline solver (DALTA-ILP optimizes the identical
// objective over the row-based setting space).
func (cop *COP) RowInstance() ilp.Instance {
	return ilp.Instance{R: cop.R, C: cop.C, Cost0: cop.Cost0, Cost1: cop.Cost1}
}

// OptimalT fills dst with the Theorem-3 conditional optimum: given column
// patterns V1 and V2, each column independently selects the pattern with
// the smaller cost (ties prefer pattern 1, i.e. T_j = 0). dst must have
// length C; V1 and V2 length R. It returns the resulting objective value.
// Each call allocates 2C floats of scratch; hot loops hold a buffer and
// call optimalTInto.
func (cop *COP) OptimalT(v1, v2, dst *bitvec.Vector) float64 {
	return cop.optimalTInto(v1, v2, dst, make([]float64, 2*cop.C))
}

// optimalTInto is OptimalT with caller-owned scratch (length >= 2C). It
// streams the cost rows in storage order into per-column sums instead of
// scanning columns at a C-float stride. Each column sum still adds its
// entries in ascending row order from +0, so the result is bit-identical
// to a column-by-column scan.
func (cop *COP) optimalTInto(v1, v2, dst *bitvec.Vector, scratch []float64) float64 {
	if v1.Len() != cop.R || v2.Len() != cop.R || dst.Len() != cop.C {
		panic("core: OptimalT dimension mismatch")
	}
	c := cop.C
	cost1, cost2 := scratch[:c], scratch[c:2*c]
	clear(cost1)
	clear(cost2)
	for i := 0; i < cop.R; i++ {
		row1, row2 := cop.Cost0[i*c:i*c+c], cop.Cost0[i*c:i*c+c]
		if v1.Get(i) {
			row1 = cop.Cost1[i*c : i*c+c]
		}
		if v2.Get(i) {
			row2 = cop.Cost1[i*c : i*c+c]
		}
		// Re-slicing to len(row1) lets the range variable prove every
		// access in-bounds.
		r2, s1, s2 := row2[:len(row1)], cost1[:len(row1)], cost2[:len(row1)]
		for j, v := range row1 {
			s1[j] += v
			s2[j] += r2[j]
		}
	}
	total := 0.0
	for j := 0; j < c; j++ {
		if cost2[j] < cost1[j] {
			dst.Set(j, true)
			total += cost2[j]
		} else {
			dst.Set(j, false)
			total += cost1[j]
		}
	}
	return total
}

// columnCosts returns column j's two Theorem-3 pattern costs, each summed
// over ascending rows from +0 exactly as optimalTInto sums them: row i
// adds Cost1 where its sign is positive and Cost0 otherwise.
func (cop *COP) columnCosts(j int, signs1, signs2 []float64) (cost1, cost2 float64) {
	c := cop.C
	for i, s1 := range signs1[:cop.R] {
		idx := i*c + j
		if s1 > 0 {
			cost1 += cop.Cost1[idx]
		} else {
			cost1 += cop.Cost0[idx]
		}
		if signs2[i] > 0 {
			cost2 += cop.Cost1[idx]
		} else {
			cost2 += cop.Cost0[idx]
		}
	}
	return cost1, cost2
}

// OptimalV fills v1 and v2 with the conditional optimum given T: row i of
// pattern 1 minimizes the summed cost over columns with T_j = 0, and
// pattern 2 over columns with T_j = 1 (rows are independent given T).
// Rows with no selecting column keep value 0. It returns the resulting
// objective value.
func (cop *COP) OptimalV(t, v1, v2 *bitvec.Vector) float64 {
	if v1.Len() != cop.R || v2.Len() != cop.R || t.Len() != cop.C {
		panic("core: OptimalV dimension mismatch")
	}
	total := 0.0
	for i := 0; i < cop.R; i++ {
		base := i * cop.C
		z1, o1, z2, o2 := 0.0, 0.0, 0.0, 0.0
		for j := 0; j < cop.C; j++ {
			if t.Get(j) {
				z2 += cop.Cost0[base+j]
				o2 += cop.Cost1[base+j]
			} else {
				z1 += cop.Cost0[base+j]
				o1 += cop.Cost1[base+j]
			}
		}
		if o1 < z1 {
			v1.Set(i, true)
			total += o1
		} else {
			v1.Set(i, false)
			total += z1
		}
		if o2 < z2 {
			v2.Set(i, true)
			total += o2
		} else {
			v2.Set(i, false)
			total += z2
		}
	}
	return total
}

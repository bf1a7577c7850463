package core

import (
	"math"
	"math/bits"

	"isinglut/internal/bitvec"
	"isinglut/internal/boolmatrix"
	"isinglut/internal/decomp"
	"isinglut/internal/errmetric"
	"isinglut/internal/ising"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// This file keeps the bit-serial loops that the word-parallel passes of a
// decomposition replaced, as references: FuzzDecompositionPasses pins
// every pass to its loop bit for bit.

// jointCOPRef is the joint-mode COP build as a D table scattered bit by
// bit, moved into the cells, then costed cell by cell.
func jointCOPRef(part *partition.Partition, k int, exact, approx *truthtable.Table, dist prob.Distribution) *COP {
	n := exact.NumInputs()
	if dist == nil {
		dist = prob.NewUniform(n)
	}
	mOut := exact.NumOutputs()
	weight := float64(uint64(1) << uint(k))
	exactWords, approxWords := componentWords(exact), componentWords(approx)
	r, c := part.Rows(), part.Cols()
	cop := &COP{Part: part, R: r, C: c,
		Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	table := mOut <= 53
	if table {
		d := cop.Cost1[:1<<n]
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
				cop.Cost1[base+j] = 0
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

// formulateRef is Formulate storing Q one column at a time.
func formulateRef(cop *COP) *Formulation {
	r, c := cop.R, cop.C
	n := c + 2*r
	coup := ising.NewTwin(c, r)
	h := make([]float64, n)
	q := make([]float64, c)
	mass := make([]float64, c)
	grain := make([]int, c)
	for j := range grain {
		grain[j] = math.MaxInt
	}
	offset := 0.0
	for i := 0; i < r; i++ {
		base := i * c
		hi := 0.0
		for j := 0; j < c; j++ {
			c0, c1 := cop.Cost0[base+j], cop.Cost1[base+j]
			delta := c1 - c0
			qij := delta / 4
			offset += c0 + delta/2
			hi -= qij
			q[j] = qij
			mass[j] += math.Abs(c0) + math.Abs(c1)
			grain[j] = min(grain[j], ising.LowBitExp(c0), ising.LowBitExp(c1))
		}
		h[c+i], h[c+r+i] = hi, hi
		coup.SetColumn(i, q)
	}
	for j, m := range mass {
		mass[j] = theorem3Bound(m, grain[j], r)
	}
	prob, err := ising.NewProblem(coup, h, offset)
	if err != nil {
		panic(err)
	}
	return &Formulation{COP: cop, Problem: prob, tBound: mass}
}

// settingCostRef sums EntryCost over the cells row-major.
func settingCostRef(cop *COP, s *decomp.ColSetting) float64 {
	total := 0.0
	for i := 0; i < cop.R; i++ {
		for j := 0; j < cop.C; j++ {
			total += cop.EntryCost(i, j, s.EntryValue(i, j))
		}
	}
	return total
}

// colTableRef sets, column by column, the input of every reachable cell
// whose selected pattern (v1 where t is 0, v2 where it is 1) holds a 1:
// ColSetting.ApproxTable over (t, v1, v2) and Decomposition.Recompose
// over (Phi, F0, F1).
func colTableRef(p *partition.Partition, t, v1, v2 *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(1 << uint(p.NumVars()))
	for j := 0; j < p.Cols(); j++ {
		pat := v1
		if t.Get(j) {
			pat = v2
		}
		for i := 0; i < p.Rows(); i++ {
			if pat.Get(i) && p.Valid(i, j) {
				out.Set(int(p.Global(i, j)), true)
			}
		}
	}
	return out
}

// rowTableRef is RowSetting.ApproxTable cell by cell.
func rowTableRef(s *decomp.RowSetting) *bitvec.Vector {
	p := s.Part
	out := bitvec.New(1 << uint(p.NumVars()))
	for i := 0; i < p.Rows(); i++ {
		for j := 0; j < p.Cols(); j++ {
			if s.EntryValue(i, j) == 1 && p.Valid(i, j) {
				out.Set(int(p.Global(i, j)), true)
			}
		}
	}
	return out
}

// decomposableRef builds the Boolean matrix and runs the column test.
func decomposableRef(tt *bitvec.Vector, part *partition.Partition) bool {
	_, ok := decomp.CheckColDecomposable(boolmatrix.Build(tt, part, nil))
	return ok
}

// evaluateRef is Evaluate reading every differing input's outputs bit by
// bit and adding its P to each differing component in turn.
func evaluateRef(exact, approx *truthtable.Table, dist prob.Distribution) errmetric.Report {
	if dist == nil {
		dist = prob.NewUniform(exact.NumInputs())
	}
	m := exact.NumOutputs()
	rep := errmetric.Report{BitER: make([]float64, m)}
	var ew, aw [64]uint64
	for base := uint64(0); base < exact.Size(); base += 64 {
		w := int(base >> 6)
		var d uint64
		for k := 0; k < m; k++ {
			ew[k], aw[k] = exact.Component(k).Words()[w], approx.Component(k).Words()[w]
			d |= ew[k] ^ aw[k]
		}
		for ; d != 0; d &= d - 1 {
			j := uint(bits.TrailingZeros64(d))
			var a, b uint64
			for k := 0; k < m; k++ {
				a |= (ew[k] >> j & 1) << uint(k)
				b |= (aw[k] >> j & 1) << uint(k)
			}
			p := dist.P(base + uint64(j))
			rep.ER += p
			var ed uint64
			if a > b {
				ed = a - b
			} else {
				ed = b - a
			}
			rep.MED += p * float64(ed)
			if ed > rep.WorstED {
				rep.WorstED = ed
			}
			diff := a ^ b
			for k := 0; k < m; k++ {
				if diff&(1<<uint(k)) != 0 {
					rep.BitER[k] += p
				}
			}
		}
	}
	return rep
}

// componentERRef scans every input with Table.Bit.
func componentERRef(exact, approx *truthtable.Table, k int, dist prob.Distribution) float64 {
	if dist == nil {
		dist = prob.NewUniform(exact.NumInputs())
	}
	er := 0.0
	for x := uint64(0); x < exact.Size(); x++ {
		if exact.Bit(k, x) != approx.Bit(k, x) {
			er += dist.P(x)
		}
	}
	return er
}

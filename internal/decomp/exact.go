package decomp

import (
	"isinglut/internal/bitvec"
	"isinglut/internal/boolmatrix"
	"isinglut/internal/partition"
)

// CheckRowDecomposable tests Theorem 1: the function represented by the
// matrix has an exact disjoint decomposition over the matrix's partition
// iff its rows take at most four types {all-0, all-1, V, ~V}. On success
// it returns a witness row setting that reproduces the matrix exactly.
func CheckRowDecomposable(m *boolmatrix.Matrix) (*RowSetting, bool) {
	if !m.Partition().Disjoint() {
		panic("decomp: CheckRowDecomposable requires a disjoint partition")
	}
	r, c := m.Rows(), m.Cols()
	setting := &RowSetting{
		Part: m.Partition(),
		V:    bitvec.New(c),
		S:    make([]RowType, r),
	}
	var pattern *bitvec.Vector // the fixed pattern V once discovered
	for i := 0; i < r; i++ {
		row := m.Row(i)
		switch {
		case row.IsZero():
			setting.S[i] = RowZero
		case row.IsOnes():
			setting.S[i] = RowOne
		case pattern == nil:
			pattern = row
			setting.S[i] = RowPattern
		case row.Equal(pattern):
			setting.S[i] = RowPattern
		case row.Equal(pattern.Not()):
			setting.S[i] = RowComplement
		default:
			return nil, false
		}
	}
	if pattern != nil {
		setting.V = pattern
	}
	return setting, true
}

// CheckColDecomposable tests Theorem 2: the function has an exact disjoint
// decomposition over the partition iff the matrix has at most two distinct
// column types. On success it returns a witness column setting that
// reproduces the matrix exactly (if only one distinct column exists, both
// patterns are set to it).
func CheckColDecomposable(m *boolmatrix.Matrix) (*ColSetting, bool) {
	if !m.Partition().Disjoint() {
		panic("decomp: CheckColDecomposable requires a disjoint partition")
	}
	c := m.Cols()
	setting := NewColSetting(m.Partition())
	var pat1, pat2 *bitvec.Vector
	for j := 0; j < c; j++ {
		col := m.Col(j)
		switch {
		case pat1 == nil:
			pat1 = col
		case col.Equal(pat1):
			// type 0, nothing to do
		case pat2 == nil:
			pat2 = col
			setting.T.Set(j, true)
		case col.Equal(pat2):
			setting.T.Set(j, true)
		default:
			return nil, false
		}
	}
	if pat1 != nil {
		setting.V1.CopyFrom(pat1)
	}
	if pat2 != nil {
		setting.V2.CopyFrom(pat2)
	} else if pat1 != nil {
		setting.V2.CopyFrom(pat1) // degenerate: a single column type
	}
	return setting, true
}

// Decomposable reports whether the component with truth table tt has an
// exact disjoint decomposition over part. It uses the column-based test
// (at most two distinct columns), on whole words of the matrix's rows.
func Decomposable(tt *bitvec.Vector, part *partition.Partition) bool {
	if !part.Disjoint() {
		panic("decomp: Decomposable requires a disjoint partition")
	}
	return twoColumnTypes(tt, part)
}

// Decomposition is the synthesized pair of sub-functions of a disjoint
// decomposition g(X) = F(phi(B), A).
//
//   - Phi is the truth table of phi over the bound set: Phi bit j is
//     phi(column-j assignment of B). It has c = 2^|B| bits.
//   - F0/F1 give F(t, i) for t = 0 and 1 over the free set: F0 bit i is
//     F(0, row-i assignment of A). Each has r = 2^|A| bits.
//
// Total storage is c + 2r bits versus r*c for the flat table.
type Decomposition struct {
	Part *partition.Partition
	Phi  *bitvec.Vector // length c
	F0   *bitvec.Vector // length r
	F1   *bitvec.Vector // length r
}

// Synthesize converts a column setting into the phi/F pair: phi's table is
// T and F(t, i) selects V1_i or V2_i.
func (s *ColSetting) Synthesize() *Decomposition {
	return &Decomposition{
		Part: s.Part,
		Phi:  s.T.Clone(),
		F0:   s.V1.Clone(),
		F1:   s.V2.Clone(),
	}
}

// Synthesize converts a row setting into the phi/F pair: phi's table is V
// and F(t, i) is 0, 1, t, or 1-t by row type.
func (s *RowSetting) Synthesize() *Decomposition {
	r := s.Part.Rows()
	d := &Decomposition{
		Part: s.Part,
		Phi:  s.V.Clone(),
		F0:   bitvec.New(r),
		F1:   bitvec.New(r),
	}
	for i, t := range s.S {
		switch t {
		case RowOne:
			d.F0.Set(i, true)
			d.F1.Set(i, true)
		case RowPattern:
			d.F1.Set(i, true)
		case RowComplement:
			d.F0.Set(i, true)
		}
	}
	return d
}

// Eval computes F(phi(B-part of x), A-part of x) for a global pattern x.
func (d *Decomposition) Eval(x uint64) int {
	j := d.Part.ColOf(x)
	i := d.Part.RowOf(x)
	if d.Phi.Get(j) {
		return d.F1.Bit(i)
	}
	return d.F0.Bit(i)
}

// Recompose materializes the full truth table of F(phi(B), A): the
// matrix whose column j is F1 where phi_j = 1 and F0 elsewhere, the
// column setting (F0, F1, Phi).
func (d *Decomposition) Recompose() *bitvec.Vector {
	return rowTypeTable(d.Part, d.Phi, func(i int) RowType { return colRowType(d.F0, d.F1, i) })
}

// Bits returns the total LUT storage of the decomposition in bits
// (c + 2r), the quantity the paper's Fig. 1 motivates minimizing.
func (d *Decomposition) Bits() int {
	return d.Phi.Len() + d.F0.Len() + d.F1.Len()
}

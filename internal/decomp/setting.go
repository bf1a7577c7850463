// Package decomp implements disjoint Boolean decomposition: the exact
// row-based (Theorem 1) and column-based (Theorem 2) decomposability
// conditions, decomposition settings, extraction of the sub-functions
// phi and F, and recomposition g(X) = F(phi(B), A).
//
// A decomposition setting fixes, for one component function under one
// input partition, the free parameters the core COP optimizes:
//
//   - row-based:    (V, S)       — row pattern and per-row types (Thm 1)
//   - column-based: (V1, V2, T)  — two column patterns and per-column
//     type bits (Thm 2, the paper's contribution)
//
// Applying a setting yields the approximate matrix O-hat via Eq. (3) (or
// its row analogue) and, through the partition, the approximate component
// truth table.
package decomp

import (
	"fmt"

	"isinglut/internal/bitvec"
	"isinglut/internal/boolmatrix"
	"isinglut/internal/partition"
)

// RowType classifies a row of the Boolean matrix per Theorem 1.
type RowType uint8

const (
	// RowZero is a row of all 0s (type 1 in the paper).
	RowZero RowType = iota
	// RowOne is a row of all 1s (type 2).
	RowOne
	// RowPattern is a row equal to the fixed pattern V (type 3).
	RowPattern
	// RowComplement is a row equal to the complement of V (type 4).
	RowComplement
)

// String implements fmt.Stringer.
func (t RowType) String() string {
	switch t {
	case RowZero:
		return "0"
	case RowOne:
		return "1"
	case RowPattern:
		return "V"
	case RowComplement:
		return "~V"
	}
	return fmt.Sprintf("RowType(%d)", uint8(t))
}

// RowSetting is a row-based decomposition setting (w, V, S): the pattern V
// has one bit per column and S assigns each row one of the four types.
type RowSetting struct {
	Part *partition.Partition
	V    *bitvec.Vector // length c
	S    []RowType      // length r
}

// Validate checks internal consistency against the partition dimensions.
func (s *RowSetting) Validate() error {
	if s.Part == nil {
		return fmt.Errorf("decomp: RowSetting has nil partition")
	}
	if s.V == nil || s.V.Len() != s.Part.Cols() {
		return fmt.Errorf("decomp: RowSetting V length %d != c=%d", lenOrNeg(s.V), s.Part.Cols())
	}
	if len(s.S) != s.Part.Rows() {
		return fmt.Errorf("decomp: RowSetting S length %d != r=%d", len(s.S), s.Part.Rows())
	}
	for i, t := range s.S {
		if t > RowComplement {
			return fmt.Errorf("decomp: RowSetting S[%d] invalid type %d", i, t)
		}
	}
	return nil
}

// EntryValue returns the approximate value O-hat at cell (i, j) implied by
// the setting.
func (s *RowSetting) EntryValue(i, j int) int {
	switch s.S[i] {
	case RowZero:
		return 0
	case RowOne:
		return 1
	case RowPattern:
		return s.V.Bit(j)
	default: // RowComplement
		return 1 - s.V.Bit(j)
	}
}

// ColSetting is a column-based decomposition setting (w, V1, V2, T): two
// column patterns of r bits each and a per-column type vector of c bits
// (T_j = 0 selects pattern 1, T_j = 1 selects pattern 2), per Eq. (3).
type ColSetting struct {
	Part *partition.Partition
	V1   *bitvec.Vector // length r, column pattern 1
	V2   *bitvec.Vector // length r, column pattern 2
	T    *bitvec.Vector // length c, column types
}

// NewColSetting allocates an all-zero column setting for the partition.
func NewColSetting(p *partition.Partition) *ColSetting {
	return &ColSetting{
		Part: p,
		V1:   bitvec.New(p.Rows()),
		V2:   bitvec.New(p.Rows()),
		T:    bitvec.New(p.Cols()),
	}
}

// Validate checks internal consistency against the partition dimensions.
func (s *ColSetting) Validate() error {
	if s.Part == nil {
		return fmt.Errorf("decomp: ColSetting has nil partition")
	}
	r, c := s.Part.Rows(), s.Part.Cols()
	if s.V1 == nil || s.V1.Len() != r {
		return fmt.Errorf("decomp: ColSetting V1 length %d != r=%d", lenOrNeg(s.V1), r)
	}
	if s.V2 == nil || s.V2.Len() != r {
		return fmt.Errorf("decomp: ColSetting V2 length %d != r=%d", lenOrNeg(s.V2), r)
	}
	if s.T == nil || s.T.Len() != c {
		return fmt.Errorf("decomp: ColSetting T length %d != c=%d", lenOrNeg(s.T), c)
	}
	return nil
}

// Clone returns a deep copy of the setting.
func (s *ColSetting) Clone() *ColSetting {
	return &ColSetting{Part: s.Part, V1: s.V1.Clone(), V2: s.V2.Clone(), T: s.T.Clone()}
}

// EntryValue returns O-hat at cell (i, j) per Eq. (3):
// (1-T_j)*V1_i + T_j*V2_i.
func (s *ColSetting) EntryValue(i, j int) int {
	if s.T.Get(j) {
		return s.V2.Bit(i)
	}
	return s.V1.Bit(i)
}

func lenOrNeg(v *bitvec.Vector) int {
	if v == nil {
		return -1
	}
	return v.Len()
}

// ApproxTable materializes the approximate component truth table (2^n
// bits) implied by a column setting.
func (s *ColSetting) ApproxTable() *bitvec.Vector {
	return rowTypeTable(s.Part, s.T, func(i int) RowType { return colRowType(s.V1, s.V2, i) })
}

// ApproxTable materializes the approximate component truth table implied
// by a row setting.
func (s *RowSetting) ApproxTable() *bitvec.Vector {
	return rowTypeTable(s.Part, s.V, func(i int) RowType { return s.S[i] })
}

// ToColSetting converts a row setting into the equivalent column setting
// describing the same approximate matrix. Row types map to column
// patterns: column j selects pattern V2 when V_j = 1 and V1 otherwise;
// V1_i is the matrix value of row i in columns with V_j = 0, which is 0
// for RowZero, 1 for RowOne, 0 for RowPattern (V_j = 0 there) and 1 for
// RowComplement; V2 is the mirror.
func (s *RowSetting) ToColSetting() *ColSetting {
	c := NewColSetting(s.Part)
	for j := 0; j < s.Part.Cols(); j++ {
		c.T.Set(j, s.V.Get(j))
	}
	for i, t := range s.S {
		switch t {
		case RowOne:
			c.V1.Set(i, true)
			c.V2.Set(i, true)
		case RowPattern:
			c.V2.Set(i, true) // columns where V_j=1 hold 1
		case RowComplement:
			c.V1.Set(i, true) // columns where V_j=0 hold 1
		}
	}
	return c
}

// SettingError computes the weighted error of the approximate matrix
// implied by a column setting against the exact matrix:
// sum_ij p_ij * |O-hat_ij - O_ij| (Eq. 4). The matrix must be built over
// the same partition.
func SettingError(m *boolmatrix.Matrix, s *ColSetting) float64 {
	if !m.Partition().Equal(s.Part) {
		panic("decomp: SettingError partition mismatch")
	}
	total := 0.0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if s.EntryValue(i, j) != m.Value(i, j) {
				total += m.Prob(i, j)
			}
		}
	}
	return total
}

// RowSettingError is SettingError for row settings.
func RowSettingError(m *boolmatrix.Matrix, s *RowSetting) float64 {
	if !m.Partition().Equal(s.Part) {
		panic("decomp: RowSettingError partition mismatch")
	}
	total := 0.0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if s.EntryValue(i, j) != m.Value(i, j) {
				total += m.Prob(i, j)
			}
		}
	}
	return total
}

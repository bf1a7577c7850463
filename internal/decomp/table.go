package decomp

import (
	"fmt"
	"math/bits"
	"slices"

	"isinglut/internal/bitvec"
	"isinglut/internal/partition"
)

// colRowType returns the type of row i of a column setting's matrix,
// whose cell (i, j) is V2_i where T_j = 1 and V1_i elsewhere (Eq. 3):
// constant when the patterns agree on row i, else T (V2_i = 1) or its
// complement (V1_i = 1) — Theorem 1's row types, with T as the pattern.
func colRowType(v1, v2 *bitvec.Vector, i int) RowType {
	switch a, b := v1.Get(i), v2.Get(i); {
	case a == b && a:
		return RowOne
	case a == b:
		return RowZero
	case b:
		return RowPattern
	default:
		return RowComplement
	}
}

// rowTypeTable materializes the truth table (2^n bits) of the Boolean
// matrix under part whose row i is all-0, all-1, pat or its complement as
// kind(i) says; pat has one bit per column.
//
// Under a disjoint partition the matrix, stored row-major one bit per
// cell, is a permutation of the table's bits (partition.CellBits), so
// the rows are filled a word at a time and permuted into the table in
// O(n) passes over its words. An overlapping partition's matrix has
// cells no input reaches; its table comes from the per-cell loop, in
// which every reachable cell holding a 1 sets its input's bit.
func rowTypeTable(part *partition.Partition, pat *bitvec.Vector, kind func(i int) RowType) *bitvec.Vector {
	n := part.NumVars()
	out := bitvec.New(1 << uint(n))
	r, c := part.Rows(), part.Cols()
	if !part.Disjoint() {
		for i := 0; i < r; i++ {
			k := kind(i)
			for j := 0; j < c; j++ {
				one := k == RowOne || k == RowPattern && pat.Get(j) || k == RowComplement && !pat.Get(j)
				if one && part.Valid(i, j) {
					out.Set(int(part.Global(i, j)), true)
				}
			}
		}
		return out
	}
	cells, pw := out.Words(), pat.Words()
	for i := 0; i < r; i++ {
		// Row i is (pat AND keep) XOR flip.
		keep, flip := ^uint64(0), uint64(0)
		switch kind(i) {
		case RowZero:
			continue
		case RowOne:
			keep, flip = 0, ^uint64(0)
		case RowComplement:
			flip = ^uint64(0)
		}
		if c < 64 { // 64/c rows per word
			at := i * c
			cells[at>>6] |= ((pw[0]&keep ^ flip) & (1<<uint(c) - 1)) << uint(at&63)
			continue
		}
		row := cells[i*(c>>6) : (i+1)*(c>>6)]
		for w, v := range pw[:len(row)] {
			row[w] = v&keep ^ flip
		}
	}
	bitvec.PermuteIndex(cells, n, cellToInput(part))
	return out
}

// inputToCell returns, for a disjoint partition, the input variable
// behind each bit of a cell index, so that PermuteIndex(table, n,
// inputToCell(part)) turns a truth table into its Boolean matrix.
func inputToCell(part *partition.Partition) []int {
	from := make([]int, part.NumVars())
	for b, cell := range part.CellBits() {
		from[bits.TrailingZeros64(cell)] = b
	}
	return from
}

// cellToInput returns, for a disjoint partition, the cell-index bit
// behind each input variable: the permutation from a Boolean matrix back
// to its truth table.
func cellToInput(part *partition.Partition) []int {
	from := make([]int, part.NumVars())
	for b, cell := range part.CellBits() {
		from[b] = bits.TrailingZeros64(cell)
	}
	return from
}

// twoColumnTypes reports whether the Boolean matrix of tt under the
// disjoint partition part has at most two distinct columns (Theorem 2).
// It permutes tt into the row-major cell bits and works on whole row
// words: K marks the columns that differ from column 0 in some row, and
// the matrix passes when every row is constant on K.
func twoColumnTypes(tt *bitvec.Vector, part *partition.Partition) bool {
	n := part.NumVars()
	if tt.Len() != 1<<uint(n) {
		panic(fmt.Sprintf("decomp: truth table has %d bits, partition wants %d", tt.Len(), 1<<uint(n)))
	}
	cells := slices.Clone(tt.Words())
	bitvec.PermuteIndex(cells, n, inputToCell(part))
	r, c := part.Rows(), part.Cols()
	wpr := max(1, c>>6) // words per row
	mask := ^uint64(0)
	if c < 64 {
		mask = 1<<uint(c) - 1
	}
	// row returns word w of row i.
	row := func(i, w int) uint64 {
		if c < 64 {
			at := i * c
			return cells[at>>6] >> uint(at&63) & mask
		}
		return cells[i*wpr+w]
	}
	// bcast spreads bit j of row i over a row word.
	bcast := func(i, j int) uint64 { return -(row(i, j>>6) >> uint(j&63) & 1) & mask }
	k := make([]uint64, wpr)
	for i := 0; i < r; i++ {
		b := bcast(i, 0)
		for w := range k {
			k[w] |= row(i, w) ^ b
		}
	}
	j1 := -1 // the first column of the second type
	for w, v := range k {
		if v != 0 {
			j1 = w<<6 + bits.TrailingZeros64(v)
			break
		}
	}
	if j1 < 0 {
		return true
	}
	for i := 0; i < r; i++ {
		b := bcast(i, j1)
		for w, v := range k {
			if (row(i, w)^b)&v != 0 {
				return false
			}
		}
	}
	return true
}

package bitvec

import "fmt"

// lowIndexBit[b] selects, in a 64-bit word, the positions whose bit b is
// set: the bits of the elements whose in-word index has bit b set.
var lowIndexBit = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// PermuteIndex reorders the 2^n bits packed in words (64 per word, LSB
// first, as Words stores them) in place by permuting the bits of their
// indices: the bit at index x moves to index y, where bit s of y is bit
// from[s] of x. from must be a permutation of 0..n-1, and words must hold
// exactly max(1, 2^n/64) words; for n < 6 the bits past 2^n stay put.
//
// It runs as at most n-1 swaps of two index bits, each one pass over the
// words: a masked shift within each word when both index bits are below
// 6, a masked shift between word pairs when one is, and a swap of whole
// words otherwise. A Boolean matrix under a disjoint partition is such a
// permutation of its function's truth table (see
// partition.Partition.CellBits).
func PermuteIndex(words []uint64, n int, from []int) {
	if len(from) != n || len(words) != max(1, (1<<n)/64) {
		panic(fmt.Sprintf("bitvec: PermuteIndex of %d words over %d index bits with %d sources", len(words), n, len(from)))
	}
	// cur[s] is the original index bit now at position s; pos inverts it.
	cur := make([]int, n)
	pos := make([]int, n)
	for s := range cur {
		cur[s], pos[s] = s, s
	}
	seen := 0
	for _, f := range from {
		if f < 0 || f >= n || seen>>f&1 != 0 {
			panic(fmt.Sprintf("bitvec: PermuteIndex sources %v are not a permutation", from))
		}
		seen |= 1 << f
	}
	for s, f := range from {
		if t := pos[f]; t != s {
			swapIndexBits(words, s, t)
			cur[s], cur[t] = cur[t], cur[s]
			pos[cur[s]], pos[cur[t]] = s, t
		}
	}
}

// swapIndexBits exchanges index bits p < q of the packed bits: the bit at
// every index with bit p set and bit q clear trades places with the bit
// at the index that has them the other way round.
func swapIndexBits(words []uint64, p, q int) {
	switch {
	case q < 6:
		d := uint(1)<<q - uint(1)<<p
		m := lowIndexBit[p] &^ lowIndexBit[q]
		for i, w := range words {
			t := (w>>d ^ w) & m
			words[i] = w ^ t ^ t<<d
		}
	case p < 6:
		d := uint(1) << p
		m := ^lowIndexBit[p]
		stride := 1 << (q - 6)
		for lo := 0; lo < len(words); lo += 2 * stride {
			a, b := words[lo:lo+stride], words[lo+stride:lo+2*stride]
			for i, w := range a {
				t := (w>>d ^ b[i]) & m
				b[i] ^= t
				a[i] = w ^ t<<d
			}
		}
	default:
		lowStride, highStride := 1<<(p-6), 1<<(q-6)
		for w := range words {
			if w&lowStride != 0 && w&highStride == 0 {
				v := w - lowStride + highStride
				words[w], words[v] = words[v], words[w]
			}
		}
	}
}

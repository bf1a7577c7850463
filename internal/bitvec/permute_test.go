package bitvec

import (
	"math/rand"
	"testing"
)

// TestPermuteIndexMatchesBitLoop: for every n up to 12 and random
// permutations (the identity, one swap, random ones), PermuteIndex moves
// each bit x to the index whose bit s is bit from[s] of x, as a loop over
// the bits does, and leaves the bits past 2^n of a short vector zero.
func TestPermuteIndexMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 12; n++ {
		for trial := 0; trial < 6; trial++ {
			from := rng.Perm(n)
			switch {
			case trial == 0:
				for s := range from {
					from[s] = s
				}
			case trial == 1 && n >= 2:
				for s := range from {
					from[s] = s
				}
				p, q := rng.Intn(n), rng.Intn(n)
				from[p], from[q] = from[q], from[p]
			}
			v := New(1 << n)
			for i := 0; i < v.Len(); i++ {
				v.Set(i, rng.Intn(2) == 1)
			}
			want := New(1 << n)
			for x := 0; x < v.Len(); x++ {
				y := 0
				for s, b := range from {
					y |= (x >> b & 1) << s
				}
				want.Set(y, v.Get(x))
			}
			got := v.Clone()
			PermuteIndex(got.Words(), n, from)
			if !got.Equal(want) {
				t.Fatalf("n=%d from=%v: got %v, want %v", n, from, got, want)
			}
		}
	}
}

func TestPermuteIndexRejectsNonPermutation(t *testing.T) {
	for _, from := range [][]int{{0, 0, 1}, {0, 1, 3}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PermuteIndex(n=3, from=%v) did not panic", from)
				}
			}()
			PermuteIndex(make([]uint64, 1), 3, from)
		}()
	}
}

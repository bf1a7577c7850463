package truthtable

import (
	"math/rand"
	"testing"
)

// TestOutputWordsMatchesOutput: every lane width the transpose picks (m
// up to 16, 32 and 64), whole and partial 64-input blocks, and 0 past
// Size.
func TestOutputWordsMatchesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 3, 6, 8} {
		for _, m := range []int{1, 5, 16, 17, 32, 33, 63} {
			tt := Random(n, m, rng)
			var got [64]uint64
			for w := 0; w < max(1, int(tt.Size())/64); w++ {
				tt.OutputWords(w, &got)
				for j, v := range got {
					x := uint64(w*64 + j)
					want := uint64(0)
					if x < tt.Size() {
						want = tt.Output(x)
					}
					if v != want {
						t.Fatalf("n=%d m=%d: OutputWords(%d)[%d] = %#x, Output = %#x", n, m, w, j, v, want)
					}
				}
			}
		}
	}
}

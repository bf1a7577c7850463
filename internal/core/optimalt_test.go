package core

import (
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/bitvec"
)

// optimalTColumnScan is the column-by-column Theorem-3 reference: each
// column's two pattern costs summed in ascending row order, ties to
// pattern 1 (T_j = 0).
func optimalTColumnScan(cop *COP, v1, v2, dst *bitvec.Vector) float64 {
	total := 0.0
	for j := 0; j < cop.C; j++ {
		cost1, cost2 := 0.0, 0.0
		for i := 0; i < cop.R; i++ {
			cost1 += cop.EntryCost(i, j, v1.Bit(i))
			cost2 += cop.EntryCost(i, j, v2.Bit(i))
		}
		if cost2 < cost1 {
			dst.Set(j, true)
			total += cost2
		} else {
			dst.Set(j, false)
			total += cost1
		}
	}
	return total
}

// tieCOP draws an r×c COP whose costs are small multiples of 1/8, so
// distinct patterns often tie exactly on a column.
func tieCOP(rng *rand.Rand, r, c int) *COP {
	cop := &COP{R: r, C: c, Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	for i := range cop.Cost0 {
		cop.Cost0[i] = float64(rng.Intn(3)) / 8
		cop.Cost1[i] = float64(rng.Intn(3)) / 8
	}
	return cop
}

func randomBits(rng *rand.Rand, n int) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, rng.Intn(2) == 1)
	}
	return v
}

// TestOptimalTIntoMatchesColumnScan pins the row-streaming Theorem-3
// kernel to the column scan: identical T bits and identical bits of the
// returned total, including exact cost1 == cost2 ties (where T_j must
// stay 0) and scratch that arrives dirty and longer than 2C.
func TestOptimalTIntoMatchesColumnScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		var cop *COP
		if trial%2 == 0 {
			cop, _ = randomSeparateCOP(rng)
		} else {
			cop = tieCOP(rng, 1+rng.Intn(9), 1+rng.Intn(70))
		}
		v1 := randomBits(rng, cop.R)
		v2 := randomBits(rng, cop.R)
		allTie := trial%5 == 0
		if allTie {
			v2.CopyFrom(v1) // every column ties
		}
		scratch := make([]float64, 2*cop.C+3)
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		got, want := randomBits(rng, cop.C), randomBits(rng, cop.C)
		gotTotal := cop.optimalTInto(v1, v2, got, scratch)
		wantTotal := optimalTColumnScan(cop, v1, v2, want)
		if math.Float64bits(gotTotal) != math.Float64bits(wantTotal) {
			t.Fatalf("trial %d: total %v (%#x) != column scan %v (%#x)", trial,
				gotTotal, math.Float64bits(gotTotal), wantTotal, math.Float64bits(wantTotal))
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: T %v != column scan %v", trial, got, want)
		}
		if allTie && got.OnesCount() != 0 {
			t.Fatalf("trial %d: %d columns left pattern 1 on an all-tie instance", trial, got.OnesCount())
		}
		// The exported wrapper is the same computation.
		wrapped := bitvec.New(cop.C)
		if total := cop.OptimalT(v1, v2, wrapped); math.Float64bits(total) != math.Float64bits(wantTotal) || !wrapped.Equal(want) {
			t.Fatalf("trial %d: OptimalT (%v, %v) != column scan (%v, %v)", trial, total, wrapped, wantTotal, want)
		}
	}
}

// TestTheorem3HookAllocFree: the hook owns its pattern vectors and
// column-sum scratch, so a call at a sample point allocates nothing.
func TestTheorem3HookAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cop := tieCOP(rng, 16, 64)
	f := Formulate(cop)
	hook := theorem3Hook(f)
	n := f.NumSpins()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	if allocs := testing.AllocsPerRun(50, func() { hook(10, x, y) }); allocs != 0 {
		t.Fatalf("Theorem-3 hook allocates %.1f times per call, want 0", allocs)
	}
}

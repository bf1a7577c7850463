package core

import (
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/benchfn"
	"isinglut/internal/bitvec"
	"isinglut/internal/partition"
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

// TestTheorem3HookAllocFree: the hook owns its sign and field scratch,
// so a call at a sample point allocates nothing — also when c is not a
// multiple of the coupler's 32-row panels, and on a non-dyadic COP,
// where columns fall back to their cost sums.
func TestTheorem3HookAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, cop := range []*COP{tieCOP(rng, 16, 64), tieCOP(rng, 9, 70), decimalTieCOP(rng, 7, 45)} {
		f := Formulate(cop)
		hook := theorem3Hook(f)
		n := f.NumSpins()
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.Float64()*2-1, rng.Float64()*2-1
		}
		if allocs := testing.AllocsPerRun(50, func() { hook(10, x, y) }); allocs != 0 {
			t.Fatalf("%d×%d: Theorem-3 hook allocates %.1f times per call, want 0", cop.R, cop.C, allocs)
		}
	}
}

// TestTheorem3BoundExactness pins when the hook may trust a zero
// field: lowBitExp finds the grain of normal, subnormal and zero costs,
// columns of dyadic costs get B_j = 0 (the uniform-distribution case),
// non-dyadic ones a positive finite bound, and a column with a
// non-finite cost +Inf.
func TestTheorem3BoundExactness(t *testing.T) {
	for v, want := range map[float64]int{
		1: 0, 3: 0, 6: 1, 0.375: -3, -0.375: -3, 0x1p-16 * 5: -16,
		math.SmallestNonzeroFloat64: -1074, 3 * math.SmallestNonzeroFloat64: -1074,
		0x1p-1022: -1022, 0.1: -55,
	} {
		if got := lowBitExp(v); got != want {
			t.Errorf("lowBitExp(%v) = %d, want %d", v, got, want)
		}
	}
	if lowBitExp(0) != math.MaxInt || lowBitExp(math.Copysign(0, -1)) != math.MaxInt {
		t.Error("lowBitExp(±0) is not MaxInt")
	}
	rng := rand.New(rand.NewSource(16))
	for j, b := range Formulate(tieCOP(rng, 16, 40)).tBound {
		if b != 0 {
			t.Fatalf("dyadic column %d: bound %v, want 0", j, b)
		}
	}
	dec := decimalTieCOP(rng, 16, 40)
	for j, b := range Formulate(dec).tBound {
		zero := true
		for i := 0; i < dec.R; i++ {
			zero = zero && dec.Cost0[i*dec.C+j] == 0 && dec.Cost1[i*dec.C+j] == 0
		}
		if !zero && !(b > 0 && !math.IsInf(b, 0)) {
			t.Fatalf("decimal column %d: bound %v, want positive and finite", j, b)
		}
	}
	dec.Cost1[3] = math.Inf(1)
	if b := Formulate(dec).tBound[3]; !math.IsInf(b, 1) {
		t.Fatalf("column with an Inf cost: bound %v, want +Inf", b)
	}
}

// decimalTieCOP draws an r×c COP whose costs are multiples of 0.1: not
// multiples of one power of two, so the Theorem-3 column sums round. A
// third of the cells have cost0 == cost1, and the rest draw from few
// values, so columns often tie exactly or up to rounding.
func decimalTieCOP(rng *rand.Rand, r, c int) *COP {
	cop := &COP{R: r, C: c, Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	for i := range cop.Cost0 {
		cop.Cost0[i] = float64(rng.Intn(8)) * 0.1
		if rng.Intn(3) == 0 {
			cop.Cost1[i] = cop.Cost0[i]
		} else {
			cop.Cost1[i] = float64(rng.Intn(8)) * 0.1
		}
	}
	return cop
}

// nearTiePositions draws SB positions for a formulation: the V1 signs at
// random (with exact ±0 and NaN among them), and each V2 position a copy
// of its V1 position with probability same, so that V1 == V2 patterns
// (same = 1) and patterns differing in a few rows come up.
func nearTiePositions(rng *rand.Rand, f *Formulation, same float64) []float64 {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), 1, -1}
	x := make([]float64, f.NumSpins())
	for i := range x {
		x[i] = rng.Float64()*2 - 1
		if rng.Intn(8) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	for i := 0; i < f.COP.R; i++ {
		if rng.Float64() < same {
			x[f.V2Index(i)] = x[f.V1Index(i)]
		}
	}
	return x
}

// TestTheorem3HookMatchesCostSums is the differential test of the
// Theorem-3 hook's sign rule against the cost sums it replaces: on COPs
// whose costs are multiples of 0.1 (so the sums round and many columns
// sit at or next to a tie), for random positions with V1 == V2 patterns,
// near-equal patterns and NaN positions, the hook must clamp every T
// spin to optimalTInto's bit and zero its momentum.
func TestTheorem3HookMatchesCostSums(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	shapes := [][2]int{{128, 512}, {16, 32}, {5, 3}, {9, 70}, {1, 1}, {33, 40}}
	for _, s := range shapes {
		r, c := s[0], s[1]
		for k, cop := range []*COP{decimalTieCOP(rng, r, c), tieCOP(rng, r, c)} {
			f := Formulate(cop)
			hook := theorem3Hook(f)
			v1, v2, want := bitvec.New(r), bitvec.New(r), bitvec.New(c)
			scratch := make([]float64, 2*c)
			draws := 200
			if r*c > 10000 {
				draws = 40
			}
			for d := 0; d < draws; d++ {
				same := []float64{1, 0.98, 0.9, 0.5, 0}[d%5]
				x := nearTiePositions(rng, f, same)
				f.patternsFromPositions(x, v1, v2)
				cop.optimalTInto(v1, v2, want, scratch)
				y := make([]float64, len(x))
				for i := range y {
					y[i] = 1
				}
				hook(0, x, y)
				for j := 0; j < c; j++ {
					if got := x[f.TIndex(j)] > 0; got != want.Get(j) || x[f.TIndex(j)] != 1 && x[f.TIndex(j)] != -1 {
						t.Fatalf("%d×%d cop %d draw %d (same=%v): T_%d clamped to %v, cost sums say %v",
							r, c, k, d, same, j, x[f.TIndex(j)], want.Get(j))
					}
					if y[f.TIndex(j)] != 0 {
						t.Fatalf("%d×%d draw %d: T_%d momentum %v, want 0", r, c, d, j, y[f.TIndex(j)])
					}
				}
			}
		}
	}
}

// BenchmarkTheorem3N16 times one Theorem-3 reset on the Fig. 4 COP
// (component 8 of the 16-input multiplier, 7 free variables: r = 128,
// c = 512) at fixed random positions: the column cost sums (pattern
// read-off plus optimalTInto) against the hook's sign of the T-side
// field (sign vector, one FieldU product, the bound checks and the
// clamp).
func BenchmarkTheorem3N16(b *testing.B) {
	exact, err := benchfn.Build("multiplier", 16)
	if err != nil {
		b.Fatal(err)
	}
	part := partition.Random(16, 7, rand.New(rand.NewSource(3)))
	cop := NewJointCOP(part, 8, exact, exact.Clone(), nil)
	f := Formulate(cop)
	rng := rand.New(rand.NewSource(4))
	x, y := make([]float64, f.NumSpins()), make([]float64, f.NumSpins())
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	shape := "512x128"
	b.Run("costsums/"+shape, func(b *testing.B) {
		v1, v2, t := bitvec.New(cop.R), bitvec.New(cop.R), bitvec.New(cop.C)
		scratch := make([]float64, 2*cop.C)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.patternsFromPositions(x, v1, v2)
			cop.optimalTInto(v1, v2, t, scratch)
		}
	})
	b.Run("fieldsign/"+shape, func(b *testing.B) {
		hook := theorem3Hook(f)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hook(0, x, y)
		}
	})
}

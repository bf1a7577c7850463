package errmetric

import (
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

func TestIdenticalTablesZeroError(t *testing.T) {
	tt := truthtable.Random(6, 4, rand.New(rand.NewSource(1)))
	rep := MustEvaluate(tt, tt.Clone(), nil)
	if rep.ER != 0 || rep.MED != 0 || rep.WorstED != 0 {
		t.Fatalf("nonzero error for identical tables: %+v", rep)
	}
	for k, e := range rep.BitER {
		if e != 0 {
			t.Fatalf("BitER[%d] = %g", k, e)
		}
	}
}

func TestSingleFlipUniform(t *testing.T) {
	exact := truthtable.New(4, 3)
	approx := exact.Clone()
	approx.SetBit(2, 5, true) // flips output bit 2 (weight 4) at pattern 5
	rep := MustEvaluate(exact, approx, nil)
	if math.Abs(rep.ER-1.0/16) > 1e-12 {
		t.Errorf("ER = %g", rep.ER)
	}
	if math.Abs(rep.MED-4.0/16) > 1e-12 {
		t.Errorf("MED = %g", rep.MED)
	}
	if rep.WorstED != 4 {
		t.Errorf("WorstED = %d", rep.WorstED)
	}
	if rep.BitER[2] != 1.0/16 || rep.BitER[0] != 0 {
		t.Errorf("BitER = %v", rep.BitER)
	}
}

func TestShapeMismatch(t *testing.T) {
	if _, err := Evaluate(truthtable.New(4, 3), truthtable.New(4, 4), nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Evaluate(truthtable.New(4, 3), truthtable.New(5, 3), nil); err == nil {
		t.Error("input mismatch accepted")
	}
	if _, err := Evaluate(truthtable.New(4, 3), truthtable.New(4, 3), prob.NewUniform(5)); err == nil {
		t.Error("distribution mismatch accepted")
	}
}

func TestERBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		a := truthtable.Random(5, 4, rng)
		b := truthtable.Random(5, 4, rng)
		rep := MustEvaluate(a, b, nil)
		if rep.ER < 0 || rep.ER > 1+1e-12 {
			t.Fatalf("ER out of range: %g", rep.ER)
		}
		maxMED := float64(uint64(1)<<4 - 1)
		if rep.MED < 0 || rep.MED > maxMED {
			t.Fatalf("MED out of range: %g", rep.MED)
		}
		if float64(rep.WorstED) < rep.MED {
			t.Fatalf("WorstED %d below MED %g", rep.WorstED, rep.MED)
		}
	}
}

func TestMEDMatchesManualSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	exact := truthtable.Random(5, 3, rng)
	approx := truthtable.Random(5, 3, rng)
	dist := prob.RandomWeighted(5, rng)
	want := 0.0
	for x := uint64(0); x < 32; x++ {
		d := int64(exact.Output(x)) - int64(approx.Output(x))
		if d < 0 {
			d = -d
		}
		want += dist.P(x) * float64(d)
	}
	if got := MED(exact, approx, dist); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MED = %g, want %g", got, want)
	}
}

func TestComponentER(t *testing.T) {
	exact := truthtable.New(3, 2)
	approx := exact.Clone()
	approx.SetBit(1, 0, true)
	approx.SetBit(1, 1, true)
	if got := ComponentER(exact, approx, 1, nil); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ComponentER = %g", got)
	}
	if got := ComponentER(exact, approx, 0, nil); got != 0 {
		t.Errorf("untouched component ER = %g", got)
	}
}

func TestBitERSumBoundsER(t *testing.T) {
	// Union bound: ER <= sum BitER; and ER >= max BitER.
	rng := rand.New(rand.NewSource(4))
	a := truthtable.Random(6, 5, rng)
	b := truthtable.Random(6, 5, rng)
	rep := MustEvaluate(a, b, nil)
	sum, maxB := 0.0, 0.0
	for _, e := range rep.BitER {
		sum += e
		if e > maxB {
			maxB = e
		}
	}
	if rep.ER > sum+1e-12 || rep.ER < maxB-1e-12 {
		t.Fatalf("ER %g outside [max %g, sum %g]", rep.ER, maxB, sum)
	}
}

func TestNormalizedMED(t *testing.T) {
	exact := truthtable.New(2, 3)
	approx := exact.Clone()
	for x := uint64(0); x < 4; x++ {
		approx.SetOutput(x, 7) // max error everywhere
	}
	if got := NormalizedMED(exact, approx, nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("NormalizedMED = %g, want 1", got)
	}
}

func TestWeightedZeroProbabilityRegionIgnored(t *testing.T) {
	exact := truthtable.New(3, 2)
	approx := exact.Clone()
	approx.SetOutput(7, 3)
	weights := make([]float64, 8)
	for i := 0; i < 7; i++ {
		weights[i] = 1
	}
	dist, err := prob.NewWeighted(3, weights)
	if err != nil {
		t.Fatal(err)
	}
	rep := MustEvaluate(exact, approx, dist)
	if rep.ER != 0 || rep.MED != 0 {
		t.Fatalf("error counted in zero-probability region: %+v", rep)
	}
	// WorstED is distribution-free by design.
	if rep.WorstED != 3 {
		t.Fatalf("WorstED = %d", rep.WorstED)
	}
}

// evaluateRef is Evaluate as a plain scan over every input, one output
// word at a time, kept as the reference for the word-parallel scan.
func evaluateRef(exact, approx *truthtable.Table, dist prob.Distribution) Report {
	m := exact.NumOutputs()
	rep := Report{BitER: make([]float64, m)}
	for x := uint64(0); x < exact.Size(); x++ {
		p := dist.P(x)
		a, b := exact.Output(x), approx.Output(x)
		if a == b {
			continue
		}
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
	return rep
}

// TestEvaluateMatchesScan pins the word-parallel Evaluate to the plain
// scan bit for bit: uniform and weighted distributions, n from 0 to 10
// (partial and whole 64-input blocks), m up to 63, and approximations
// that differ nowhere, on a few scattered inputs, on whole blocks or
// almost everywhere.
func TestEvaluateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 5, 6, 7, 9, 10} {
		for _, m := range []int{1, 2, 7, 16, 40, 63} {
			// flip < 0 flips one bit of every input in every third
			// 64-input block, so whole blocks agree and whole blocks differ.
			for _, flip := range []float64{0, 0.01, 0.3, 1, -1} {
				exact := truthtable.Random(n, m, rng)
				approx := exact.Clone()
				for x := uint64(0); x < exact.Size(); x++ {
					if rng.Float64() < flip || flip < 0 && (x>>6)%3 == 1 {
						k := rng.Intn(m)
						approx.SetBit(k, x, exact.Bit(k, x) == 0)
					}
				}
				for _, dist := range []prob.Distribution{prob.NewUniform(n), prob.RandomWeighted(n, rng)} {
					got, want := MustEvaluate(exact, approx, dist), evaluateRef(exact, approx, dist)
					same := math.Float64bits(got.ER) == math.Float64bits(want.ER) &&
						math.Float64bits(got.MED) == math.Float64bits(want.MED) && got.WorstED == want.WorstED
					for k := range want.BitER {
						same = same && math.Float64bits(got.BitER[k]) == math.Float64bits(want.BitER[k])
					}
					if !same {
						t.Fatalf("n=%d m=%d flip=%v %T: Evaluate %+v, scan %+v", n, m, flip, dist, got, want)
					}
				}
			}
		}
	}
}

package core

import (
	"math"
	"math/rand"

	"isinglut/internal/bitvec"
	"isinglut/internal/decomp"
)

// AltMin runs alternating minimization on the COP from the given initial
// setting: repeat (OptimalT given V1,V2) then (OptimalV given T) until the
// objective stops improving or maxIters alternations elapse. Each half
// step is a conditional optimum, so the objective is monotonically
// non-increasing and the fixed point is a coordinate-wise local minimum.
// It returns the final setting and objective value.
//
// AltMin is the deterministic reference solver: fast, reproducible, and a
// quality floor the stochastic solvers are benchmarked against.
func AltMin(cop *COP, init *decomp.ColSetting, maxIters int) (*decomp.ColSetting, float64) {
	s := init.Clone()
	cost := cop.SettingCost(s)
	prev := s.Clone()
	sums := make([]float64, 2*cop.C) // optimalTInto scratch, reused across alternations
	for iter := 0; iter < maxIters; iter++ {
		cop.optimalTInto(s.V1, s.V2, s.T, sums)
		cost = cop.OptimalV(s.T, s.V1, s.V2)
		// Terminate on a true fixed point. Comparing states rather than
		// costs matters: tie-breaking can move the setting across a cost
		// plateau (e.g. from a V1 == V2 start) into a region where the
		// next alternation improves strictly.
		if s.V1.Equal(prev.V1) && s.V2.Equal(prev.V2) && s.T.Equal(prev.T) {
			break
		}
		prev.V1.CopyFrom(s.V1)
		prev.V2.CopyFrom(s.V2)
		prev.T.CopyFrom(s.T)
	}
	return s, cost
}

// SeedSetting builds a reasonable starting point for local search: T
// splits the columns by their agreement with the first column's dominant
// pattern, then one OptimalV pass fills the patterns.
func SeedSetting(cop *COP) *decomp.ColSetting {
	s := decomp.NewColSetting(cop.Part)
	// Reference pattern: per-row conditional optimum over all columns.
	ref := bitvec.New(cop.R)
	for i := 0; i < cop.R; i++ {
		base := i * cop.C
		z, o := 0.0, 0.0
		for j := 0; j < cop.C; j++ {
			z += cop.Cost0[base+j]
			o += cop.Cost1[base+j]
		}
		ref.Set(i, o < z)
	}
	// Column j joins group 2 when the reference pattern fits it badly.
	for j := 0; j < cop.C; j++ {
		fit, misfit := 0.0, 0.0
		for i := 0; i < cop.R; i++ {
			fit += cop.EntryCost(i, j, ref.Bit(i))
			misfit += cop.EntryCost(i, j, 1-ref.Bit(i))
		}
		s.T.Set(j, misfit < fit)
	}
	cop.OptimalV(s.T, s.V1, s.V2)
	return s
}

// RandomSetting draws a uniformly random column setting; used to seed
// restarts and property tests.
func RandomSetting(cop *COP, rng *rand.Rand) *decomp.ColSetting {
	s := decomp.NewColSetting(cop.Part)
	for i := 0; i < cop.R; i++ {
		s.V1.Set(i, rng.Intn(2) == 1)
		s.V2.Set(i, rng.Intn(2) == 1)
	}
	for j := 0; j < cop.C; j++ {
		s.T.Set(j, rng.Intn(2) == 1)
	}
	return s
}

// BruteForce exhaustively minimizes the COP. It panics when 2r + c > 22;
// it exists to validate the other solvers on tiny instances.
func BruteForce(cop *COP) (*decomp.ColSetting, float64) {
	bits := 2*cop.R + cop.C
	if bits > 22 {
		panic("core: BruteForce instance too large")
	}
	best := decomp.NewColSetting(cop.Part)
	bestCost := math.Inf(1)
	cur := decomp.NewColSetting(cop.Part)
	total := uint64(1) << uint(bits)
	for mask := uint64(0); mask < total; mask++ {
		for i := 0; i < cop.R; i++ {
			cur.V1.Set(i, mask&(1<<uint(i)) != 0)
			cur.V2.Set(i, mask&(1<<uint(cop.R+i)) != 0)
		}
		for j := 0; j < cop.C; j++ {
			cur.T.Set(j, mask&(1<<uint(2*cop.R+j)) != 0)
		}
		if cost := cop.SettingCost(cur); cost < bestCost {
			bestCost = cost
			best = cur.Clone()
		}
	}
	return best, bestCost
}

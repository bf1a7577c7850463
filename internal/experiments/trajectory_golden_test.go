package experiments

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"math/rand"

	"isinglut/internal/benchfn"
	"isinglut/internal/core"
	"isinglut/internal/dalta"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/sb"
)

// spinHash is the FNV-1a digest of a ±1 spin vector.
func spinHash(spins []int8) uint64 {
	h := fnv.New64a()
	for _, s := range spins {
		h.Write([]byte{byte(s)})
	}
	return h.Sum64()
}

// weightedCOP is SampleCOP's joint-mode instance under a random
// non-uniform input distribution (prob.RandomWeighted). Its costs are
// not multiples of one power of two, so the column sums behind the
// Theorem-3 heuristic round, unlike the uniform instances'.
func weightedCOP(name string, n, k, freeSize int, seed int64) (*core.COP, error) {
	exact, err := benchfn.Build(name, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	part := partition.Random(n, freeSize, rng)
	return core.NewJointCOP(part, k, exact, exact.Clone(), prob.RandomWeighted(n, rng)), nil
}

// TestSolveTrajectoryGolden pins real solver trajectories bit for bit:
// the exact Cost and Energy bits, iteration and sample counts, stop
// reason and a spin hash of core-COP solves across SB variants with the
// Theorem-3 heuristic on and off (uniform and weighted input
// distributions), plus the MED/ER bits of two
// quick-scale DALTA runs. Unlike the render goldens, which format
// synthetic rows, this file changes whenever any arithmetic on the
// paper's path changes order — a kernel optimization must leave it
// untouched. Regenerate only for an intended change in the dynamics:
//
//	go test ./internal/experiments -run TrajectoryGolden -update
func TestSolveTrajectoryGolden(t *testing.T) {
	type copCase struct {
		name     string
		cop      func() (*core.COP, error)
		variants []sb.Variant
		thm3     []bool // nil: both
		seeds    []int64
	}
	cases := []copCase{
		{
			name:     "fig4/multiplier-n16-k8",
			cop:      func() (*core.COP, error) { return SampleCOP("multiplier", 16, 8, 7, core.Joint, 3) },
			variants: []sb.Variant{sb.Ballistic, sb.Discrete},
			seeds:    []int64{1, 2},
		},
		{
			name:     "cos-n9-k3-joint",
			cop:      func() (*core.COP, error) { return SampleCOP("cos", 9, 3, 4, core.Joint, 5) },
			variants: []sb.Variant{sb.Ballistic, sb.Discrete, sb.Adiabatic},
			seeds:    []int64{1, 2, 3},
		},
		{
			name:     "exp-n9-k5-separate",
			cop:      func() (*core.COP, error) { return SampleCOP("exp", 9, 5, 4, core.Separate, 6) },
			variants: []sb.Variant{sb.Ballistic, sb.Discrete, sb.Adiabatic},
			seeds:    []int64{1, 2, 3},
		},
		{
			name:     "weighted/multiplier-n16-k8",
			cop:      func() (*core.COP, error) { return weightedCOP("multiplier", 16, 8, 7, 3) },
			variants: []sb.Variant{sb.Ballistic},
			thm3:     []bool{true},
			seeds:    []int64{1, 2},
		},
		{
			name:     "weighted/cos-n9-k3",
			cop:      func() (*core.COP, error) { return weightedCOP("cos", 9, 3, 4, 5) },
			variants: []sb.Variant{sb.Ballistic},
			thm3:     []bool{true},
			seeds:    []int64{1, 2},
		},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		cop, err := c.cop()
		if err != nil {
			t.Fatal(err)
		}
		thm3s := c.thm3
		if thm3s == nil {
			thm3s = []bool{true, false}
		}
		for _, v := range c.variants {
			for _, thm3 := range thm3s {
				for _, seed := range c.seeds {
					opts := core.DefaultSolverOptions()
					opts.SB = sb.DefaultParamsFor(v)
					opts.SB.Stop = &sb.StopCriteria{F: 10, S: 10, Epsilon: 1e-8}
					opts.SB.Seed = seed
					opts.Theorem3 = thm3
					sol := core.SolveBSB(context.Background(), cop, opts)
					fmt.Fprintf(&buf, "%s %v thm3=%v seed=%d cost=%016x energy=%016x iters=%d samples=%d stopped=%v spins=%016x\n",
						c.name, v, thm3, seed,
						math.Float64bits(sol.Cost), math.Float64bits(sol.SB.Energy),
						sol.SB.Iterations, sol.SB.Samples, sol.SB.Stopped, spinHash(sol.SB.Spins))
				}
			}
		}
	}
	scale := QuickScale(9)
	solver, err := scale.Solver("proposed")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"cos", "exp"} {
		exact, err := benchfn.Build(fn, 9)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dalta.Run(context.Background(), exact, dalta.Config{
			Rounds:     scale.Rounds,
			Partitions: scale.Partitions,
			FreeSize:   4,
			Mode:       core.Joint,
			Solver:     solver,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "dalta %s-n9 quick med=%016x er=%016x\n",
			fn, math.Float64bits(out.Report.MED), math.Float64bits(out.Report.ER))
	}
	checkGolden(t, "trajectory", buf.Bytes())
}

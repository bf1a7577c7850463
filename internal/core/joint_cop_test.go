package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"isinglut/internal/benchfn"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/sb"
	"isinglut/internal/truthtable"
)

// newJointCOPPerBit is the reference joint-mode build: D_kij summed in
// float, one Table.Bit call per output and table, in ascending output
// order. NewJointCOP must reproduce its costs bit for bit.
func newJointCOPPerBit(part *partition.Partition, k int, exact, approx *truthtable.Table, dist prob.Distribution) *COP {
	n := exact.NumInputs()
	if dist == nil {
		dist = prob.NewUniform(n)
	}
	mOut := exact.NumOutputs()
	weight := float64(uint64(1) << uint(k))
	r, c := part.Rows(), part.Cols()
	cop := &COP{Part: part, R: r, C: c,
		Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	for i := 0; i < r; i++ {
		base := i * c
		for j := 0; j < c; j++ {
			if !part.Valid(i, j) {
				continue
			}
			x := part.Global(i, j)
			p := dist.P(x)
			d := 0.0
			for l := 0; l < mOut; l++ {
				w := float64(uint64(1) << uint(l))
				if l != k && approx.Bit(l, x) == 1 {
					d += w
				}
				if exact.Bit(l, x) == 1 {
					d -= w
				}
			}
			cop.Cost0[base+j] = p * math.Abs(d)
			cop.Cost1[base+j] = p * math.Abs(weight+d)
		}
	}
	return cop
}

// TestNewJointCOPMatchesPerBitReference compares NewJointCOP's costs with
// the per-bit float reference, bit for bit, for every component k of
// random tables on both sides of the 53-output exactness bound, under no,
// uniform and weighted distributions and disjoint and overlapping
// partitions. Cells no input reaches must keep cost +0.
func TestNewJointCOPMatchesPerBitReference(t *testing.T) {
	type setup struct {
		name string
		part *partition.Partition
		dist prob.Distribution
	}
	rng := rand.New(rand.NewSource(14))
	for n := 2; n <= 10; n++ {
		for _, m := range []int{1, 2, 7, 16, 53, 54, 63} {
			exact := truthtable.Random(n, m, rng)
			approx := exact.Clone()
			for flips := 0; flips < m<<n/4; flips++ {
				approx.SetBit(rng.Intn(m), uint64(rng.Intn(1<<n)), rng.Intn(2) == 1)
			}
			free := 1 + rng.Intn(n-1)
			disjoint := partition.Random(n, free, rng)
			overlapping := partition.RandomOverlap(n, free, 1+rng.Intn(free), rng)
			weighted := prob.RandomWeighted(n, rng)
			setups := []setup{
				{"disjoint/nil", disjoint, nil},
				{"disjoint/uniform", disjoint, prob.NewUniform(n)},
				{"disjoint/weighted", disjoint, weighted},
				{"overlapping/nil", overlapping, nil},
				{"overlapping/uniform", overlapping, prob.NewUniform(n)},
				{"overlapping/weighted", overlapping, weighted},
			}
			for k := 0; k < m; k++ {
				// Component k meets setup k mod 6, so each table wide
				// enough meets every setup; narrower tables meet all six
				// for every k.
				for si, s := range setups {
					if m >= len(setups) && si != k%len(setups) {
						continue
					}
					label := fmt.Sprintf("n=%d m=%d k=%d %s", n, m, k, s.name)
					assertJointCOPBitIdentical(t, s.part, k, exact, approx, s.dist, label)
				}
			}
		}
	}
}

func assertJointCOPBitIdentical(t *testing.T, part *partition.Partition, k int, exact, approx *truthtable.Table, dist prob.Distribution, label string) {
	t.Helper()
	got := NewJointCOP(part, k, exact, approx, dist)
	want := newJointCOPPerBit(part, k, exact, approx, dist)
	for idx := range want.Cost0 {
		i, j := idx/want.C, idx%want.C
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"Cost0", got.Cost0[idx], want.Cost0[idx]}, {"Cost1", got.Cost1[idx], want.Cost1[idx]}} {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				t.Fatalf("%s: %s(%d,%d) = %v, per-bit reference %v", label, c.name, i, j, c.got, c.want)
			}
			if !part.Valid(i, j) && math.Float64bits(c.got) != 0 {
				t.Fatalf("%s: unreachable cell (%d,%d) has %s %v", label, i, j, c.name, c.got)
			}
		}
	}
}

// BenchmarkNewJointCOPN16 times one joint-mode COP build at the Fig. 4
// size: component 8 of the 16-input multiplier, 7 free variables
// (r = 128, c = 512). The exact row builds it against approx = exact, as
// a run's first solve does; the midrun row against the approximation a
// Fig. 4 run holds when it reaches component 8 (midRunN16).
func BenchmarkNewJointCOPN16(b *testing.B) {
	fx := midRunN16(b)
	for _, bc := range []struct {
		name   string
		approx *truthtable.Table
	}{{"exact", fx.exact}, {"midrun", fx.approx}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchCOP = NewJointCOP(fx.part, fx.k, fx.exact, bc.approx, nil)
			}
		})
	}
}

// BenchmarkFormulateN16 times the Ising formulation of the mid-run Fig. 4
// COP (midRunN16): Formulate allocating its twin, as a caller outside a
// solve does, and formulateInto filling a recycled one, as SolveBSB does.
func BenchmarkFormulateN16(b *testing.B) {
	fx := midRunN16(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchForm = Formulate(fx.cop)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		coup := getTwin(fx.cop.C, fx.cop.R)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchForm = formulateInto(fx.cop, coup)
		}
	})
}

var (
	benchCOP  *COP
	benchForm *Formulation
)

// midRunFixture is a Fig. 4 joint COP as a run meets it mid-way.
type midRunFixture struct {
	exact, approx *truthtable.Table
	part          *partition.Partition
	k             int
	cop           *COP
}

var (
	midRunOnce sync.Once
	midRun     midRunFixture
)

// midRunN16 returns the 16-input multiplier with components 15 down to 9
// replaced by bSB core solves (joint mode, each under its own random
// 7-variable free set, the quick-scale stop rule), as a Fig. 4 run holds
// it when it reaches component 8, and that component's COP under
// BenchmarkNewJointCOPN16's partition. It is built once per process.
func midRunN16(b *testing.B) *midRunFixture {
	b.Helper()
	midRunOnce.Do(func() {
		exact, err := benchfn.Build("multiplier", 16)
		if err != nil {
			panic(err)
		}
		opts := DefaultSolverOptions()
		opts.SB.Steps = 1000
		opts.SB.Stop = &sb.StopCriteria{F: 10, S: 10, Epsilon: 1e-8}
		rng := rand.New(rand.NewSource(21))
		approx := exact.Clone()
		for k := 15; k > 8; k-- {
			opts.SB.Seed = rng.Int63()
			cop := NewJointCOP(partition.Random(16, 7, rng), k, exact, approx, nil)
			approx.SetComponent(k, SolveBSB(context.Background(), cop, opts).Setting.ApproxTable())
		}
		part := partition.Random(16, 7, rand.New(rand.NewSource(3)))
		midRun = midRunFixture{exact: exact, approx: approx, part: part, k: 8,
			cop: NewJointCOP(part, 8, exact, approx, nil)}
	})
	b.ResetTimer()
	return &midRun
}

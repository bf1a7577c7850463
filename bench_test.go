// Benchmark harness regenerating the paper's evaluation (see
// EXPERIMENTS.md for measured results and paper comparison):
//
//	BenchmarkTable1Separate  - Table 1, separate mode (n = 9): DALTA-ILP
//	                           vs the proposed Ising solver, per function.
//	BenchmarkTable1Joint     - Table 1, joint mode (n = 9): DALTA,
//	                           DALTA-ILP, BA and the proposed solver.
//	BenchmarkFig4            - Figure 4 (n = 16, joint): proposed vs DALTA
//	                           on all ten benchmarks; the MED ratio and
//	                           time ratio are the paper's two series.
//	BenchmarkAblation*       - Section 3.3 design choices: dynamic stop
//	                           on/off, Theorem-3 heuristic on/off, SB
//	                           variants, bipartite vs dense coupling.
//
// Every sub-benchmark reports the achieved MED as a custom metric next to
// the timing, so a single `go test -bench . -benchmem` run produces both
// of the paper's reported quantities (accuracy and runtime). Benches run
// at reduced budgets (P, R, ILP cap) that preserve the comparisons'
// shape; use cmd/exptables -paper for full-scale runs.
package isinglut_test

import (
	"context"
	"fmt"
	"testing"

	"isinglut/internal/anneal"
	"isinglut/internal/benchfn"
	"isinglut/internal/core"
	"isinglut/internal/dalta"
	"isinglut/internal/experiments"
	"isinglut/internal/hobo"
	"isinglut/internal/ising"
	"isinglut/internal/sb"
)

// benchScale keeps individual sub-benchmarks around a second.
func benchScale(n int) experiments.Scale {
	s := experiments.QuickScale(n)
	s.Partitions = 2
	s.Rounds = 1
	return s
}

func runFramework(b *testing.B, bench, method string, n, freeSize int, mode core.Mode) {
	b.Helper()
	exact, err := benchfn.Build(bench, n)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale(n)
	solver, err := scale.Solver(method)
	if err != nil {
		b.Fatal(err)
	}
	var med float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := dalta.Run(context.Background(), exact, dalta.Config{
			Rounds:     scale.Rounds,
			Partitions: scale.Partitions,
			FreeSize:   freeSize,
			Mode:       mode,
			Solver:     solver,
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		med = out.Report.MED
	}
	b.ReportMetric(med, "MED")
}

// BenchmarkTable1Separate regenerates Table 1's separate-mode columns.
func BenchmarkTable1Separate(b *testing.B) {
	for _, fn := range []string{"cos", "tan", "exp", "ln", "erf", "denoise"} {
		for _, method := range []string{"dalta-ilp", "proposed"} {
			b.Run(fmt.Sprintf("%s/%s", fn, method), func(b *testing.B) {
				runFramework(b, fn, method, 9, 4, core.Separate)
			})
		}
	}
}

// BenchmarkTable1Joint regenerates Table 1's joint-mode columns.
func BenchmarkTable1Joint(b *testing.B) {
	for _, fn := range []string{"cos", "tan", "exp", "ln", "erf", "denoise"} {
		for _, method := range []string{"dalta", "dalta-ilp", "ba", "proposed"} {
			b.Run(fmt.Sprintf("%s/%s", fn, method), func(b *testing.B) {
				runFramework(b, fn, method, 9, 4, core.Joint)
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: per benchmark, the proposed method
// vs DALTA at n = 16 in joint mode. MED ratio and time ratio per
// benchmark come from dividing the two sub-benchmarks' metrics.
func BenchmarkFig4(b *testing.B) {
	for _, fn := range benchfn.Names() {
		for _, method := range []string{"dalta", "proposed"} {
			b.Run(fmt.Sprintf("%s/%s", fn, method), func(b *testing.B) {
				runFramework(b, fn, method, 16, 7, core.Joint)
			})
		}
	}
}

// sampleCOPs builds representative core-COP instances for solver-level
// ablations: one joint-mode MSB and one mid-bit instance at n = 9.
func sampleCOPs(b *testing.B) []*core.COP {
	b.Helper()
	var cops []*core.COP
	for _, k := range []int{8, 4} {
		cop, err := experiments.SampleCOP("exp", 9, k, 4, core.Joint, 3)
		if err != nil {
			b.Fatal(err)
		}
		cops = append(cops, cop)
	}
	return cops
}

// BenchmarkAblationDynamicStop compares a fixed-iteration bSB run against
// the dynamic stop criterion (Section 3.3.1).
func BenchmarkAblationDynamicStop(b *testing.B) {
	cops := sampleCOPs(b)
	for _, variant := range []string{"fixed-1000", "dynamic-stop"} {
		b.Run(variant, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost = 0
				for _, cop := range cops {
					opts := core.DefaultSolverOptions()
					if variant == "fixed-1000" {
						opts.SB.Stop = nil
						opts.SB.Steps = 1000
					}
					cost += core.SolveBSB(context.Background(), cop, opts).Cost
				}
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// BenchmarkAblationTheorem3 compares bSB with and without the Theorem-3
// intervention heuristic (Section 3.3.2).
func BenchmarkAblationTheorem3(b *testing.B) {
	cops := sampleCOPs(b)
	for _, variant := range []string{"with-t3", "without-t3"} {
		b.Run(variant, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost = 0
				for _, cop := range cops {
					opts := core.DefaultSolverOptions()
					opts.Theorem3 = variant == "with-t3"
					cost += core.SolveBSB(context.Background(), cop, opts).Cost
				}
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// BenchmarkAblationSBVariant compares the three SB update rules and
// simulated annealing on the same core-COP Ising model.
func BenchmarkAblationSBVariant(b *testing.B) {
	cops := sampleCOPs(b)
	for _, v := range []sb.Variant{sb.Ballistic, sb.Adiabatic, sb.Discrete} {
		b.Run(v.String(), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				cost = 0
				for _, cop := range cops {
					params := sb.DefaultParamsFor(v)
					params.Stop = &sb.StopCriteria{F: 20, S: 20, Epsilon: 1e-8}
					sol := core.SolveBSB(context.Background(), cop, core.SolverOptions{SB: params, Theorem3: true})
					cost += sol.Cost
				}
			}
			b.ReportMetric(cost, "cost")
		})
	}
	b.Run("SA", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			cost = 0
			for _, cop := range cops {
				f := core.Formulate(cop)
				res := anneal.Solve(context.Background(), f.Problem, anneal.DefaultParams())
				cost += cop.SettingCost(f.DecodeSpins(res.Spins))
			}
		}
		b.ReportMetric(cost, "cost")
	})
}

// BenchmarkAblationRowVsColumn quantifies the paper's Section 3.1 design
// decision: the same core COP solved through the column-based
// *second-order* Ising model (the contribution) versus the row-based
// *third-order* polynomial model solved with higher-order SB. The
// second-order route should dominate on time at comparable or better
// cost — that is why the column-based decomposition exists.
func BenchmarkAblationRowVsColumn(b *testing.B) {
	cops := sampleCOPs(b)
	b.Run("column-2nd-order", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			cost = 0
			for _, cop := range cops {
				cost += core.SolveBSB(context.Background(), cop, core.DefaultSolverOptions()).Cost
			}
		}
		b.ReportMetric(cost, "cost")
	})
	b.Run("row-3rd-order", func(b *testing.B) {
		params := hobo.DefaultParams()
		params.SampleEvery = 20
		var cost float64
		for i := 0; i < b.N; i++ {
			cost = 0
			for _, cop := range cops {
				_, c := core.SolveRowBSB(cop, params)
				cost += c
			}
		}
		b.ReportMetric(cost, "cost")
	})
}

// BenchmarkAblationCoupling measures the twin-block mat-vec speedup over
// a dense coupling matrix on a Fig. 4-sized core COP (768 spins).
func BenchmarkAblationCoupling(b *testing.B) {
	cop, err := experiments.SampleCOP("multiplier", 16, 15, 7, core.Joint, 3)
	if err != nil {
		b.Fatal(err)
	}
	f := core.Formulate(cop)
	bip, ok := f.Problem.Coup.(*ising.Twin)
	if !ok {
		b.Fatal("formulation no longer a twin block")
	}
	dense := bip.ToDense()
	n := f.Problem.N()
	x := make([]float64, n)
	out := make([]float64, n)
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	b.Run("bipartite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bip.Field(x, out)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dense.Field(x, out)
		}
	})
}

// BenchmarkCoreSolveN16 times one proposed core-COP solve at the Fig. 4
// problem size (r = 128, c = 512, 768 spins).
func BenchmarkCoreSolveN16(b *testing.B) {
	cop, err := experiments.SampleCOP("multiplier", 16, 8, 7, core.Joint, 3)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultSolverOptions()
	opts.SB.Stop = &sb.StopCriteria{F: 10, S: 10, Epsilon: 1e-8}
	var cost float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost = core.SolveBSB(context.Background(), cop, opts).Cost
	}
	b.ReportMetric(cost, "cost")
}

// BenchmarkParallelWorkers measures the DALTA outer loop's partition-level
// parallelism (results are bit-identical to serial; only wall-clock
// changes).
func BenchmarkParallelWorkers(b *testing.B) {
	exact, err := benchfn.Build("exp", 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := dalta.Run(context.Background(), exact, dalta.Config{
					Rounds:     1,
					Partitions: 8,
					FreeSize:   4,
					Mode:       core.Joint,
					Solver:     dalta.NewProposed(),
					Seed:       7,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

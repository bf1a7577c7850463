package core

import (
	"context"
	"math"
	"sync"
	"time"

	"isinglut/internal/decomp"
	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
	"isinglut/internal/sb"
)

// siteSolve panics a core-COP solve when armed, modelling a bug anywhere
// under the bSB pipeline; the serve layer's recover boundary must convert
// it into a structured error (and a DALTA fallback on /v1/decompose).
var siteSolve = fault.NewSite("core.solve")

// met instruments the core-COP layer (one run per SolveBSB/SolveBSBBatch
// call, on top of the finer-grained sb metrics underneath).
var met = metrics.ForSolver("core")

// SolverOptions configures the proposed Ising-model-based core-COP solver.
type SolverOptions struct {
	// SB holds the simulated-bifurcation parameters. SB.Stop enables the
	// dynamic stop criterion (Section 3.3.1). SB.OnSample is reserved for
	// the solver and must be nil.
	SB sb.Params
	// Theorem3 enables the intervention heuristic (Section 3.3.2): at
	// every sample point, recompute the conditionally-optimal column-type
	// vector from the current V1/V2 signs and clamp the T spins to it
	// (position ±1, momentum 0) before the dynamics continue.
	Theorem3 bool
}

// DefaultSolverOptions returns the paper-faithful configuration: bSB with
// dynamic stop (f = s = 20, epsilon = 1e-8, the paper's n = 9 setting) and
// the Theorem-3 heuristic enabled.
func DefaultSolverOptions() SolverOptions {
	p := sb.DefaultParams()
	p.Stop = &sb.StopCriteria{F: 20, S: 20, Epsilon: 1e-8}
	return SolverOptions{SB: p, Theorem3: true}
}

// Solution reports a core-COP solve.
type Solution struct {
	Setting *decomp.ColSetting
	Cost    float64   // objective value (SettingCost of Setting)
	SB      sb.Result // underlying SB run diagnostics
	// Batch holds the per-replica portfolio when the solve ran as a batch
	// (SolveBSBBatch); nil for single-trajectory solves.
	Batch *sb.Stats
}

// wsPool recycles SB workspaces across core-COP solves. The DALTA outer
// loop performs P*R*m solves per run — with candidate partitions fanned
// out over a worker pool, each pool goroutine ends up reusing a warm
// workspace instead of reallocating the oscillator state per solve.
var wsPool = sync.Pool{New: func() any { return new(sb.Workspace) }}

// SolveBSB solves the column-based core COP with the proposed method:
// formulate as a second-order Ising model and search with ballistic
// simulated bifurcation, optionally applying the paper's two improvement
// strategies. Cancellation propagates to the underlying SB run at
// sample-point granularity; an interrupted solve still decodes and costs
// the best-so-far spins (check Solution.SB.Stopped for the reason).
func SolveBSB(ctx context.Context, cop *COP, opts SolverOptions) Solution {
	start := time.Now()
	if siteSolve.Fire() {
		panic("fault: injected core.solve panic")
	}
	if opts.SB.OnSample != nil {
		panic("core: SolverOptions.SB.OnSample is reserved")
	}
	f := Formulate(cop)
	params := opts.SB
	if opts.Theorem3 {
		params.OnSample = theorem3Hook(f)
	}
	ws := wsPool.Get().(*sb.Workspace)
	res := sb.SolveWith(ctx, f.Problem, params, ws)
	res.Spins = append([]int8(nil), res.Spins...) // own the spins before the workspace is recycled
	wsPool.Put(ws)
	setting := f.DecodeSpins(res.Spins)
	met.ObserveRun(time.Since(start), res.Stopped)
	return Solution{
		Setting: setting,
		Cost:    cop.SettingCost(setting),
		SB:      res,
	}
}

// theorem3Hook builds a fresh Theorem-3 intervention closure with its own
// scratch buffers (so independent replicas can run concurrently, and a
// call allocates nothing): at each sample point it reads the V1/V2
// patterns off the position signs, computes the conditionally-optimal
// column-type vector, and clamps the T spins to it with zeroed momenta.
//
// The optimum comes from the sign of the T-side field at
// sigma_V = sign(x_V), one FieldU product: T_j = 1 exactly when
// F_j > 0, ties to 0 (theorem3Bound derives the rule). A column whose
// |F_j| does not clear its bound B_j — or whose F_j or B_j is not
// finite — recomputes its two cost sums in optimalTInto's order, so the
// result equals optimalTInto's bit for bit for every cost distribution.
func theorem3Hook(f *Formulation) func(iter int, x, y []float64) {
	cop := f.COP
	c, r := cop.C, cop.R
	coup := f.Problem.Coup.(*ising.Twin)
	signs := make([]float64, f.NumSpins()) // the T entries stay 0: FieldU reads only V
	field := make([]float64, c)
	return func(_ int, x, y []float64) {
		for k := c; k < c+2*r; k++ {
			if x[k] >= 0 {
				signs[k] = 1
			} else {
				signs[k] = -1
			}
		}
		coup.FieldU(signs, field)
		for j, fj := range field {
			t := fj > 0
			if a, b := math.Abs(fj), f.tBound[j]; !(a > b || a == 0 && b == 0) {
				cost1, cost2 := cop.columnCosts(j, signs[c:c+r], signs[c+r:c+2*r])
				t = cost2 < cost1
			}
			if t {
				x[j] = 1
			} else {
				x[j] = -1
			}
			y[j] = 0
		}
	}
}

// SolveBSBBatch runs the proposed solver as a batch of independent SB
// replicas and returns the best solution — the software counterpart of
// SB's "massively parallel" hardware execution. Results are deterministic
// for a fixed base seed. A cancelled batch returns the best solution
// among the replicas that ran; Solution.Batch records the per-replica
// stop reasons.
//
// Without the Theorem-3 heuristic the batch auto-fuses (sb.FuseAuto):
// every replica advances in lock-step, with one batched field product
// per step. Theorem3 installs a per-replica
// sample hook, which forces the per-replica goroutine engine (up to
// workers concurrent); the two engines return bit-identical results.
func SolveBSBBatch(ctx context.Context, cop *COP, opts SolverOptions, replicas, workers int) Solution {
	start := time.Now()
	if opts.SB.OnSample != nil {
		panic("core: SolverOptions.SB.OnSample is reserved")
	}
	f := Formulate(cop)
	bp := sb.BatchParams{Base: opts.SB, Replicas: replicas, Workers: workers}
	if opts.Theorem3 {
		bp.MakeOnSample = func(int) func(int, []float64, []float64) {
			return theorem3Hook(f)
		}
	}
	res, stats := sb.SolveBatch(ctx, f.Problem, bp)
	setting := f.DecodeSpins(res.Spins)
	met.ObserveRun(time.Since(start), stats.BatchStopped)
	return Solution{
		Setting: setting,
		Cost:    cop.SettingCost(setting),
		SB:      res,
		Batch:   &stats,
	}
}

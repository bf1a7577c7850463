package dalta

import (
	"context"
	"math/rand"
	"sync"

	"isinglut/internal/core"
	"isinglut/internal/decomp"
	"isinglut/internal/ilp"
)

// Proposed is the paper's core-COP solver: column-based decomposition,
// second-order Ising formulation, ballistic simulated bifurcation with the
// dynamic stop criterion and the Theorem-3 intervention heuristic.
type Proposed struct {
	Opts core.SolverOptions
}

// NewProposed returns the solver with the paper-faithful defaults.
func NewProposed() *Proposed {
	return &Proposed{Opts: core.DefaultSolverOptions()}
}

// Name implements CoreSolver.
func (p *Proposed) Name() string { return "proposed-bsb" }

// copPool recycles Proposed's COPs: a joint-mode build overwrites every
// cost in place (core.COP.ResetJoint), and nothing a solve returns keeps
// the COP, so each solve skips allocating and zeroing its two r·c cost
// arrays (1 MiB at the Fig. 4 size).
var copPool = sync.Pool{New: func() any { return new(core.COP) }}

// Solve implements CoreSolver.
func (p *Proposed) Solve(ctx context.Context, req Request) Result {
	cop := buildCOPInto(copPool.Get().(*core.COP), req)
	defer copPool.Put(cop)
	opts := p.Opts
	opts.SB.Seed = req.Seed
	sol := core.SolveBSB(ctx, cop, opts)
	return Result{
		Table:  sol.Setting.ApproxTable(),
		Decomp: sol.Setting.Synthesize(),
		Cost:   sol.Cost,
	}
}

// ILP is the DALTA-ILP baseline [9]: the row-based core COP solved by the
// branch-and-bound solver (the Gurobi stand-in), with an optional time
// limit mirroring the paper's 3600 s cap.
type ILP struct {
	Opts ilp.Options
}

// Name implements CoreSolver.
func (s *ILP) Name() string { return "dalta-ilp" }

// Solve implements CoreSolver.
func (s *ILP) Solve(ctx context.Context, req Request) Result {
	cop := BuildCOP(req)
	sol := ilp.SolveRowCOP(ctx, cop.RowInstance(), s.Opts)
	setting := &decomp.RowSetting{Part: req.Part, V: sol.V, S: sol.S}
	return Result{
		Table:  setting.ApproxTable(),
		Decomp: setting.Synthesize(),
		Cost:   sol.Cost,
	}
}

// AltMin is an additional baseline (not in the paper): column-based
// alternating minimization with random restarts. It bounds from below
// what any column-based solver should achieve and is useful in ablations.
type AltMin struct {
	// MaxIters bounds the alternations; zero means 64.
	MaxIters int
	// Restarts is the number of random restarts beyond the deterministic
	// seed; zero means 4.
	Restarts int
}

// Name implements CoreSolver.
func (a *AltMin) Name() string { return "altmin" }

// Solve implements CoreSolver.
func (a *AltMin) Solve(ctx context.Context, req Request) Result {
	cop := BuildCOP(req)
	iters := a.MaxIters
	if iters <= 0 {
		iters = 64
	}
	restarts := a.Restarts
	if restarts <= 0 {
		restarts = 4
	}
	setting, cost := core.AltMin(cop, core.SeedSetting(cop), iters)
	rng := rand.New(rand.NewSource(req.Seed))
	pollCtx := ctx.Done() != nil
	for r := 0; r < restarts; r++ {
		// Each restart is a natural interruption point; the deterministic
		// seed above has already produced a valid setting.
		if pollCtx && ctx.Err() != nil {
			break
		}
		s, c := core.AltMin(cop, core.RandomSetting(cop, rng), iters)
		if c < cost {
			setting, cost = s, c
		}
	}
	return Result{
		Table:  setting.ApproxTable(),
		Decomp: setting.Synthesize(),
		Cost:   cost,
	}
}

// Package dalta implements the DALTA outer framework [9] for approximate
// disjoint decomposition of multi-output Boolean functions, and the four
// core-COP solvers the paper evaluates inside it:
//
//   - Proposed: the paper's contribution — column-based core COP solved by
//     bSB on a second-order Ising model (internal/core).
//   - ILP: DALTA-ILP [9] — row-based core COP solved exactly (anytime) by
//     branch and bound (internal/ilp), standing in for Gurobi.
//   - Heuristic: DALTA's fast heuristic [9], reconstructed as row-based
//     alternating minimization.
//   - BA [10]: simulated annealing over the row-based setting space.
//
// The framework optimizes the setting of each component function
// individually, sequentially from the most to the least significant bit,
// and repeats for R rounds; for each component it tries P random candidate
// input partitions and keeps the best solution (Section 2.4). A candidate
// is committed only if it improves on the component's currently-committed
// approximation, which makes the overall error monotonically
// non-increasing across commits — an invariant the tests enforce.
package dalta

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"isinglut/internal/bitvec"
	"isinglut/internal/boolmatrix"
	"isinglut/internal/core"
	"isinglut/internal/decomp"
	"isinglut/internal/errmetric"
	"isinglut/internal/metrics"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// met instruments the outer framework: one run per Run call, Iterations =
// core-COP solves dispatched, and the stop reason distribution.
var met = metrics.ForSolver("dalta")

// Request is one core-COP solve: optimize component K of Exact under Part
// in the given Mode, with the other components fixed at their current
// state in Approx.
type Request struct {
	Part   *partition.Partition
	K      int
	Mode   core.Mode
	Exact  *truthtable.Table
	Approx *truthtable.Table
	Dist   prob.Distribution
	// Seed lets stochastic solvers vary across partitions/rounds while
	// staying reproducible.
	Seed int64
}

// BuildCOP materializes the per-entry-cost COP for the request, in either
// mode.
func BuildCOP(req Request) *core.COP {
	return buildCOPInto(new(core.COP), req)
}

// buildCOPInto is BuildCOP into cop, whose cost slices a joint-mode build
// reuses (core.COP.ResetJoint).
func buildCOPInto(cop *core.COP, req Request) *core.COP {
	if req.Mode == core.Separate {
		m := boolmatrix.Build(req.Exact.Component(req.K), req.Part, req.Dist)
		*cop = *core.NewSeparateCOP(m)
		return cop
	}
	return cop.ResetJoint(req.Part, req.K, req.Exact, req.Approx, req.Dist)
}

// Result is a core-COP solution: the approximate component table, the
// synthesized LUT pair and the achieved objective value.
type Result struct {
	Table  *bitvec.Vector
	Decomp *decomp.Decomposition
	Cost   float64
}

// CoreSolver solves one core COP. Implementations must be deterministic
// for a fixed Request.Seed, and should treat ctx as a best-effort
// interruption signal: return the best setting found so far rather than a
// partial or invalid one.
type CoreSolver interface {
	Name() string
	Solve(ctx context.Context, req Request) Result
}

// Config drives one framework run.
type Config struct {
	// Rounds is R, the number of passes over all components.
	Rounds int
	// Partitions is P, the number of random candidate partitions tried per
	// component per round.
	Partitions int
	// FreeSize is |A|; |B| = n - FreeSize + Overlap.
	FreeSize int
	// Overlap is the number of free-set variables additionally shared
	// into the bound set — the non-disjoint decomposition extension of
	// [10]. Zero (the paper's setting) keeps A and B disjoint. Overlap
	// enlarges the phi LUT (c = 2^{n-FreeSize+Overlap} bits) in exchange
	// for lower approximation error.
	Overlap int
	// Mode selects the separate or joint objective.
	Mode core.Mode
	// Solver is the core-COP solver under evaluation.
	Solver CoreSolver
	// Dist is the input distribution (nil = uniform).
	Dist prob.Distribution
	// Seed drives partition sampling and solver seeds.
	Seed int64
	// Workers evaluates the P candidate partitions of each component
	// concurrently with up to this many goroutines (0 or 1 = serial).
	// Results are identical to the serial run for a fixed Seed: the
	// per-partition solver seeds are drawn up front and the best
	// candidate is chosen by cost with the partition index as the
	// deterministic tie-break.
	Workers int
	// Elitism re-offers each component's committed partition as an extra
	// candidate in later rounds, so a good partition found early is
	// re-optimized under the evolving joint context instead of relying on
	// the random stream to rediscover it.
	Elitism bool
}

// Validate checks the configuration against the function shape.
func (c *Config) Validate(exact *truthtable.Table) error {
	if c.Rounds <= 0 {
		return fmt.Errorf("dalta: Rounds must be positive, got %d", c.Rounds)
	}
	if c.Partitions <= 0 {
		return fmt.Errorf("dalta: Partitions must be positive, got %d", c.Partitions)
	}
	n := exact.NumInputs()
	if c.FreeSize <= 0 || c.FreeSize >= n {
		return fmt.Errorf("dalta: FreeSize %d must be in (0,%d)", c.FreeSize, n)
	}
	if c.Overlap < 0 || c.Overlap > c.FreeSize {
		return fmt.Errorf("dalta: Overlap %d must be in [0,%d]", c.Overlap, c.FreeSize)
	}
	if n-c.FreeSize+c.Overlap > 26 {
		return fmt.Errorf("dalta: bound set of %d variables too large", n-c.FreeSize+c.Overlap)
	}
	if c.Solver == nil {
		return fmt.Errorf("dalta: no core solver configured")
	}
	if c.Dist != nil && c.Dist.NumInputs() != n {
		return fmt.Errorf("dalta: distribution over %d inputs, function over %d", c.Dist.NumInputs(), n)
	}
	return nil
}

// ComponentState is the committed decomposition of one component.
type ComponentState struct {
	K      int
	Part   *partition.Partition
	Decomp *decomp.Decomposition
	// Cost is the solver objective of the committed setting at commit
	// time (joint mode: whole-word MED; separate mode: component ER).
	Cost float64
}

// Outcome reports a framework run.
type Outcome struct {
	// Approx is the final approximate function.
	Approx *truthtable.Table
	// Components holds the committed decomposition per component (nil
	// entry: never committed, the component stays exact and undecomposed).
	Components []*ComponentState
	// Report holds the final error metrics against the exact function.
	Report errmetric.Report
	// RoundMED traces MED after each round (joint mode) for convergence
	// plots; in separate mode it traces the summed component ER.
	RoundMED []float64
	// CoreSolves counts core-COP invocations.
	CoreSolves int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Stopped reports how the run ended: StopConverged when all rounds
	// completed, StopCancelled/StopDeadline when the context cut the outer
	// loop short. An interrupted run still carries a consistent Approx,
	// Components and Report for the work committed so far.
	Stopped metrics.StopReason
}

// Run executes the DALTA outer loop with the configured solver. The
// context is checked between components and propagated into every core
// solve; cancellation yields a valid partial Outcome, never an error.
func Run(ctx context.Context, exact *truthtable.Table, cfg Config) (*Outcome, error) {
	if err := cfg.Validate(exact); err != nil {
		return nil, err
	}
	start := time.Now()
	n, m := exact.NumInputs(), exact.NumOutputs()
	dist := cfg.Dist
	if dist == nil {
		dist = prob.NewUniform(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	approx := exact.Clone()
	out := &Outcome{
		Approx:     approx,
		Components: make([]*ComponentState, m),
	}

	out.Stopped = metrics.StopConverged
	pollCtx := ctx.Done() != nil
	// eval holds the error report of approx as it stands, for the
	// commit checks, the round trace and the final report alike; a
	// commit clears it. Evaluate is deterministic, so a reused report is
	// bit for bit the one a fresh evaluation would give.
	var eval *errmetric.Report
	evaluate := func() errmetric.Report {
		if eval == nil {
			rep := errmetric.MustEvaluate(exact, approx, dist)
			eval = &rep
		}
		return *eval
	}
outer:
	for round := 0; round < cfg.Rounds; round++ {
		// Most significant bit first (paper Section 2.4).
		for k := m - 1; k >= 0; k-- {
			if pollCtx && ctx.Err() != nil {
				out.Stopped = metrics.ReasonFromContext(ctx)
				break outer
			}
			parts := drawPartitions(n, cfg, rng)
			if cfg.Elitism && out.Components[k] != nil {
				parts = appendEliteParts(parts, out.Components[k].Part)
			}
			reqs := make([]Request, len(parts))
			for i, part := range parts {
				reqs[i] = Request{
					Part:   part,
					K:      k,
					Mode:   cfg.Mode,
					Exact:  exact,
					Approx: approx,
					Dist:   dist,
					Seed:   rng.Int63(),
				}
			}
			results, solved := solveAll(ctx, cfg.Solver, reqs, cfg.Workers)
			var best *Result
			var bestPart *partition.Partition
			for i := range results {
				if !solved[i] {
					continue
				}
				out.CoreSolves++
				if best == nil || results[i].Cost < best.Cost {
					best = &results[i]
					bestPart = parts[i]
				}
			}
			if best == nil {
				continue
			}
			if commitImproves(exact, approx, k, best, cfg.Mode, dist, out.Components[k], evaluate) {
				approx.SetComponent(k, best.Table)
				eval = nil
				out.Components[k] = &ComponentState{
					K:      k,
					Part:   bestPart,
					Decomp: best.Decomp,
					Cost:   best.Cost,
				}
			}
		}
		out.RoundMED = append(out.RoundMED, progressMetric(exact, approx, cfg.Mode, dist, evaluate))
	}

	out.Report = evaluate()
	out.Elapsed = time.Since(start)
	met.ObserveRun(out.Elapsed, out.Stopped)
	met.Iterations.Add(int64(out.CoreSolves))
	met.ObserveEnergy(out.Report.MED)
	return out, nil
}

// drawPartitions samples the candidate partitions for one component:
// distinct disjoint partitions in the paper's setting, or random
// overlapping ones when the non-disjoint extension is enabled.
func drawPartitions(n int, cfg Config, rng *rand.Rand) []*partition.Partition {
	if cfg.Overlap == 0 {
		return partition.RandomDistinct(n, cfg.FreeSize, cfg.Partitions, rng)
	}
	seen := make(map[[2]uint64]bool, cfg.Partitions)
	var out []*partition.Partition
	for attempts := 0; len(out) < cfg.Partitions && attempts < 64*cfg.Partitions; attempts++ {
		p := partition.RandomOverlap(n, cfg.FreeSize, cfg.Overlap, rng)
		key := [2]uint64{p.MaskA(), p.MaskB()}
		if !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// appendEliteParts adds the committed partition unless it is already a
// candidate.
func appendEliteParts(parts []*partition.Partition, elite *partition.Partition) []*partition.Partition {
	for _, p := range parts {
		if p.Equal(elite) {
			return parts
		}
	}
	return append(parts, elite)
}

// solveAll evaluates the candidate requests serially or with a bounded
// worker pool. Solvers must be safe for concurrent use on distinct
// requests (all in-tree solvers are: their state lives per call).
//
// The returned mask reports which requests actually ran: once the context
// is cancelled the remaining requests are skipped, and their zero-valued
// Results (Cost 0 would otherwise masquerade as a perfect candidate) must
// not enter the best-candidate scan. At least one request is always
// solved so the caller has a candidate even under immediate cancellation.
func solveAll(ctx context.Context, solver CoreSolver, reqs []Request, workers int) ([]Result, []bool) {
	results := make([]Result, len(reqs))
	solved := make([]bool, len(reqs))
	pollCtx := ctx.Done() != nil
	if workers <= 1 || len(reqs) <= 1 {
		for i := range reqs {
			if i > 0 && pollCtx && ctx.Err() != nil {
				break
			}
			results[i] = solver.Solve(ctx, reqs[i])
			solved[i] = true
		}
		return results, solved
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = solver.Solve(ctx, reqs[i])
				solved[i] = true
			}
		}()
	}
	// Request 0 is dispatched unconditionally (mirroring sb.SolveBatch's
	// replica-0 guarantee); later ones stop flowing once ctx is done.
	for i := range reqs {
		if i > 0 && pollCtx && ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return results, solved
}

// commitImproves decides whether the candidate beats the currently
// committed approximation of component k under the present state of the
// other components. evaluate returns the error report of approx.
//
// In joint mode the candidate's COP cost is exactly the whole-word MED
// with the other components fixed, so it is compared against the current
// whole-word MED. In separate mode the comparison is on the component's
// own error rate. A component that has never been committed competes
// against the error of leaving it exact — but leaving it exact is not a
// *decomposition*, so the first commit always happens unless the candidate
// is strictly worse than exact and the component already decomposes for
// free (cost 0 is always accepted as equal-or-better).
func commitImproves(exact, approx *truthtable.Table, k int, cand *Result, mode core.Mode, dist prob.Distribution, prev *ComponentState, evaluate func() errmetric.Report) bool {
	if prev == nil {
		// First commit: a decomposition is required for the LUT savings,
		// so accept the best candidate unconditionally.
		return true
	}
	var current float64
	if mode == core.Joint {
		current = evaluate().MED
	} else {
		current = errmetric.ComponentER(exact, approx, k, dist)
	}
	return cand.Cost < current-1e-15
}

// progressMetric is a round's entry of Outcome.RoundMED: the MED in
// joint mode (from evaluate, the report of approx), the summed component
// ER in separate mode.
func progressMetric(exact, approx *truthtable.Table, mode core.Mode, dist prob.Distribution, evaluate func() errmetric.Report) float64 {
	if mode == core.Joint {
		return evaluate().MED
	}
	total := 0.0
	for k := 0; k < exact.NumOutputs(); k++ {
		total += errmetric.ComponentER(exact, approx, k, dist)
	}
	return total
}

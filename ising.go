package isinglut

import (
	"context"
	"fmt"
	"math"

	"isinglut/internal/anneal"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
	"isinglut/internal/sb"
	"isinglut/internal/shard"
)

// IsingProblem is a public builder for standalone second-order Ising
// instances (Eq. 1): E = -sum h_i s_i - 1/2 sum J_ij s_i s_j. It exposes
// the same solver stack the decomposer uses (bSB/aSB/dSB and simulated
// annealing) for unrelated combinatorial problems such as max-cut.
//
// The default builder (NewIsingProblem) stores the couplings densely:
// n² float64 slots; an SB solve of a sparse enough dense-backed problem
// runs on a CSR copy. NewSparseIsingProblem stores them in CSR form
// instead, so oversized sparse instances (n ≫ 10³) never materialize the
// dense matrix at all — the combination that the sharded solver
// (SBOptions.MaxShard) is built for.
type IsingProblem struct {
	dense  *ising.Dense  // nil for sparse-backed problems
	sparse *ising.Sparse // nil for dense-backed problems
	h      []float64
}

// NewIsingProblem allocates an n-spin problem with zero couplings and
// biases, stored densely.
func NewIsingProblem(n int) *IsingProblem {
	return &IsingProblem{dense: ising.NewDense(n), h: make([]float64, n)}
}

// IsingCoupling is one symmetric coupling entry for the sparse builder:
// J_ij = J_ji accumulate V.
type IsingCoupling struct {
	I, J int
	V    float64
}

// NewSparseIsingProblem builds an n-spin problem from coupling triplets,
// stored in CSR form: memory is O(couplings), never O(n²), so instances
// far beyond the dense builder's reach stay constructible. Duplicate
// coordinates accumulate; diagonal or out-of-range entries are an error.
func NewSparseIsingProblem(n int, couplings []IsingCoupling) (*IsingProblem, error) {
	ts := make([]ising.Triplet, len(couplings))
	for i, c := range couplings {
		ts[i] = ising.Triplet{I: c.I, J: c.J, V: c.V}
	}
	s, err := ising.NewSparseFromTriplets(n, ts)
	if err != nil {
		return nil, err
	}
	return &IsingProblem{sparse: s, h: make([]float64, n)}, nil
}

// coupler returns the problem's coupling matrix under the shared
// interface, whichever representation backs it.
func (p *IsingProblem) coupler() ising.Coupler {
	if p.sparse != nil {
		return p.sparse
	}
	return p.dense
}

// N returns the spin count.
func (p *IsingProblem) N() int { return p.coupler().N() }

// SetCoupling assigns J_ij = J_ji = v (i != j). On a sparse-backed
// problem inserting a new structural entry is O(nnz); bulk construction
// belongs in NewSparseIsingProblem.
func (p *IsingProblem) SetCoupling(i, j int, v float64) {
	if p.sparse != nil {
		p.sparse.Set(i, j, v)
		return
	}
	p.dense.Set(i, j, v)
}

// SetBias assigns h_i = v.
func (p *IsingProblem) SetBias(i int, v float64) { p.h[i] = v }

// Energy evaluates Eq. 1 on a ±1 spin assignment.
func (p *IsingProblem) Energy(spins []int8) float64 {
	return p.problem().Energy(spins)
}

// Validate reports whether the problem is numerically well-formed:
// every coupling and bias must be finite. A single NaN or ±Inf input
// poisons the whole oscillator state within one field product, so the
// solvers reject such problems up front with an error instead of
// running to a meaningless diverged result.
func (p *IsingProblem) Validate() error {
	finite := true
	if p.sparse != nil {
		finite = p.sparse.AllFinite()
	} else {
		finite = p.dense.AllFinite()
	}
	if !finite {
		return fmt.Errorf("isinglut: problem has a non-finite coupling (NaN or ±Inf)")
	}
	for i, h := range p.h {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("isinglut: non-finite bias h[%d] = %g", i, h)
		}
	}
	return nil
}

func (p *IsingProblem) problem() *ising.Problem {
	prob, err := ising.NewProblem(p.coupler(), p.h, 0)
	if err != nil {
		panic(err) // builder keeps dimensions consistent
	}
	return prob
}

// SBVariant selects the simulated-bifurcation update rule.
type SBVariant = sb.Variant

// Simulated-bifurcation variants.
const (
	BallisticSB = sb.Ballistic
	AdiabaticSB = sb.Adiabatic
	DiscreteSB  = sb.Discrete
)

// SBOptions configures SolveIsing's simulated-bifurcation run.
type SBOptions struct {
	Variant SBVariant
	// Steps caps the Euler iterations (default 1000).
	Steps int
	// Dt is the Euler step (default: the variant's stable step, 1.0 for
	// bSB and dSB, 0.5 for aSB).
	Dt float64
	// Seed drives the deterministic initial conditions.
	Seed int64
	// DynamicStop enables the paper's variance-based stop criterion with
	// window F samples every F iterations and threshold Epsilon.
	DynamicStop bool
	F, S        int
	Epsilon     float64
	// Trace records the sampled energies in the result (for a batch, the
	// winning replica's).
	Trace bool
	// Replicas > 1 runs that many independent trajectories (seeds
	// Seed, Seed+1, ...) and keeps the best — the software counterpart of
	// SB hardware's parallel replica execution. The replicas advance in
	// lock-step as lanes of one engine, so each Euler step streams the
	// coupling once for the whole batch.
	Replicas int
	// Workers bounds the concurrent sub-solves of a sharded solve
	// (MaxShard > 0; 0 = GOMAXPROCS). Results are deterministic for a
	// fixed seed regardless of Workers.
	Workers int
	// Rescue enables the one-shot divergence rescue: a trajectory whose
	// dynamics overflow the finite range is re-seeded once from its own
	// seed with a halved time step instead of being quarantined with
	// energy +Inf. Off by default — a diverged run then reports
	// StopReason "diverged" and IsingResult.Diverged.
	Rescue bool
	// Quantize enables the int8/int16 fixed-point dSB fast path: the
	// coupling is quantized once per solve and the per-step field product
	// runs on integer accumulation, rescaling only at sample points
	// (energies always evaluate against the exact float coupling).
	// Requires Variant == DiscreteSB — the other variants need the
	// continuous positions in the field product — and changes numerics
	// within the envelope pinned by the differential tests. The codes run
	// on bit-plane popcount kernels when the instance's density, width
	// and replica count favour them, on the scalar integer kernels
	// otherwise, with bit-identical results. IsingResult.Quantized and
	// BitPacked report what ran; a coupling that fails to quantize falls
	// back to float64 silently.
	Quantize bool
	// MaxShard > 0 routes the solve through the shard-and-exchange
	// decomposition layer: the coupling graph is split into subproblems
	// of at most MaxShard spins (greedy |J|-weighted growth), each is
	// solved on the batch engine with its boundary spins clamped to the
	// current global state, and exchange rounds iterate until the global
	// energy stabilizes. This is the path for instances one SB solve
	// cannot hold; Trace is not supported through it.
	MaxShard int
	// ShardRounds bounds the exchange rounds of a sharded solve
	// (default 12). Only meaningful with MaxShard > 0.
	ShardRounds int
}

// IsingResult reports a standalone Ising solve.
type IsingResult struct {
	Spins      []int8
	Energy     float64
	Iterations int
	Stopped    bool // dynamic stop fired
	// Trace holds the sampled energies when requested; SampleEvery is the
	// iteration period between samples.
	Trace       []float64
	SampleEvery int
	// Replicas is the number of trajectories run (1 for a single solve);
	// EarlyStops counts the replicas whose dynamic stop fired. For a batch
	// the scalar fields above describe the winning replica.
	Replicas   int
	EarlyStops int
	// StopReason states how the run ended: "converged", "max-iters",
	// "cancelled", "deadline" or "diverged". Interrupted runs
	// ("cancelled"/"deadline") still return the best state found before
	// the interruption.
	StopReason string
	// Diverged reports that the winning trajectory's dynamics overflowed
	// the finite range: Energy is +Inf and Spins hold the best finite
	// state observed before the overflow (for a batch, every replica
	// diverged — a finite replica always outranks a diverged one).
	Diverged bool
	// Rescued reports that the winning trajectory recovered from a
	// detected divergence via the one-shot re-seed (SBOptions.Rescue).
	Rescued bool
	// DivergedReplicas counts the batch replicas quarantined for
	// divergence (0 or 1 for a single solve).
	DivergedReplicas int
	// Quantized reports that the solve ran on the fixed-point field
	// kernels (SBOptions.Quantize accepted and the coupling quantized).
	Quantized bool
	// BitPacked reports that those kernels were the bit-plane popcount
	// ones (the packing heuristic accepted the instance).
	BitPacked bool
	// Shards is the partition size of a sharded solve (0 for a direct
	// solve); ExchangeRounds the exchange rounds it executed.
	Shards         int
	ExchangeRounds int
}

// SolveIsing searches the problem's ground state with simulated
// bifurcation. It is SolveIsingContext with a background context.
func SolveIsing(p *IsingProblem, opts SBOptions) (IsingResult, error) {
	return SolveIsingContext(context.Background(), p, opts)
}

// SolveIsingContext is SolveIsing under a context: cancellation or a
// deadline interrupts the run at the next sample point and returns the
// best-so-far state with StopReason set, never an error.
func SolveIsingContext(ctx context.Context, p *IsingProblem, opts SBOptions) (IsingResult, error) {
	if opts.MaxShard > 0 {
		return SolveIsingShardedContext(ctx, p, opts, nil)
	}
	if err := p.Validate(); err != nil {
		return IsingResult{}, err
	}
	if math.IsNaN(opts.Dt) || math.IsInf(opts.Dt, 0) {
		return IsingResult{}, fmt.Errorf("isinglut: Dt must be finite, got %g", opts.Dt)
	}
	if math.IsNaN(opts.Epsilon) || math.IsInf(opts.Epsilon, 0) {
		return IsingResult{}, fmt.Errorf("isinglut: Epsilon must be finite, got %g", opts.Epsilon)
	}
	params := sbParams(opts)
	if opts.Trace {
		params.RecordTrace = true
		if params.SampleEvery <= 0 && params.Stop == nil {
			params.SampleEvery = 10
		}
	}
	if opts.Quantize && opts.Variant != DiscreteSB {
		return IsingResult{}, fmt.Errorf("isinglut: Quantize requires the DiscreteSB variant (got %s)", opts.Variant)
	}
	prob := p.problem()
	if p.dense != nil {
		// The instance picks the coupler: CSR when it is sparse enough to
		// win, the dense one otherwise. CSR skips only exact zeros, so the
		// results are bit-identical either way.
		prob.Coup = ising.CompactCoupler(p.dense)
	}
	replicas := 1
	earlyStops := 0
	divergedReplicas := 0
	var res sb.Result
	stopReason := ""
	if opts.Replicas > 1 {
		batch, stats := sb.SolveBatch(ctx, prob, sb.BatchParams{Base: params, Replicas: opts.Replicas})
		res = batch
		replicas = stats.Replicas
		earlyStops = stats.EarlyStops
		divergedReplicas = stats.Diverges
		stopReason = stats.BatchStopped.String()
		if res.Diverged {
			// A finite replica always outranks a diverged one, so a
			// diverged winner means every replica diverged.
			stopReason = metrics.StopDiverged.String()
		}
	} else {
		res = sb.SolveContext(ctx, prob, params)
		if res.StoppedEarly {
			earlyStops = 1
		}
		if res.Diverged {
			divergedReplicas = 1
		}
		stopReason = res.Stopped.String()
	}
	sampleEvery := params.SampleEvery
	if sampleEvery <= 0 && params.Stop != nil {
		sampleEvery = params.Stop.F
	}
	if sampleEvery <= 0 {
		sampleEvery = params.Steps
	}
	return IsingResult{
		Spins:            res.Spins,
		Energy:           res.Energy,
		Iterations:       res.Iterations,
		Stopped:          res.StoppedEarly,
		Trace:            res.Trace,
		SampleEvery:      sampleEvery,
		Replicas:         replicas,
		EarlyStops:       earlyStops,
		StopReason:       stopReason,
		Diverged:         res.Diverged,
		Rescued:          res.Rescued,
		DivergedReplicas: divergedReplicas,
		Quantized:        res.Quantized,
		BitPacked:        res.BitPacked,
	}, nil
}

// ShardDispatcher runs one shard subproblem somewhere — the serve layer
// implements it to dispatch sub-solves to peer daemons over /v1/solve.
// Implementations must be safe for concurrent calls and deterministic
// per SubProblem.Seed.
type ShardDispatcher = shard.Dispatcher

// SolveIsingShardedContext solves the problem through the
// shard-and-exchange decomposition layer: split the coupling graph into
// subproblems of at most opts.MaxShard spins, solve each with its
// boundary clamped to the current global state, and iterate exchange
// rounds until the global energy stabilizes, the round budget runs out,
// or the context fires (best-so-far is returned either way, with
// StopReason recorded). d routes the sub-solves; nil runs them
// in-process on the batch engine. SolveIsingContext forwards here
// automatically when opts.MaxShard > 0.
func SolveIsingShardedContext(ctx context.Context, p *IsingProblem, opts SBOptions, d ShardDispatcher) (IsingResult, error) {
	if err := p.Validate(); err != nil {
		return IsingResult{}, err
	}
	if opts.MaxShard <= 0 {
		return IsingResult{}, fmt.Errorf("isinglut: sharded solve needs MaxShard > 0, got %d", opts.MaxShard)
	}
	if opts.ShardRounds < 0 {
		return IsingResult{}, fmt.Errorf("isinglut: ShardRounds must be non-negative, got %d", opts.ShardRounds)
	}
	if opts.Trace {
		return IsingResult{}, fmt.Errorf("isinglut: Trace is not supported with MaxShard (no single trajectory to trace)")
	}
	if math.IsNaN(opts.Dt) || math.IsInf(opts.Dt, 0) {
		return IsingResult{}, fmt.Errorf("isinglut: Dt must be finite, got %g", opts.Dt)
	}
	if math.IsNaN(opts.Epsilon) || math.IsInf(opts.Epsilon, 0) {
		return IsingResult{}, fmt.Errorf("isinglut: Epsilon must be finite, got %g", opts.Epsilon)
	}
	if opts.Quantize && opts.Variant != DiscreteSB {
		return IsingResult{}, fmt.Errorf("isinglut: Quantize requires the DiscreteSB variant (got %s)", opts.Variant)
	}
	res, err := shard.Solve(ctx, p.problem(), shard.Config{
		MaxShard: opts.MaxShard,
		Rounds:   opts.ShardRounds,
		Workers:  opts.Workers,
		Seed:     opts.Seed,
		Replicas: opts.Replicas,
		Base:     sbParams(opts),
		Dispatch: d,
	})
	if err != nil {
		return IsingResult{}, err
	}
	replicas := opts.Replicas
	if replicas < 1 {
		replicas = 1
	}
	return IsingResult{
		Spins:          res.Spins,
		Energy:         res.Energy,
		Iterations:     res.Iterations,
		Stopped:        res.Stopped == metrics.StopConverged,
		Replicas:       replicas,
		StopReason:     res.Stopped.String(),
		Quantized:      res.Quantized,
		BitPacked:      res.BitPacked,
		Shards:         res.Shards,
		ExchangeRounds: res.Rounds,
	}, nil
}

// sbParams maps SBOptions onto sb.Params, starting from the variant's
// defaults (sb.DefaultParamsFor). It is the one mapping for a direct
// solve, the sub-solves of a sharded one (whose seeds the exchange loop
// overwrites) and the serve-layer coordinator's local fallback, so the
// paths agree on every default and the sharded ones stay bit-identical.
// Trace is the direct solve's alone.
func sbParams(opts SBOptions) sb.Params {
	params := sb.DefaultParamsFor(opts.Variant)
	if opts.Steps > 0 {
		params.Steps = opts.Steps
	}
	if opts.Dt > 0 {
		params.Dt = opts.Dt
	}
	params.Seed = opts.Seed
	params.RescueDiverged = opts.Rescue
	params.Quantize = opts.Quantize
	if opts.DynamicStop {
		f, s, eps := opts.F, opts.S, opts.Epsilon
		if f <= 0 {
			f = 20
		}
		if s <= 1 {
			s = 20
		}
		if eps <= 0 {
			eps = 1e-8
		}
		params.Stop = &sb.StopCriteria{F: f, S: s, Epsilon: eps}
	}
	return params
}

// NewLocalShardDispatcher returns the in-process sub-solve dispatcher a
// sharded solve uses by default, parameterized exactly as
// SolveIsingShardedContext(..., nil) would. The serve-layer coordinator
// holds one as its local fallback for the sub-solves its peer fleet does
// not serve: a sub-solve that fails over from a peer to this dispatcher
// produces the bit-identical result the peer would have returned.
func NewLocalShardDispatcher(opts SBOptions) ShardDispatcher {
	return &shard.LocalDispatcher{Base: sbParams(opts), Replicas: opts.Replicas}
}

// AnnealIsing searches the problem's ground state with simulated
// annealing (sweeps full passes, geometric cooling tStart -> tEnd). It is
// AnnealIsingContext with a background context.
func AnnealIsing(p *IsingProblem, sweeps int, tStart, tEnd float64, seed int64) (IsingResult, error) {
	return AnnealIsingContext(context.Background(), p, sweeps, tStart, tEnd, seed)
}

// AnnealIsingContext is AnnealIsing under a context: cancellation or a
// deadline interrupts the schedule at the next sweep boundary and returns
// the best-so-far state with StopReason set.
func AnnealIsingContext(ctx context.Context, p *IsingProblem, sweeps int, tStart, tEnd float64, seed int64) (IsingResult, error) {
	if err := p.Validate(); err != nil {
		return IsingResult{}, err
	}
	// The comparisons below are written so a NaN temperature fails them
	// too (NaN > 0 is false), not just negative or inverted schedules.
	if sweeps <= 0 || !(tStart > 0) || !(tEnd > 0) || tEnd > tStart || math.IsInf(tStart, 0) {
		return IsingResult{}, fmt.Errorf("isinglut: invalid annealing schedule (sweeps=%d, T %g->%g)", sweeps, tStart, tEnd)
	}
	res := anneal.Solve(ctx, p.problem(), anneal.Params{Sweeps: sweeps, TStart: tStart, TEnd: tEnd, Seed: seed})
	return IsingResult{
		Spins:      res.Spins,
		Energy:     res.Energy,
		Iterations: res.Sweeps,
		Replicas:   1,
		StopReason: res.Stopped.String(),
	}, nil
}

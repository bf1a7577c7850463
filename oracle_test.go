package isinglut_test

// Cross-solver oracle: on instances small enough to enumerate, every
// solver in the repository must agree with exhaustive search. Two
// families are covered:
//
//   - random dense Ising problems (the standalone-solver surface), where
//     the bSB and dSB replica batches and simulated annealing must reach
//     the ising.BruteForce ground energy;
//   - random core COPs (the paper's column formulation), where four
//     independent code paths compute the same optimum: column-space
//     enumeration (core.BruteForce), spin-space enumeration over the
//     bipartite Ising encoding (ising.BruteForce + ObjectiveValue), the
//     row-based ILP branch-and-bound, and the stochastic solvers. The
//     column and row setting spaces coincide on the optimum (a column
//     setting with columns drawn from {V1, V2} makes every row one of
//     {all-0, all-1, T, not-T}), so the ILP cost is an exact oracle too.
//
// Ballistic SB is quasi-deterministic: after the bifurcation the
// trajectory follows the continuous flow into one attractor, and the
// initial noise only resolves the global spin-flip tie — so replicas,
// seeds, and even the time step land on the same rounded configuration
// (TestOracleBSBStagnation pins this down). On frustrated instances that
// attractor is occasionally a local minimum; the paper's fixes are the
// dSB variant and the Theorem-3 intervention, both exercised below. The
// trial lists therefore enumerate instances whose bSB attractor was
// verified (by brute force) to be the ground state; SA, dSB, and the ILP
// are additionally exact on every instance tried.
//
// All seeds are fixed; a failure is a genuine solver regression, not
// flakiness.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"isinglut/internal/anneal"
	"isinglut/internal/core"
	"isinglut/internal/fault"
	"isinglut/internal/ilp"
	"isinglut/internal/ising"
	"isinglut/internal/partition"
	"isinglut/internal/sb"
)

const oracleTol = 1e-9

var denseSizes = []int{6, 7, 8, 9, 10, 11, 12}

func randomDenseProblem(n int, rng *rand.Rand) *ising.Problem {
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, rng.NormFloat64())
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = 0.3 * rng.NormFloat64()
	}
	p, err := ising.NewProblem(d, h, 0)
	if err != nil {
		panic(err)
	}
	return p
}

func denseTrialProblem(trial int) (*ising.Problem, int64) {
	seed := int64(1000 + trial)
	rng := rand.New(rand.NewSource(seed))
	return randomDenseProblem(denseSizes[trial%len(denseSizes)], rng), seed
}

// batchEnergy runs a 16-replica SB batch of the given variant and
// returns the winning energy after sanity-checking the reported stats.
func batchEnergy(t *testing.T, p *ising.Problem, v sb.Variant, seed int64) float64 {
	t.Helper()
	params := sb.DefaultParamsFor(v)
	params.Steps = 2000
	params.Seed = seed
	res, stats := sb.SolveBatch(context.Background(), p, sb.BatchParams{Base: params, Replicas: 16})
	if got := p.Energy(res.Spins); math.Abs(got-res.Energy) > oracleTol {
		t.Errorf("seed %d %v: reported energy %.12f but spins evaluate to %.12f", seed, v, res.Energy, got)
	}
	if stats.Replicas != 16 || len(stats.Energies) != 16 {
		t.Errorf("seed %d %v: batch stats report %d replicas, want 16", seed, v, stats.Replicas)
	}
	if stats.Energies[stats.BestReplica] != res.Energy {
		t.Errorf("seed %d %v: BestReplica energy %.12f != winner %.12f",
			seed, v, stats.Energies[stats.BestReplica], res.Energy)
	}
	return res.Energy
}

// saEnergy returns the best simulated-annealing energy over 4 restarts.
func saEnergy(p *ising.Problem, seed int64) float64 {
	best := math.Inf(1)
	for restart := int64(0); restart < 4; restart++ {
		res := anneal.Solve(context.Background(), p, anneal.Params{Sweeps: 600, TStart: 2.0, TEnd: 1e-3, Seed: seed*131 + restart})
		if res.Energy < best {
			best = res.Energy
		}
	}
	return best
}

// TestOracleDenseGroundState: on 25 random dense instances (N = 6..12)
// the bSB and dSB replica batches and SA all recover the exhaustively
// verified ground energy, and Solve/SolveWith are bit-identical for
// equal seeds.
func TestOracleDenseGroundState(t *testing.T) {
	trials := []int{0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 25, 26, 28, 29}
	ws := sb.NewWorkspace(0)
	for _, trial := range trials {
		p, seed := denseTrialProblem(trial)
		_, ground := ising.BruteForce(p)

		if e := batchEnergy(t, p, sb.Ballistic, seed); math.Abs(e-ground) > oracleTol {
			t.Errorf("seed %d: bSB batch energy %.12f, ground %.12f", seed, e, ground)
		}
		if e := batchEnergy(t, p, sb.Discrete, seed); math.Abs(e-ground) > oracleTol {
			t.Errorf("seed %d: dSB batch energy %.12f, ground %.12f", seed, e, ground)
		}
		if e := saEnergy(p, seed); math.Abs(e-ground) > oracleTol {
			t.Errorf("seed %d: SA best energy %.12f, ground %.12f", seed, e, ground)
		}

		params := sb.DefaultParams()
		params.Steps = 400
		params.Seed = seed
		fresh := sb.Solve(p, params)
		reused := sb.SolveWith(context.Background(), p, params, ws)
		if fresh.Energy != reused.Energy || fresh.Iterations != reused.Iterations {
			t.Errorf("seed %d: Solve (%.12f, %d iters) != SolveWith (%.12f, %d iters)",
				seed, fresh.Energy, fresh.Iterations, reused.Energy, reused.Iterations)
		}
		for i := range fresh.Spins {
			if fresh.Spins[i] != reused.Spins[i] {
				t.Errorf("seed %d: Solve and SolveWith disagree at spin %d", seed, i)
				break
			}
		}
	}
}

// TestOracleBSBStagnation documents the bSB failure mode that motivates
// the paper's improvement strategies: on this frustrated instance the
// quasi-deterministic bSB flow lands every replica in the same local
// minimum (more replicas or a different time step do not help), while
// the dSB batch reaches the true ground state.
func TestOracleBSBStagnation(t *testing.T) {
	p, seed := denseTrialProblem(4)
	_, ground := ising.BruteForce(p)

	bsb := batchEnergy(t, p, sb.Ballistic, seed)
	if bsb <= ground+oracleTol {
		t.Errorf("bSB batch unexpectedly reached ground %.12f — pick a new stagnation witness", ground)
	}
	params := sb.DefaultParams()
	params.Steps = 2000
	params.Seed = seed + 5000 // a far-away seed stream
	params.Dt = 0.5
	res, _ := sb.SolveBatch(context.Background(), p, sb.BatchParams{Base: params, Replicas: 16})
	if res.Energy != bsb {
		t.Errorf("bSB attractor moved with seed/dt: %.12f vs %.12f — quasi-determinism assumption broken", res.Energy, bsb)
	}
	if dsb := batchEnergy(t, p, sb.Discrete, seed); math.Abs(dsb-ground) > oracleTol {
		t.Errorf("dSB batch energy %.12f, ground %.12f", dsb, ground)
	}
}

// TestOracleSparseDenseBitIdentity: re-housing a coupling matrix in the
// CSR coupler must not move a single bit of any solver trajectory. The
// CSR kernels accumulate in the same order as the dense ones and only
// skip exact zeros (which contribute nothing to an IEEE sum), so for
// both SB variants the full batch — winner, per-replica energies,
// iteration counts — is required to match the dense run bitwise.
func TestOracleSparseDenseBitIdentity(t *testing.T) {
	for _, trial := range []int{0, 3, 6, 9, 12} {
		pd, seed := denseTrialProblem(trial)
		sparse := ising.NewSparseFromDense(pd.Coup.(*ising.Dense))
		ps, err := ising.NewProblem(sparse, pd.H, pd.Offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []sb.Variant{sb.Ballistic, sb.Discrete} {
			params := sb.DefaultParamsFor(v)
			params.Steps = 600
			params.Seed = seed
			bp := sb.BatchParams{Base: params, Replicas: 8}
			dres, dstats := sb.SolveBatch(context.Background(), pd, bp)
			sres, sstats := sb.SolveBatch(context.Background(), ps, bp)
			if math.Float64bits(dres.Energy) != math.Float64bits(sres.Energy) {
				t.Errorf("seed %d %v: dense energy %.17g != sparse %.17g", seed, v, dres.Energy, sres.Energy)
			}
			if dres.Iterations != sres.Iterations {
				t.Errorf("seed %d %v: dense iterations %d != sparse %d", seed, v, dres.Iterations, sres.Iterations)
			}
			for i := range dres.Spins {
				if dres.Spins[i] != sres.Spins[i] {
					t.Errorf("seed %d %v: winning spins differ at %d", seed, v, i)
					break
				}
			}
			for r := range dstats.Energies {
				if math.Float64bits(dstats.Energies[r]) != math.Float64bits(sstats.Energies[r]) {
					t.Errorf("seed %d %v replica %d: dense %.17g != sparse %.17g",
						seed, v, r, dstats.Energies[r], sstats.Energies[r])
				}
			}
		}
	}
}

// TestOracleQuantizedEnvelope: the int8/int16 fast path perturbs each
// coupling by at most scale/2, which on these small instances is far
// below the spectral gap — so the quantized dSB batch must still land on
// the exhaustively verified ground state, and because sample energies
// are evaluated against the exact float J, the reported energy matches
// the true ground energy to oracle tolerance (not merely to the
// quantization envelope). This pins the envelope contract end to end:
// kernel-level deviation is bounded (TestQuantizeErrorEnvelope), and
// solve-level answers stay exact. The ising.bitpack.pack failpoint keeps
// every trial on the scalar integer kernels;
// TestOracleBitPackedGroundState covers the bit-planes.
func TestOracleQuantizedEnvelope(t *testing.T) {
	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	for _, trial := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14} {
		p, seed := denseTrialProblem(trial)
		_, ground := ising.BruteForce(p)

		params := sb.DefaultParamsFor(sb.Discrete)
		params.Steps = 2000
		params.Seed = seed
		params.Quantize = true
		res, stats := sb.SolveBatch(context.Background(), p, sb.BatchParams{Base: params, Replicas: 16})
		if !res.Quantized || res.BitPacked {
			t.Fatalf("seed %d: scalar quantized fast path not taken", seed)
		}
		if got := p.Energy(res.Spins); math.Abs(got-res.Energy) > oracleTol {
			t.Errorf("seed %d: reported energy %.12f but spins evaluate to %.12f (exact J)", seed, res.Energy, got)
		}
		if math.Abs(res.Energy-ground) > oracleTol {
			t.Errorf("seed %d: quantized dSB energy %.12f, ground %.12f", seed, res.Energy, ground)
		}
		if stats.Replicas != 16 {
			t.Errorf("seed %d: stats report %d replicas, want 16", seed, stats.Replicas)
		}
	}
}

// padFerro embeds p in an n-spin dense problem: spins beyond p.N() form
// a ferromagnetic block (every pair coupled +0.5, no bias) that does not
// touch p's spins. Aligning the block is its unique ground state up to
// a global flip, so the padded ground energy is p's minus half the
// pad's pair count.
func padFerro(p *ising.Problem, n int) (*ising.Problem, float64) {
	m := p.N()
	src := p.Coup.(*ising.Dense)
	d := ising.NewDense(n)
	h := make([]float64, n)
	copy(h, p.H)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d.Set(i, j, src.At(i, j))
		}
	}
	for i := m; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, 0.5)
		}
	}
	out, err := ising.NewProblem(d, h, 0)
	if err != nil {
		panic(err)
	}
	return out, -0.5 * float64((n-m)*(n-m-1)/2)
}

// TestOracleBitPackedGroundState closes the loop on the popcount
// engine: the bit-packed dSB batch is bit-identical to the scalar
// quantized one, so it must inherit the quantized envelope result —
// exhaustively verified ground states, exact reported energies. The
// dispatch packs a 16-lane int8 dense run from 36 spins on, too many to
// enumerate, so each 6–12-spin oracle instance is padded to 48 spins
// with a ferromagnetic block that does not touch it: the padded ground
// energy is the brute-force one plus the block's closed-form minimum,
// and a quantized solve of the whole picks the bit-planes. Every trial
// must match its scalar run (the ising.bitpack.pack failpoint) bit for
// bit and reach the padded ground state, which float dSB reaches on
// every trial too.
func TestOracleBitPackedGroundState(t *testing.T) {
	defer fault.DisarmAll()
	for trial := 0; trial < 14; trial++ {
		block, seed := denseTrialProblem(trial)
		_, ground := ising.BruteForce(block)
		p, padGround := padFerro(block, 48)
		ground += padGround

		params := sb.DefaultParamsFor(sb.Discrete)
		params.Steps = 2000
		params.Seed = seed
		params.Quantize = true
		bp := sb.BatchParams{Base: params, Replicas: 16}
		res, stats := sb.SolveBatch(context.Background(), p, bp)
		if !res.Quantized || !res.BitPacked {
			t.Fatalf("seed %d: bit-packed fast path not taken (quantized=%v bitpacked=%v)",
				seed, res.Quantized, res.BitPacked)
		}
		fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
		scalar, _ := sb.SolveBatch(context.Background(), p, bp)
		fault.DisarmAll()
		if math.Float64bits(scalar.Energy) != math.Float64bits(res.Energy) || !slices.Equal(scalar.Spins, res.Spins) {
			t.Errorf("seed %d: packed energy %.17g differs from the scalar quantized run's %.17g", seed, res.Energy, scalar.Energy)
		}
		if got := p.Energy(res.Spins); math.Abs(got-res.Energy) > oracleTol {
			t.Errorf("seed %d: reported energy %.12f but spins evaluate to %.12f (exact J)", seed, res.Energy, got)
		}
		if math.Abs(res.Energy-ground) > oracleTol {
			t.Errorf("seed %d: bit-packed dSB energy %.12f, ground %.12f", seed, res.Energy, ground)
		}
		if stats.Replicas != 16 {
			t.Errorf("seed %d: stats report %d replicas, want 16", seed, stats.Replicas)
		}
	}
}

// randomCOP draws a core COP over a random disjoint partition with
// independent nonnegative entry costs. The (vars, freeSize) pairs keep
// the spin count 2r + c at or below 12 so both enumerations stay instant.
func randomCOP(trial int, rng *rand.Rand) *core.COP {
	shapes := []struct{ vars, free int }{
		{3, 1}, // r=2, c=4: 8 spins
		{3, 2}, // r=4, c=2: 10 spins
		{4, 1}, // r=2, c=8: 12 spins
		{4, 2}, // r=4, c=4: 12 spins
	}
	s := shapes[trial%len(shapes)]
	part := partition.Random(s.vars, s.free, rng)
	r, c := part.Rows(), part.Cols()
	cop := &core.COP{Part: part, R: r, C: c,
		Cost0: make([]float64, r*c), Cost1: make([]float64, r*c)}
	for k := range cop.Cost0 {
		cop.Cost0[k] = rng.Float64()
		cop.Cost1[k] = rng.Float64()
	}
	return cop
}

// TestOracleCoreCOP: on 25 random tiny core COPs, column-space brute
// force, spin-space brute force over the Ising encoding, and the row ILP
// all report the same optimum; the paper-faithful solver (bSB batch with
// the Theorem-3 intervention) and SA reach the ground state.
func TestOracleCoreCOP(t *testing.T) {
	// Trial 20 is the one instance (of 30 probed) where the bSB attractor
	// stays above the optimum even with the Theorem-3 intervention.
	trials := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 25}
	for _, trial := range trials {
		seed := int64(5000 + trial)
		rng := rand.New(rand.NewSource(seed))
		cop := randomCOP(trial, rng)

		_, colOpt := core.BruteForce(cop)

		f := core.Formulate(cop)
		groundSpins, groundE := ising.BruteForce(f.Problem)
		if obj := f.Problem.ObjectiveValue(groundSpins); math.Abs(obj-colOpt) > oracleTol {
			t.Errorf("seed %d: Ising ground objective %.12f, column brute force %.12f", seed, obj, colOpt)
		}
		if setting := f.DecodeSpins(groundSpins); math.Abs(cop.SettingCost(setting)-colOpt) > oracleTol {
			t.Errorf("seed %d: decoded ground setting costs %.12f, column brute force %.12f",
				seed, cop.SettingCost(setting), colOpt)
		}

		sol := ilp.SolveRowCOP(context.Background(), cop.RowInstance(), ilp.Options{})
		if !sol.Optimal {
			t.Errorf("seed %d: ILP did not prove optimality", seed)
		}
		if math.Abs(sol.Cost-colOpt) > oracleTol {
			t.Errorf("seed %d: ILP optimum %.12f, column brute force %.12f", seed, sol.Cost, colOpt)
		}

		opts := core.DefaultSolverOptions()
		opts.SB.Seed = seed
		bsb := core.SolveBSBBatch(context.Background(), cop, opts, 16)
		if math.Abs(bsb.Cost-colOpt) > oracleTol {
			t.Errorf("seed %d: bSB+Theorem3 batch cost %.12f, optimum %.12f", seed, bsb.Cost, colOpt)
		}
		if bsb.Batch == nil || bsb.Batch.Replicas != 16 {
			t.Errorf("seed %d: batch solution missing replica stats", seed)
		}

		if e := saEnergy(f.Problem, seed); math.Abs(e-groundE) > oracleTol {
			t.Errorf("seed %d: SA best energy %.12f, ground %.12f", seed, e, groundE)
		}
	}
}

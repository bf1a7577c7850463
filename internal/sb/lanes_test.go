package sb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// bipartiteProblem builds a core-COP-shaped instance on the Twin coupler
// (c U spins against r pairs) so the lane tests also exercise its
// batched kernel.
func bipartiteProblem(c, r int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	b := ising.NewTwin(c, r)
	col := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := range col {
			col[j] = rng.NormFloat64()
		}
		b.SetColumn(i, col)
	}
	h := make([]float64, b.N())
	for i := range h {
		h[i] = rng.NormFloat64() * 0.2
	}
	p, err := ising.NewProblem(b, h, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// assertLanesMatchSingles is the lane property every batch contract
// reduces to: lane k of an r-replica batch equals, bit for bit, the
// r = 1 solve with seed Base.Seed + k — energy, iterations, stop reason
// and divergence flags per launched replica, and for the winner its
// spins, samples, trace and kernel flags; the winner is the lowest
// energy, ties to the lowest index. arm, when non-nil, re-arms the
// failpoints before every solve. It returns the batch outcome.
func assertLanesMatchSingles(t *testing.T, label string, p *ising.Problem, bp BatchParams, arm func()) (Result, Stats) {
	t.Helper()
	if arm != nil {
		arm()
	}
	res, st := SolveBatch(context.Background(), p, bp)
	for k := 0; k < st.Launched; k++ {
		params := bp.Base
		params.Seed = bp.Base.Seed + int64(k)
		if arm != nil {
			arm()
		}
		single := SolveWith(context.Background(), p, params, NewWorkspace(p.N()))
		if math.Float64bits(st.Energies[k]) != math.Float64bits(single.Energy) || st.Iterations[k] != single.Iterations ||
			st.Stopped[k] != single.Stopped || st.EarlyStopped[k] != single.StoppedEarly ||
			st.Diverged[k] != single.Diverged || st.Rescued[k] != single.Rescued {
			t.Fatalf("%s: lane %d (E=%g, it=%d, %v, early=%v, div=%v, res=%v) != r=1 solve (E=%g, it=%d, %v, early=%v, div=%v, res=%v)",
				label, k, st.Energies[k], st.Iterations[k], st.Stopped[k], st.EarlyStopped[k], st.Diverged[k], st.Rescued[k],
				single.Energy, single.Iterations, single.Stopped, single.StoppedEarly, single.Diverged, single.Rescued)
		}
		if k != st.BestReplica {
			continue
		}
		assertSameTrajectory(t, single, res, fmt.Sprintf("%s: winner lane %d", label, k))
		if res.Samples != single.Samples || res.StoppedEarly != single.StoppedEarly || res.Rescued != single.Rescued ||
			res.Quantized != single.Quantized || res.BitPacked != single.BitPacked || len(res.Trace) != len(single.Trace) {
			t.Fatalf("%s: winner lane %d run shape %+v != r=1 solve %+v", label, k,
				[]any{res.Samples, res.StoppedEarly, res.Rescued, res.Quantized, res.BitPacked, len(res.Trace)},
				[]any{single.Samples, single.StoppedEarly, single.Rescued, single.Quantized, single.BitPacked, len(single.Trace)})
		}
		for i := range res.Trace {
			if math.Float64bits(res.Trace[i]) != math.Float64bits(single.Trace[i]) {
				t.Fatalf("%s: winner trace differs at sample %d", label, i)
			}
		}
	}
	for k := 0; k < st.Launched; k++ {
		if e, best := st.Energies[k], st.Energies[st.BestReplica]; e < best || e == best && k < st.BestReplica {
			t.Fatalf("%s: BestReplica %d (E=%g) but replica %d has E=%g", label, st.BestReplica, best, k, e)
		}
	}
	return res, st
}

// TestSolveFusedBitIdenticalToUnfused is the core determinism contract
// (named for the two engines it once compared): every lane of a batch
// reproduces its r = 1 solve bit for bit — winner, per-replica energies,
// iteration counts, stop reasons — across variants, stop configurations,
// seeds and both coupler shapes, plain and with a steering OnSample hook
// and trace recording on.
func TestSolveFusedBitIdenticalToUnfused(t *testing.T) {
	problems := map[string]*ising.Problem{
		"dense":     randomProblem(17, 31),
		"bipartite": bipartiteProblem(5, 7, 32),
	}
	stops := map[string]*StopCriteria{
		"nostop": nil,
		// A loose epsilon so some (not necessarily all) replicas retire
		// early and the lane-compaction path is exercised.
		"dynstop": {F: 5, S: 4, Epsilon: 1e-3},
		// Looser, with a short burn-in: replicas retire at scattered
		// iterations, so compaction moves running lanes mid-ramp.
		"staggered": {F: 3, S: 4, Epsilon: 3e-1, MinIters: 10},
	}
	for pname, p := range problems {
		for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
			for sname, stop := range stops {
				for _, seed := range []int64{1, 99} {
					for _, hooked := range []bool{false, true} {
						base := DefaultParamsFor(v)
						base.Steps = 240
						base.Seed = seed
						base.Stop = stop
						base.SampleEvery = 15
						if hooked {
							base.OnSample = steerHook
							base.RecordTrace = true
						}
						label := fmt.Sprintf("%s/%v/%s/seed=%d/hooked=%v", pname, v, sname, seed, hooked)
						assertLanesMatchSingles(t, label, p, BatchParams{Base: base, Replicas: 5}, nil)
					}
				}
			}
		}
	}
}

// TestSolveFusedLaneRetirement pins the dynamic-stop narrowing: with an
// aggressive epsilon every replica converges early, EarlyStops counts
// them, and each retired replica's stats match its independent run.
func TestSolveFusedLaneRetirement(t *testing.T) {
	p := randomProblem(12, 41)
	base := DefaultParams()
	base.Steps = 2000
	base.Stop = &StopCriteria{F: 4, S: 4, Epsilon: 1e-2}
	bp := BatchParams{Base: base, Replicas: 6}
	res, stats := assertLanesMatchSingles(t, "retirement", p, bp, nil)
	if stats.EarlyStops == 0 {
		t.Fatal("no replica retired early despite a loose stop criterion")
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("winner energy %g does not match spins (%g)", res.Energy, got)
	}
}

// TestSolveFusedPreCancelled pins the SolveBatch launch contract: an
// already-cancelled context launches exactly replica 0, which still
// returns a valid best-so-far state.
func TestSolveFusedPreCancelled(t *testing.T) {
	p := randomProblem(16, 43)
	base := DefaultParams()
	base.Steps = 100000
	base.SampleEvery = 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats := SolveBatch(ctx, p, BatchParams{Base: base, Replicas: 6})
	if stats.Launched != 1 {
		t.Fatalf("Launched = %d, want exactly replica 0", stats.Launched)
	}
	if stats.BestReplica != 0 || stats.Stopped[0] != metrics.StopCancelled {
		t.Fatalf("replica 0 outcome (best=%d, %v), want (0, cancelled)", stats.BestReplica, stats.Stopped[0])
	}
	if res.Iterations > 2*base.SampleEvery {
		t.Fatalf("ran %d iterations after pre-cancellation", res.Iterations)
	}
	for r := 1; r < stats.Replicas; r++ {
		if stats.Stopped[r] != metrics.StopNone || !math.IsInf(stats.Energies[r], 1) || stats.Iterations[r] != 0 {
			t.Fatalf("replica %d should be unlaunched, got (%v, E=%g, it=%d)",
				r, stats.Stopped[r], stats.Energies[r], stats.Iterations[r])
		}
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("winner energy %g does not match spins (%g)", res.Energy, got)
	}
}

// TestSolveFusedCancelMidRun cancels a long batch from another goroutine
// (run under -race in CI): every lane must retire promptly at the shared
// poll cadence with the cancellation reason.
func TestSolveFusedCancelMidRun(t *testing.T) {
	p := randomProblem(48, 44)
	base := DefaultParams()
	base.Steps = 50_000_000 // far beyond any test budget if run to completion
	base.SampleEvery = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, stats := SolveBatch(ctx, p, BatchParams{Base: base, Replicas: 8})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	if stats.BatchStopped != metrics.StopCancelled {
		t.Fatalf("BatchStopped = %v, want cancelled", stats.BatchStopped)
	}
	if stats.Launched != stats.Replicas {
		t.Fatalf("batch launched %d of %d lanes", stats.Launched, stats.Replicas)
	}
	// Lock-step lanes all observe the cancel at the same poll boundary.
	for r, reason := range stats.Stopped {
		if reason != metrics.StopCancelled {
			t.Fatalf("replica %d Stopped = %v, want cancelled", r, reason)
		}
		if stats.Iterations[r] != stats.Iterations[0] {
			t.Fatalf("lock-step lanes retired at different iterations: %v", stats.Iterations)
		}
		if stats.Iterations[r] >= base.Steps {
			t.Fatalf("replica %d reported cancelled after the full budget", r)
		}
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("winner energy %g does not match spins (%g)", res.Energy, got)
	}
}

// TestSolveFusedStepAllocs pins the batch's allocation shape: over a warm
// workspace the per-call cost is the Stats slices only, so doubling the
// step budget (and with it every per-step code path) must not change the
// allocation count.
func TestSolveFusedStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *ising.Problem
	}{{"dense", randomProblem(24, 45)}, {"twin", bipartiteProblem(96, 48, 45)}} {
		assertBatchAllocsConstant(t, tc.name, tc.p)
	}
}

// assertBatchAllocsConstant checks that a warm batch's allocations do
// not grow with the step count and stay at the Stats slices, on every
// variant.
func assertBatchAllocsConstant(t *testing.T, name string, p *ising.Problem) {
	t.Helper()
	for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
		base := DefaultParamsFor(v)
		base.Stop = &StopCriteria{F: 10, S: 5, Epsilon: 1e-300} // windows engaged, never fires
		bp := BatchParams{Base: base, Replicas: 6}
		ws := new(Workspace)
		measure := func(steps int) float64 {
			bp.Base.Steps = steps
			solveBatch(context.Background(), p, bp, ws) // warm up
			return testing.AllocsPerRun(10, func() {
				solveBatch(context.Background(), p, bp, ws)
			})
		}
		short, long := measure(100), measure(200)
		if short != long {
			t.Errorf("%s/%v: allocations scale with steps (%.1f at 100, %.1f at 200); the per-step path allocates", name, v, short, long)
		}
		// The constant is the Stats slices; anything larger means the
		// engine grew a hidden per-call allocation.
		if long > 6 {
			t.Errorf("%s/%v: %f allocations per batch call, want <= 6 (Stats slices only)", name, v, long)
		}
	}
}

// countingCoupler wraps a BatchCoupler and counts norm scans, scalar and
// batched field calls; it lets the tests observe how often the O(n²)
// norm scan was taken and how many field products a solve computed.
type countingCoupler struct {
	inner      ising.BatchCoupler
	normScans  atomic.Int64
	fieldCalls atomic.Int64
	batchCalls atomic.Int64
}

func (c *countingCoupler) N() int { return c.inner.N() }
func (c *countingCoupler) Field(x, out []float64) {
	c.fieldCalls.Add(1)
	c.inner.Field(x, out)
}
func (c *countingCoupler) At(i, j int) float64 { return c.inner.At(i, j) }
func (c *countingCoupler) FrobeniusNorm() float64 {
	c.normScans.Add(1)
	return c.inner.FrobeniusNorm()
}
func (c *countingCoupler) FieldBatch(x, out []float64, r int) {
	c.batchCalls.Add(1)
	c.inner.FieldBatch(x, out, r)
}

func countingProblem(n int, seed int64) (*ising.Problem, *countingCoupler) {
	inner := randomProblem(n, seed)
	cc := &countingCoupler{inner: inner.Coup.(ising.BatchCoupler)}
	p, err := ising.NewProblem(cc, inner.H, 0)
	if err != nil {
		panic(err)
	}
	return p, cc
}

// TestSolveBatchNormScannedOncePerBatch is the autoC0 regression test:
// with C0 == 0 a batch must resolve the coupling norm exactly once, not
// once per replica.
func TestSolveBatchNormScannedOncePerBatch(t *testing.T) {
	base := DefaultParams()
	base.Steps = 50
	for _, replicas := range []int{1, 8} {
		p, cc := countingProblem(10, 46)
		SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: replicas})
		if got := cc.normScans.Load(); got != 1 {
			t.Errorf("%d norm scans for a %d-replica batch, want 1", got, replicas)
		}
	}
}

// TestSolveFusedWorkspaceReuse runs batches of different shapes through
// one workspace; results must match fresh-workspace runs exactly.
func TestSolveFusedWorkspaceReuse(t *testing.T) {
	ws := new(Workspace)
	base := DefaultParams()
	base.Steps = 120
	for _, shape := range []struct{ n, r int }{{8, 3}, {20, 6}, {6, 2}, {12, 1}} {
		p := randomProblem(shape.n, int64(shape.n))
		bp := BatchParams{Base: base, Replicas: shape.r}
		got, gs := solveBatch(context.Background(), p, bp, ws)
		want, fs := SolveBatch(context.Background(), p, bp)
		if got.Energy != want.Energy || gs.BestReplica != fs.BestReplica {
			t.Fatalf("n=%d r=%d: reused workspace (E=%g, best=%d) != fresh (E=%g, best=%d)",
				shape.n, shape.r, got.Energy, gs.BestReplica, want.Energy, fs.BestReplica)
		}
		for i := range got.Spins {
			if got.Spins[i] != want.Spins[i] {
				t.Fatalf("n=%d r=%d: spins differ at %d", shape.n, shape.r, i)
			}
		}
	}
}

// withoutTwinCache runs f with the lane product caches off.
func withoutTwinCache(f func()) {
	noTwinCache = true
	defer func() { noTwinCache = false }()
	f()
}

// TestTwinCacheTrajectoryBitIdentical pins the lane product caches: on
// twins the shape rule accepts (c mod 32 and r mod 16 both nonzero in
// one of them), every variant's batch, with a steering hook and a
// staggered stop that retires lanes out of order (so compaction moves
// caches between slots), visits the same states bit for bit as the
// engine without caches — a stateDigest over every sampled x and y —
// and every lane equals its r = 1 solve.
func TestTwinCacheTrajectoryBitIdentical(t *testing.T) {
	for _, shape := range [][2]int{{97, 45}, {64, 64}} {
		p := bipartiteProblem(shape[0], shape[1], int64(shape[0]))
		if !p.Coup.(*ising.Twin).CachePays() {
			t.Fatalf("%v: the shape rule rejects the test twin", shape)
		}
		outOfOrder := false
		for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
			for _, hooked := range []bool{false, true} {
				base := DefaultParamsFor(v)
				base.Steps = 300
				base.Seed = 5
				base.SampleEvery = 7
				base.Stop = &StopCriteria{F: 3, S: 4, Epsilon: 5e-2, MinIters: 20}
				label := fmt.Sprintf("%dx%d/%v/hooked=%v", shape[0], shape[1], v, hooked)
				run := func() (uint64, Stats) {
					var d stateDigest
					bp := BatchParams{Base: base, Replicas: 5}
					bp.Base.OnSample = func(iter int, x, y []float64) {
						if hooked {
							steerHook(iter, x, y)
						}
						d.hook(iter, x, y)
					}
					_, st := SolveBatch(context.Background(), p, bp)
					return d.sum, st
				}
				cached, st := run()
				var plain uint64
				withoutTwinCache(func() { plain, _ = run() })
				if cached != plain {
					t.Fatalf("%s: cached lanes visit other states than uncached ones", label)
				}
				outOfOrder = outOfOrder || !inOrder(st.Iterations)
				bp := BatchParams{Base: base, Replicas: 5}
				if hooked {
					bp.Base.OnSample = steerHook
				}
				assertLanesMatchSingles(t, label, p, bp, nil)
			}
		}
		if !outOfOrder {
			t.Fatalf("%v: no batch retired its lanes out of launch order", shape)
		}
	}
}

// inOrder reports whether the replicas' iteration counts never
// decrease, i.e. no replica retired before a lower-indexed one.
func inOrder(iters []int) bool {
	for k := 1; k < len(iters); k++ {
		if iters[k] < iters[k-1] {
			return false
		}
	}
	return true
}

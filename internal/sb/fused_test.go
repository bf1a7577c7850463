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
// (c U spins against r pairs) so the fused tests also exercise its
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

// assertSameBatch compares a fused and an unfused batch outcome field by
// field, bitwise — the determinism contract SolveFused advertises.
func assertSameBatch(t *testing.T, label string, fr Result, fs Stats, ur Result, us Stats) {
	t.Helper()
	if fr.Energy != ur.Energy || fr.Objective != ur.Objective {
		t.Fatalf("%s: fused winner E=%g/obj=%g, unfused E=%g/obj=%g",
			label, fr.Energy, fr.Objective, ur.Energy, ur.Objective)
	}
	if fr.Iterations != ur.Iterations || fr.Samples != ur.Samples ||
		fr.Stopped != ur.Stopped || fr.StoppedEarly != ur.StoppedEarly {
		t.Fatalf("%s: fused winner run shape (it=%d, s=%d, %v, early=%v) != unfused (it=%d, s=%d, %v, early=%v)",
			label, fr.Iterations, fr.Samples, fr.Stopped, fr.StoppedEarly,
			ur.Iterations, ur.Samples, ur.Stopped, ur.StoppedEarly)
	}
	for i := range fr.Spins {
		if fr.Spins[i] != ur.Spins[i] {
			t.Fatalf("%s: winner spins differ at %d", label, i)
		}
	}
	if fs.BestReplica != us.BestReplica || fs.Launched != us.Launched ||
		fs.Replicas != us.Replicas || fs.EarlyStops != us.EarlyStops ||
		fs.BatchStopped != us.BatchStopped {
		t.Fatalf("%s: fused batch stats (%d, %d/%d, early=%d, %v) != unfused (%d, %d/%d, early=%d, %v)",
			label, fs.BestReplica, fs.Launched, fs.Replicas, fs.EarlyStops, fs.BatchStopped,
			us.BestReplica, us.Launched, us.Replicas, us.EarlyStops, us.BatchStopped)
	}
	for r := range fs.Energies {
		if fs.Energies[r] != us.Energies[r] || fs.Iterations[r] != us.Iterations[r] ||
			fs.Stopped[r] != us.Stopped[r] || fs.EarlyStopped[r] != us.EarlyStopped[r] {
			t.Fatalf("%s: replica %d stats diverge: fused (E=%g, it=%d, %v, early=%v), unfused (E=%g, it=%d, %v, early=%v)",
				label, r, fs.Energies[r], fs.Iterations[r], fs.Stopped[r], fs.EarlyStopped[r],
				us.Energies[r], us.Iterations[r], us.Stopped[r], us.EarlyStopped[r])
		}
	}
}

// TestSolveFusedBitIdenticalToUnfused is the core determinism contract:
// for equal Base.Seed the fused engine reproduces the unfused batch
// bit for bit — winner, per-replica energies, iteration counts, stop
// reasons — across variants, stop configurations, seeds, and both
// coupler shapes.
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
	}
	for pname, p := range problems {
		for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
			for sname, stop := range stops {
				for _, seed := range []int64{1, 99} {
					base := DefaultParamsFor(v)
					base.Steps = 240
					base.Seed = seed
					base.Stop = stop
					bp := BatchParams{Base: base, Replicas: 5}
					label := fmt.Sprintf("%s/%v/%s/seed=%d", pname, v, sname, seed)

					fr, fs := SolveFused(context.Background(), p, bp)
					ubp := bp
					ubp.Fused = FuseOff
					ur, us := SolveBatch(context.Background(), p, ubp)
					assertSameBatch(t, label, fr, fs, ur, us)

					// And the auto dispatcher picks the same (fused) path.
					ar, as := SolveBatch(context.Background(), p, bp)
					assertSameBatch(t, label+"/auto", ar, as, ur, us)
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
	res, stats := SolveFused(context.Background(), p, bp)
	if stats.EarlyStops == 0 {
		t.Fatal("no replica retired early despite a loose stop criterion")
	}
	for r := 0; r < stats.Replicas; r++ {
		params := base
		params.Seed = base.Seed + int64(r)
		single := Solve(p, params)
		if stats.Energies[r] != single.Energy || stats.Iterations[r] != single.Iterations ||
			stats.EarlyStopped[r] != single.StoppedEarly {
			t.Fatalf("replica %d (E=%g, it=%d, early=%v) != independent run (E=%g, it=%d, early=%v)",
				r, stats.Energies[r], stats.Iterations[r], stats.EarlyStopped[r],
				single.Energy, single.Iterations, single.StoppedEarly)
		}
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("winner energy %g does not match spins (%g)", res.Energy, got)
	}
}

// TestSolveFusedPreCancelled mirrors the SolveBatch dispatch contract: an
// already-cancelled context launches exactly replica 0, which still
// returns a valid best-so-far state.
func TestSolveFusedPreCancelled(t *testing.T) {
	p := randomProblem(16, 43)
	base := DefaultParams()
	base.Steps = 100000
	base.SampleEvery = 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats := SolveFused(ctx, p, BatchParams{Base: base, Replicas: 6})
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

// TestSolveFusedCancelMidRun cancels a long fused batch from another
// goroutine (run under -race in CI): every lane must retire promptly at
// the shared poll cadence with the cancellation reason.
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
	res, stats := SolveFused(ctx, p, BatchParams{Base: base, Replicas: 8})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled fused batch took %v to return", elapsed)
	}
	if stats.BatchStopped != metrics.StopCancelled {
		t.Fatalf("BatchStopped = %v, want cancelled", stats.BatchStopped)
	}
	if stats.Launched != stats.Replicas {
		t.Fatalf("fused batch launched %d of %d lanes", stats.Launched, stats.Replicas)
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

// TestSolveFusedStepAllocs pins the fused engine's allocation shape: the
// per-call cost is the Stats slices only, so doubling the step budget
// (and with it every per-step code path) must not change the allocation
// count measured over a warm workspace.
func TestSolveFusedStepAllocs(t *testing.T) {
	p := randomProblem(24, 45)
	for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
		base := DefaultParamsFor(v)
		base.Stop = &StopCriteria{F: 10, S: 5, Epsilon: 1e-300} // windows engaged, never fires
		bp := BatchParams{Base: base, Replicas: 6}
		fw := NewFusedWorkspace(p.N(), 6)
		measure := func(steps int) float64 {
			bp.Base.Steps = steps
			SolveFusedWith(context.Background(), p, bp, fw) // warm up
			return testing.AllocsPerRun(10, func() {
				SolveFusedWith(context.Background(), p, bp, fw)
			})
		}
		short, long := measure(100), measure(200)
		if short != long {
			t.Errorf("%v: allocations scale with steps (%.1f at 100, %.1f at 200); the per-step path allocates", v, short, long)
		}
		// The constant is the Stats slices; anything larger means the
		// engine grew a hidden per-call allocation.
		if long > 6 {
			t.Errorf("%v: %f allocations per fused call, want <= 6 (Stats slices only)", v, long)
		}
	}
}

// countingCoupler wraps a BatchCoupler and counts norm scans, scalar and
// batched field calls; it lets the tests observe which engine ran, how
// often the O(n²) norm scan was taken, and how many field products a
// solve computed.
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
// with C0 == 0 a batch must resolve the coupling norm exactly once, on
// both engines — not once per replica as the old per-replica autoC0 did.
func TestSolveBatchNormScannedOncePerBatch(t *testing.T) {
	base := DefaultParams()
	base.Steps = 50
	for _, mode := range []FuseMode{FuseOff, FuseOn} {
		p, cc := countingProblem(10, 46)
		bp := BatchParams{Base: base, Replicas: 8, Fused: mode}
		SolveBatch(context.Background(), p, bp)
		if got := cc.normScans.Load(); got != 1 {
			t.Errorf("mode %d: %d norm scans for an 8-replica batch, want 1", mode, got)
		}
	}
}

// TestSolveBatchAutoDispatch pins the FuseAuto routing: an eligible
// multi-replica batch runs batched field products; a batch with a
// per-replica hook falls back to per-replica scalar Field calls.
func TestSolveBatchAutoDispatch(t *testing.T) {
	base := DefaultParams()
	base.Steps = 50

	p, cc := countingProblem(10, 47)
	SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: 4})
	if cc.batchCalls.Load() == 0 {
		t.Error("eligible batch did not auto-fuse (no batched field calls)")
	}

	p, cc = countingProblem(10, 47)
	hooked := BatchParams{
		Base:     base,
		Replicas: 4,
		MakeOnSample: func(int) func(int, []float64, []float64) {
			return func(int, []float64, []float64) {}
		},
	}
	SolveBatch(context.Background(), p, hooked)
	if cc.batchCalls.Load() != 0 {
		t.Error("batch with per-replica hooks must not fuse")
	}
}

// TestSolveBatchFuseOnRejectsHooks: forcing fusion with per-replica
// control flow is a programming error, reported loudly.
func TestSolveBatchFuseOnRejectsHooks(t *testing.T) {
	p := randomProblem(8, 48)
	base := DefaultParams()
	base.Steps = 50
	base.RecordTrace = true
	defer func() {
		if recover() == nil {
			t.Fatal("FuseOn with RecordTrace did not panic")
		}
	}()
	SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: 4, Fused: FuseOn})
}

// TestSolveFusedWorkspaceReuse runs batches of different shapes through
// one workspace; results must match fresh-workspace runs exactly.
func TestSolveFusedWorkspaceReuse(t *testing.T) {
	fw := new(FusedWorkspace)
	base := DefaultParams()
	base.Steps = 120
	for _, shape := range []struct{ n, r int }{{8, 3}, {20, 6}, {6, 2}} {
		p := randomProblem(shape.n, int64(shape.n))
		bp := BatchParams{Base: base, Replicas: shape.r}
		got, gs := SolveFusedWith(context.Background(), p, bp, fw)
		want, ws := SolveFused(context.Background(), p, bp)
		if got.Energy != want.Energy || gs.BestReplica != ws.BestReplica {
			t.Fatalf("n=%d r=%d: reused workspace (E=%g, best=%d) != fresh (E=%g, best=%d)",
				shape.n, shape.r, got.Energy, gs.BestReplica, want.Energy, ws.BestReplica)
		}
		for i := range got.Spins {
			if got.Spins[i] != want.Spins[i] {
				t.Fatalf("n=%d r=%d: spins differ at %d", shape.n, shape.r, i)
			}
		}
	}
}

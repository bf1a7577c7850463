package sb

import (
	"context"
	"math"
	"testing"
	"time"

	"isinglut/internal/metrics"
)

// TestSolveWithPreCancelledContext: a context cancelled before the solve
// starts must stop the run at the first poll point, still returning a
// valid (if unconverged) rounded state.
func TestSolveWithPreCancelledContext(t *testing.T) {
	p := randomProblem(16, 21)
	params := DefaultParams()
	params.Steps = 100000
	params.SampleEvery = 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := SolveWith(ctx, p, params, NewWorkspace(p.N()))
	if res.Stopped != metrics.StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, metrics.StopCancelled)
	}
	if res.Iterations > 2*params.SampleEvery {
		t.Fatalf("ran %d iterations after pre-cancellation (sample period %d)",
			res.Iterations, params.SampleEvery)
	}
	if len(res.Spins) != p.N() {
		t.Fatalf("got %d spins, want %d", len(res.Spins), p.N())
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("reported energy %g does not match spins (%g)", res.Energy, got)
	}
}

// TestSolveWithExpiredDeadline distinguishes the deadline reason from
// plain cancellation.
func TestSolveWithExpiredDeadline(t *testing.T) {
	p := randomProblem(16, 22)
	params := DefaultParams()
	params.Steps = 100000
	params.SampleEvery = 10
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := SolveWith(ctx, p, params, NewWorkspace(p.N()))
	if res.Stopped != metrics.StopDeadline {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, metrics.StopDeadline)
	}
}

// TestSolveWithUncancelledContextCompletes: a live but never-fired
// context must not perturb the run — the result matches the
// context-free solve exactly.
func TestSolveWithUncancelledContextCompletes(t *testing.T) {
	p := randomProblem(20, 23)
	params := DefaultParams()
	params.Steps = 400
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := SolveWith(ctx, p, params, NewWorkspace(p.N()))
	want := Solve(p, params)
	if got.Energy != want.Energy || got.Iterations != want.Iterations {
		t.Fatalf("live-context run (E=%g, it=%d) diverged from plain run (E=%g, it=%d)",
			got.Energy, got.Iterations, want.Energy, want.Iterations)
	}
	if got.Stopped != want.Stopped {
		t.Fatalf("Stopped = %v, want %v", got.Stopped, want.Stopped)
	}
	if got.Stopped.Interrupted() {
		t.Fatalf("uncancelled run reported interruption: %v", got.Stopped)
	}
}

// TestSolveBatchCancelledMidRunReturnsPromptly is the batch cancellation
// contract: cancelling a long batch returns promptly (each in-flight
// replica stops at its next sample point) with the best-so-far winner and
// partial per-replica Stats.
func TestSolveBatchCancelledMidRunReturnsPromptly(t *testing.T) {
	p := randomProblem(48, 24)
	params := DefaultParams()
	params.Steps = 2_000_000 // hours of work if run to completion
	params.SampleEvery = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, stats := SolveBatch(ctx, p, BatchParams{Base: params, Replicas: 8})
	elapsed := time.Since(start)

	// Generous promptness bound: a replica stops within one 16-iteration
	// sample period of the cancel, far under a second; the full batch
	// budget is ~minutes. Keep slack for loaded CI machines.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled batch took %v to return", elapsed)
	}
	if stats.BatchStopped != metrics.StopCancelled {
		t.Fatalf("BatchStopped = %v, want %v", stats.BatchStopped, metrics.StopCancelled)
	}
	if stats.BestReplica < 0 {
		t.Fatal("cancelled batch returned no winner")
	}
	if len(res.Spins) != p.N() {
		t.Fatalf("winner has %d spins, want %d", len(res.Spins), p.N())
	}
	if got := p.Energy(res.Spins); got != res.Energy {
		t.Fatalf("winner energy %g does not match its spins (%g)", res.Energy, got)
	}
	if stats.Launched < 1 || stats.Launched > stats.Replicas {
		t.Fatalf("Launched = %d out of range [1,%d]", stats.Launched, stats.Replicas)
	}
	launched := 0
	for r, reason := range stats.Stopped {
		switch reason {
		case metrics.StopNone: // never launched
			if stats.Iterations[r] != 0 {
				t.Fatalf("replica %d never launched but executed %d iterations", r, stats.Iterations[r])
			}
		case metrics.StopCancelled:
			launched++
			if stats.Iterations[r] >= params.Steps {
				t.Fatalf("replica %d reported cancelled after the full budget", r)
			}
		default:
			launched++
		}
	}
	if launched != stats.Launched {
		t.Fatalf("per-replica reasons count %d launched, Stats.Launched = %d", launched, stats.Launched)
	}
}

// TestSolveBatchUnlaunchedReplicaEnergiesAreInf is the regression test
// for the Stats.Energies contract on a cancelled batch: entries for
// never-launched replicas must be +Inf, not 0 — a zero reads as a valid
// (often winning) energy to any consumer scanning for a minimum without
// cross-checking Stopped. With +Inf, a naive argmin over Energies always
// agrees with BestReplica.
func TestSolveBatchUnlaunchedReplicaEnergiesAreInf(t *testing.T) {
	p := randomProblem(16, 26)
	params := DefaultParams()
	params.Steps = 2000
	params.SampleEvery = 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats := SolveBatch(ctx, p, BatchParams{Base: params, Replicas: 6})
	if stats.Launched >= stats.Replicas {
		t.Fatalf("pre-cancelled batch launched all %d replicas; need unlaunched slots", stats.Replicas)
	}
	for r, reason := range stats.Stopped {
		if reason == metrics.StopNone {
			if !math.IsInf(stats.Energies[r], 1) {
				t.Fatalf("unlaunched replica %d has energy %g, want +Inf", r, stats.Energies[r])
			}
			if stats.Iterations[r] != 0 {
				t.Fatalf("unlaunched replica %d reports %d iterations, want 0", r, stats.Iterations[r])
			}
		} else if math.IsInf(stats.Energies[r], 1) {
			t.Fatalf("launched replica %d kept the +Inf sentinel", r)
		}
	}
	// The sentinel makes the naive scan safe: argmin over Energies is the
	// batch winner even when the caller ignores Stopped entirely.
	argmin := -1
	for r, e := range stats.Energies {
		if argmin < 0 || e < stats.Energies[argmin] {
			argmin = r
		}
	}
	if argmin != stats.BestReplica {
		t.Fatalf("argmin over Energies = %d, BestReplica = %d (energies %v)",
			argmin, stats.BestReplica, stats.Energies)
	}
	if stats.Energies[stats.BestReplica] != res.Energy {
		t.Fatalf("winner energy mismatch: stats %g, result %g",
			stats.Energies[stats.BestReplica], res.Energy)
	}
}

// TestSolveBatchPreCancelledStillRunsReplicaZero: even an
// already-cancelled context yields one launched replica and a valid
// best state — a batch never returns nothing.
func TestSolveBatchPreCancelledStillRunsReplicaZero(t *testing.T) {
	p := randomProblem(16, 25)
	params := DefaultParams()
	params.Steps = 100000
	params.SampleEvery = 10
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, stats := SolveBatch(ctx, p, BatchParams{Base: params, Replicas: 6})
	if stats.Launched != 1 {
		t.Fatalf("Launched = %d, want exactly replica 0", stats.Launched)
	}
	if stats.BestReplica != 0 {
		t.Fatalf("BestReplica = %d, want 0", stats.BestReplica)
	}
	if stats.Stopped[0] != metrics.StopCancelled {
		t.Fatalf("replica 0 Stopped = %v, want %v", stats.Stopped[0], metrics.StopCancelled)
	}
	for r := 1; r < stats.Replicas; r++ {
		if stats.Stopped[r] != metrics.StopNone {
			t.Fatalf("replica %d Stopped = %v, want StopNone (never launched)", r, stats.Stopped[r])
		}
	}
	if len(res.Spins) != p.N() {
		t.Fatalf("got %d spins, want %d", len(res.Spins), p.N())
	}
	if stats.BatchStopped != metrics.StopCancelled {
		t.Fatalf("BatchStopped = %v, want %v", stats.BatchStopped, metrics.StopCancelled)
	}
}

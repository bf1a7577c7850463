package sb

import (
	"context"
	"time"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// batchMet instruments the replica-batch layer: batch runs and replica
// restarts.
var batchMet = metrics.ForSolver("sb.batch")

// BatchParams configures a multi-replica SB run. SB hardware and GPU
// implementations always run many replicas of the oscillator network in
// parallel and keep the best rounded state; this is the CPU counterpart,
// with the replicas as lanes of one lock-step engine.
type BatchParams struct {
	// Base holds the per-replica parameters; replica r runs with seed
	// Base.Seed + r. Base.OnSample, when set, runs for every replica.
	Base Params
	// Replicas is the number of independent trajectories (default 4).
	Replicas int
}

// Stats reports the full replica portfolio of one SolveBatch call, so
// callers can see the spread behind the winner: how tight the energy
// distribution is, how many replicas the dynamic stop cut short, and how
// much iteration budget the batch actually consumed.
type Stats struct {
	// Replicas is the number of trajectories requested; Launched is the
	// number actually run (1 when the context was already cancelled).
	Replicas int
	Launched int
	// Energies holds each replica's best rounded energy, indexed by
	// replica. Entries for never-launched replicas are +Inf, so a consumer
	// scanning for a minimum can never mistake an unlaunched slot for a
	// winning energy; Stopped still records StopNone for those slots.
	Energies []float64
	// Iterations holds each replica's executed Euler steps; entries for
	// never-launched replicas stay 0 (no steps were executed), which is
	// also their correct contribution to TotalIterations.
	Iterations []int
	// Stopped records why each launched replica ended (converged,
	// max-iters, cancelled, deadline, diverged); StopNone marks a replica
	// that was never launched.
	Stopped []metrics.StopReason
	// EarlyStopped marks the replicas whose dynamic stop criterion fired;
	// EarlyStops is their count.
	EarlyStopped []bool
	EarlyStops   int
	// Diverged marks the replicas quarantined by the numerical divergence
	// guard (their Energies entry is +Inf, their Stopped entry is
	// StopDiverged); Diverges is their count. Rescued marks the replicas
	// whose first divergence was re-seeded with a damped Dt instead
	// (Params.RescueDiverged); Rescues is their count.
	Diverged []bool
	Diverges int
	Rescued  []bool
	Rescues  int
	// BestReplica is the index of the winning replica (lowest energy,
	// ties toward the lowest index).
	BestReplica int
	// BatchStopped is the batch-level reason: StopCancelled/StopDeadline
	// when the context interrupted the batch, otherwise StopMaxIters (all
	// replicas ran their course).
	BatchStopped metrics.StopReason
}

// TotalIterations sums the executed Euler steps across replicas — the
// batch's whole iteration bill, for budget accounting.
func (s Stats) TotalIterations() int {
	total := 0
	for _, it := range s.Iterations {
		total += it
	}
	return total
}

// SolveBatch runs Replicas independent SB trajectories as lanes of the
// engine and returns the best result (ties broken toward the lowest
// replica index, so results are deterministic for a fixed Base.Seed)
// together with the per-replica statistics. Lane k is bit-identical to
// SolveWith with seed Base.Seed + k.
//
// Cancellation honors the sample-point granularity of SolveWith: when ctx
// fires, every running replica returns its best-so-far state within one
// sample period and the winner among them is returned with
// Stats.BatchStopped set. At least one replica is always run — even under
// an already-cancelled context the call returns a valid (if unconverged)
// state rather than discarding the request.
func SolveBatch(ctx context.Context, p *ising.Problem, bp BatchParams) (Result, Stats) {
	return solveBatch(ctx, p, bp, new(Workspace))
}

// solveBatch is SolveBatch inside a caller-owned workspace; the returned
// Stats slices are its only allocations once the workspace is warm.
func solveBatch(ctx context.Context, p *ising.Problem, bp BatchParams, ws *Workspace) (Result, Stats) {
	start := time.Now()
	replicas := bp.Replicas
	if replicas <= 0 {
		replicas = 4
	}
	res, best, launched := ws.run(ctx, p, bp.Base, replicas)
	stats := Stats{
		Replicas:     replicas,
		Launched:     launched,
		Energies:     make([]float64, replicas),
		Iterations:   make([]int, replicas),
		Stopped:      make([]metrics.StopReason, replicas),
		EarlyStopped: make([]bool, replicas),
		Diverged:     make([]bool, replicas),
		Rescued:      make([]bool, replicas),
		BestReplica:  best,
		BatchStopped: metrics.StopMaxIters,
	}
	for k, rs := range ws.reps {
		stats.Energies[k] = rs.bestE
		stats.Iterations[k] = rs.iters
		stats.Stopped[k] = rs.stopped
		stats.EarlyStopped[k] = rs.early
		stats.Diverged[k] = rs.diverged
		stats.Rescued[k] = rs.rescued
		if rs.early {
			stats.EarlyStops++
		}
		if rs.diverged {
			stats.Diverges++
		}
		if rs.rescued {
			stats.Rescues++
		}
	}
	if reason := metrics.ReasonFromContext(ctx); reason != metrics.StopNone {
		stats.BatchStopped = reason
	}

	batchMet.ObserveRun(time.Since(start), stats.BatchStopped)
	if launched > 1 {
		batchMet.Restarts.Add(int64(launched - 1))
	}
	return res, stats
}

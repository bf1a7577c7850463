package metrics

import (
	"expvar"
	"fmt"
	"io"
	"time"
)

// SolverSnapshot is a point-in-time copy of one solver's aggregates,
// shaped for programmatic scraping: plain integers and floats with stable
// JSON names, no atomics.
type SolverSnapshot struct {
	Name       string `json:"name"`
	Runs       int64  `json:"runs"`
	Iterations int64  `json:"iterations"`
	Samples    int64  `json:"samples"`
	Restarts   int64  `json:"restarts"`

	// Stop-reason tallies over completed runs, plus the robustness
	// counters: quarantined divergences and damped-Dt rescues of diverged
	// trajectories.
	Converged int64 `json:"converged"`
	MaxIters  int64 `json:"max_iters"`
	Cancelled int64 `json:"cancelled"`
	Deadline  int64 `json:"deadline"`
	Diverged  int64 `json:"diverged"`
	Rescues   int64 `json:"rescues"`

	// Wall-clock totals and the derived mean, in nanoseconds.
	SolveTimeNS int64 `json:"solve_time_ns"`
	MeanRunNS   int64 `json:"mean_run_ns"`

	// Utilization is worker busy time over capacity (batch wall clock x
	// workers) for the solver's parallel stages; 0 when it has none.
	Utilization float64 `json:"utilization,omitempty"`

	Latency HistogramSnapshot `json:"latency_us"`
	Energy  HistogramSnapshot `json:"energy_abs"`
}

// snapshot copies the solver's current aggregates.
func (s *Solver) snapshot() SolverSnapshot {
	snap := SolverSnapshot{
		Name:        s.Name,
		Runs:        s.Runs.Load(),
		Iterations:  s.Iterations.Load(),
		Samples:     s.Samples.Load(),
		Restarts:    s.Restarts.Load(),
		Converged:   s.Converged.Load(),
		MaxIters:    s.MaxIters.Load(),
		Cancelled:   s.Cancelled.Load(),
		Deadline:    s.Deadline.Load(),
		Diverged:    s.Diverged.Load(),
		Rescues:     s.Rescues.Load(),
		SolveTimeNS: int64(s.SolveTime.Total()),
		MeanRunNS:   int64(s.SolveTime.Mean()),
		Latency:     s.Latency.Snapshot(),
		Energy:      s.Energy.Snapshot(),
	}
	if capacity := s.WorkerCapacity.Total(); capacity > 0 {
		snap.Utilization = float64(s.WorkerBusy.Total()) / float64(capacity)
	}
	return snap
}

// Snapshot returns every registered solver's aggregates in registration
// order. The result is a deep copy: callers may hold it, marshal it, or
// diff two snapshots while the solvers keep running.
func Snapshot() []SolverSnapshot {
	mu.Lock()
	defer mu.Unlock()
	out := make([]SolverSnapshot, 0, len(order))
	for _, name := range order {
		out = append(out, solvers[name].snapshot())
	}
	return out
}

// Render writes a compact human-readable summary of a snapshot set — the
// CLI's -metrics output.
func Render(w io.Writer, snaps []SolverSnapshot) {
	fmt.Fprintf(w, "%-10s %8s %12s %10s %9s %9s %9s %8s %8s %12s %6s\n",
		"solver", "runs", "iterations", "samples", "converged", "max-iter", "cancelled", "deadline", "diverged", "total", "util")
	for _, s := range snaps {
		if s.Runs == 0 && s.Iterations == 0 {
			continue
		}
		util := "-"
		if s.Utilization > 0 {
			util = fmt.Sprintf("%.0f%%", s.Utilization*100)
		}
		fmt.Fprintf(w, "%-10s %8d %12d %10d %9d %9d %9d %8d %8d %12s %6s\n",
			s.Name, s.Runs, s.Iterations, s.Samples, s.Converged, s.MaxIters,
			s.Cancelled, s.Deadline, s.Diverged,
			time.Duration(s.SolveTimeNS).Round(time.Microsecond), util)
	}
}

// The full snapshot is published as the expvar "isinglut.metrics", so any
// binary in the module that serves HTTP (e.g. under the CLIs' -pprof
// flag) exposes solver metrics on /debug/vars with zero wiring.
func init() {
	expvar.Publish("isinglut.metrics", expvar.Func(func() any { return Snapshot() }))
}

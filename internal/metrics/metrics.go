// Package metrics is the solver observability layer: lock-free counters,
// wall-clock timers, and fixed-bucket histograms that every solver in the
// stack (sb, anneal, ilp, core, dalta) updates in flight, plus the shared
// StopReason vocabulary for context-aware cancellation.
//
// The package is built for hot paths: a warm solver loop records a run
// with a handful of atomic adds and zero heap allocations (the sb
// allocation-regression test pins this transitively). One registry holds
// every instrument set — the solvers (ForSolver), the serving layer's
// endpoints (ForService) and the shard-and-exchange layer (Shard) — and
// reads them all at once: Read copies it, Render prints it, Reset zeroes
// it, and it is published on the standard expvar surface as
// "isinglut.metrics", so any binary that serves HTTP (e.g. via the -pprof
// flag of the CLIs) exposes it on /debug/vars for free.
package metrics

import (
	"context"
	"sync/atomic"
	"time"
)

// StopReason reports why a solver run ended. It is the shared vocabulary
// of the context-aware cancellation layer: every solver returns one
// instead of discarding work, so callers always get the best-so-far state
// plus the reason it is not better.
type StopReason uint8

const (
	// StopNone is the zero value: the run never started or the reason was
	// not recorded (e.g. a batch replica that was skipped after
	// cancellation).
	StopNone StopReason = iota
	// StopConverged: a convergence criterion fired (the §3.3.1 dynamic
	// stop for SB, a proof of optimality for branch and bound, a fixed
	// point for coordinate descent).
	StopConverged
	// StopMaxIters: the configured iteration/step/node/round budget was
	// exhausted.
	StopMaxIters
	// StopCancelled: the caller's context was cancelled.
	StopCancelled
	// StopDeadline: the caller's context deadline (or the solver's own
	// time limit) expired.
	StopDeadline
	// StopDiverged: the run's dynamics produced non-finite state (NaN/±Inf
	// positions or energies) and the divergence guard quarantined it; the
	// reported energy is +Inf so the run can never win a portfolio scan.
	StopDiverged
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopConverged:
		return "converged"
	case StopMaxIters:
		return "max-iters"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	case StopDiverged:
		return "diverged"
	}
	return "unknown"
}

// Interrupted reports whether the run was cut short by its context rather
// than by its own termination logic.
func (r StopReason) Interrupted() bool {
	return r == StopCancelled || r == StopDeadline
}

// ReasonFromContext maps a context's error state to a StopReason:
// StopNone while the context is live, StopDeadline after its deadline,
// StopCancelled after an explicit cancel.
func ReasonFromContext(ctx context.Context) StopReason {
	switch ctx.Err() {
	case nil:
		return StopNone
	case context.DeadlineExceeded:
		return StopDeadline
	default:
		return StopCancelled
	}
}

// Counter is a lock-free monotonic counter. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// reset zeroes the counter (testing/Reset support).
func (c *Counter) reset() { c.v.Store(0) }

// Timer accumulates wall-clock durations atomically: total time and
// observation count. The zero value is ready to use.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Observe adds one duration to the total.
func (t *Timer) Observe(d time.Duration) {
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// Mean returns the average observed duration (0 with no observations).
func (t *Timer) Mean() time.Duration {
	n := t.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(t.ns.Load() / n)
}

func (t *Timer) reset() {
	t.ns.Store(0)
	t.count.Store(0)
}

// Solver is one solver's instrumentation set. All fields are safe for
// concurrent update; solvers hold the pointer returned by ForSolver in a
// package variable so the hot path never touches the registry. Each
// field's metric tag is its JSON name in the snapshot.
type Solver struct {
	// Runs counts completed solve calls; Iterations and Samples accumulate
	// the per-run iteration and sample/evaluation counts; Restarts counts
	// extra trajectories beyond the first (batch replicas, SA restarts).
	Runs       Counter `metric:"runs"`
	Iterations Counter `metric:"iterations"`
	Samples    Counter `metric:"samples"`
	Restarts   Counter `metric:"restarts"`

	// Stop-reason tallies: every completed run increments exactly one.
	Converged Counter `metric:"converged"`
	MaxIters  Counter `metric:"max_iters"`
	Cancelled Counter `metric:"cancelled"`
	Deadline  Counter `metric:"deadline"`
	// Diverged counts runs (or replica lanes) quarantined by the numerical
	// divergence guard. Rescues counts diverged trajectories that were
	// re-seeded once with a damped time step instead of being quarantined
	// outright (incremented directly by the engines, not via ObserveRun —
	// a rescued run still completes with its own stop reason).
	Diverged Counter `metric:"diverged"`
	Rescues  Counter `metric:"rescues"`

	// SolveTime accumulates per-run wall clock; Latency buckets the same
	// observations (microsecond power-of-two bounds) for tail inspection.
	SolveTime Timer      `metric:"solve_time_ns,mean_run_ns"`
	Latency   *Histogram `metric:"latency_us"`

	// Energy buckets |best energy| magnitudes (power-of-two bounds) so a
	// scrape shows the scale of the problems a deployment actually solves.
	Energy *Histogram `metric:"energy_abs"`
}

// ObserveRun records one completed run: latency, stop reason, run count.
func (s *Solver) ObserveRun(d time.Duration, reason StopReason) {
	s.Runs.Inc()
	s.SolveTime.Observe(d)
	s.Latency.Observe(float64(d.Microseconds()))
	switch reason {
	case StopConverged:
		s.Converged.Inc()
	case StopMaxIters:
		s.MaxIters.Inc()
	case StopCancelled:
		s.Cancelled.Inc()
	case StopDeadline:
		s.Deadline.Inc()
	case StopDiverged:
		s.Diverged.Inc()
	}
}

// ObserveEnergy records a run's best energy magnitude.
func (s *Solver) ObserveEnergy(e float64) {
	if e < 0 {
		e = -e
	}
	s.Energy.Observe(e)
}

// ForSolver returns the named solver's instrumentation set, creating it on
// first use. Call once at package init and keep the pointer; the lookup
// takes a lock.
func ForSolver(name string) *Solver {
	return register(kindSolver, name, func() *Solver {
		return &Solver{
			// 1 µs .. ~8.4 s in power-of-two buckets, with under/overflow ends.
			Latency: NewHistogram(PowerOfTwoBounds(1, 24)),
			// |E| from 2^-10 up to 2^20, covering the repo's problem scales.
			Energy: NewHistogram(PowerOfTwoBounds(1.0/1024, 31)),
		}
	})
}

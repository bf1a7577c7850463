// Package sb implements simulated-bifurcation (SB) solvers for Ising
// problems.
//
// SB simulates a network of nonlinear oscillators whose adiabatic
// bifurcation encodes the Ising ground-state search (Goto et al. 2019,
// 2021). Positions x_i and momenta y_i evolve under symplectic Euler
// integration while the pump amplitude a(t) ramps from 0 to a0; the spin
// state is sign(x). The package provides the three standard variants:
//
//   - aSB (adiabatic): Kerr term x^3, continuous positions.
//   - bSB (ballistic): positions clamped by perfectly inelastic walls at
//     ±1 (the paper's engine, Section 2.1).
//   - dSB (discrete):  like bSB but the local field is computed from
//     sign(x), which suppresses analog error.
//
// Two features host the paper's Section 3.3 improvements:
//
//   - Params.Stop implements the dynamic stop criterion (§3.3.1): sample
//     the energy every F iterations and halt once the variance of the last
//     S samples drops below Epsilon.
//   - Params.OnSample is a sample-point hook that may mutate (x, y) in
//     place; the Theorem-3 heuristic (§3.3.2) plugs in here to reset the
//     column-type spins to their conditional optimum.
//
// One engine runs every solve: it advances r replicas as lock-step lanes
// of one n×r block and streams the coupling once per step for all of
// them. SolveWith is its r = 1 call in a caller-owned Workspace;
// SolveBatch is its r ≥ 1 call, returning the best replica.
package sb

import (
	"context"
	"fmt"
	"math"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// met is the package's instrumentation set; the engine updates it with a
// handful of atomic adds per replica (never per iteration), so the hot
// path stays allocation-free and measurably unperturbed.
var met = metrics.ForSolver("sb")

// siteDiverge poisons a sampled energy when armed (a no-op otherwise),
// keyed by the replica's seed so the same replicas diverge however many
// lanes a run carries. A NaN escaping the field product itself is the
// ising.field failpoint.
var siteDiverge = fault.NewSite("sb.diverge")

// noTwinCache, set only by tests, runs twin couplers without the lane
// product caches, so a test can compare the two.
var noTwinCache bool

// isFinite reports v being neither NaN nor ±Inf: v-v is 0 for every
// finite value and NaN otherwise.
func isFinite(v float64) bool { return v-v == 0 }

// allFinite reports whether every element of xs is finite — the
// divergence guard's position scan at sample points.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Variant selects the SB update rule.
type Variant int

const (
	// Ballistic is bSB: inelastic walls at |x| = 1 (the paper's solver).
	Ballistic Variant = iota
	// Adiabatic is aSB: Kerr nonlinearity, no walls.
	Adiabatic
	// Discrete is dSB: walls plus sign(x) in the local field.
	Discrete
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Ballistic:
		return "bSB"
	case Adiabatic:
		return "aSB"
	case Discrete:
		return "dSB"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// StopCriteria is the dynamic stop rule of §3.3.1: sample the energy every
// F iterations; once S samples have accumulated, stop when the variance of
// the last S samples is below Epsilon.
type StopCriteria struct {
	F       int     // sampling period in iterations
	S       int     // window size in samples
	Epsilon float64 // variance threshold
	// MinIters is a burn-in: the criterion cannot fire before this many
	// iterations. While the pump is still ramping the system is driven
	// and metastable plateaus look steady (zero variance) even though a
	// later pump amplitude reorganizes the spins into a better basin, so
	// an unguarded variance test stops long before the oscillators
	// commit. Zero means Steps/2, i.e. the stop is trusted only in the
	// second half of the ramp.
	MinIters int
}

// Params configures one SB run. The zero value is not usable; start from
// DefaultParams.
type Params struct {
	Variant Variant
	// Steps is the maximum number of Euler iterations.
	Steps int
	// Dt is the Euler time step.
	Dt float64
	// A0 is the final pump amplitude (detuning), typically 1.
	A0 float64
	// C0 is the coupling strength. Zero means auto-scale to
	// 0.5*sqrt(N-1)/||J||_F, the standard SB prescription.
	C0 float64
	// InitAmplitude bounds the random initial momenta (positions start at
	// 0, momenta uniform in ±InitAmplitude).
	InitAmplitude float64
	// Seed drives the deterministic RNG for initial conditions.
	Seed int64
	// Stop, when non-nil, enables the dynamic stop criterion. When nil the
	// run uses exactly Steps iterations.
	Stop *StopCriteria
	// SampleEvery controls how often the solver evaluates the rounded
	// solution for best-so-far tracking and invokes OnSample. Zero derives
	// it from Stop.F, or disables mid-run sampling when Stop is nil.
	//
	// SampleEvery is independent of the stop criterion: the §3.3.1 window
	// is always pushed every Stop.F iterations, so setting SampleEvery to
	// a different cadence changes only how often the rounded solution is
	// inspected, never the effective F (a regression test pins this).
	SampleEvery int
	// OnSample, when non-nil, is called at each sample point — including
	// a replica's final sample — before energy evaluation and may mutate x
	// and y in place (the Theorem-3 heuristic). A batch calls it lane by
	// lane with each replica's own x and y, from one goroutine, so a hook
	// with scratch state serves every replica.
	OnSample func(iter int, x, y []float64)
	// RecordTrace, when true, stores each sampled energy in the result
	// (for a batch, the winning replica's).
	RecordTrace bool
	// Quantize enables the fixed-point dSB fast path: the coupling is
	// quantized once per solve (ising.Quantize) and the per-step field
	// product runs on int8/int16 integer accumulation instead of float64,
	// rescaling only at sample points — energies and the dynamic-stop
	// window are always evaluated against the exact float coupling. The
	// codes are re-packed into bit-planes (ising.NewPlanes) whenever its
	// density × width × lanes dispatch accepts them for the run's replica
	// count; the popcount kernels compute
	// the same integers as the scalar ones, so the kernel choice never
	// changes a trajectory. The flag only applies to the Discrete variant
	// (other variants need the continuous x in the field product and
	// silently ignore it), and it degrades automatically: when the
	// coupling is not quantizable (non-finite entries, dynamic-range
	// overflow, unsupported coupler kind) the run falls back to the
	// float64 engine bit-identically. Result.Quantized and
	// Result.BitPacked report what ran.
	Quantize bool
	// RescueDiverged enables the one-shot divergence rescue: when the
	// guard detects non-finite positions or energy at a sample point, the
	// trajectory is re-seeded from Seed with the time step halved and the
	// run continues (Result.Rescued reports it). A second divergence — or
	// any divergence with the flag off — quarantines the run instead:
	// Energy +Inf, Stopped StopDiverged, Result.Diverged set.
	RescueDiverged bool
}

// DefaultParams returns the solver defaults used across the repository:
// bSB, 1000 steps, dt = 1.0, a0 = 1, auto c0.
//
// The wall-clamped variants (bSB, dSB) are stable at dt = 1.0; the
// adiabatic variant's Kerr term needs dt <= 0.5 — use DefaultParamsFor
// when selecting a variant.
func DefaultParams() Params {
	return Params{
		Variant:       Ballistic,
		Steps:         1000,
		Dt:            1.0,
		A0:            1.0,
		InitAmplitude: 0.1,
	}
}

// DefaultParamsFor returns the defaults with the variant's stable time
// step (1.0 for bSB/dSB, 0.5 for aSB whose unbounded positions make the
// Euler integration of the Kerr term diverge at larger steps).
func DefaultParamsFor(v Variant) Params {
	p := DefaultParams()
	p.Variant = v
	if v == Adiabatic {
		p.Dt = 0.5
	}
	return p
}

// Result reports an SB run.
type Result struct {
	// Spins is the best rounded spin state observed.
	Spins []int8
	// Energy is the Ising energy of Spins (without the problem offset).
	Energy float64
	// Objective is Energy + problem offset, i.e. the original COP value.
	Objective float64
	// Iterations is the number of Euler steps actually executed.
	Iterations int
	// Stopped reports why the run ended: StopConverged (the dynamic stop
	// criterion fired), StopMaxIters (the Steps budget ran out), or
	// StopCancelled/StopDeadline (the context interrupted the run — Spins
	// still holds the best state seen up to that point).
	Stopped metrics.StopReason
	// StoppedEarly reports whether the dynamic stop criterion fired
	// (equivalent to Stopped == metrics.StopConverged).
	StoppedEarly bool
	// Samples is the number of energy evaluations performed.
	Samples int
	// Diverged reports that the run produced non-finite positions or
	// energies and was quarantined: Energy is +Inf (so the run can never
	// win a portfolio scan) and Spins holds the best finite state seen —
	// or, when none was, the last rounded state, which is always valid ±1.
	Diverged bool
	// Rescued reports that a divergence was caught and the trajectory
	// re-seeded once with a damped time step (Params.RescueDiverged).
	Rescued bool
	// Quantized reports that the run actually used the fixed-point field
	// kernels (Params.Quantize accepted): false either because the flag
	// was off, the variant was not Discrete, or the coupling failed to
	// quantize and the solve fell back to float64.
	Quantized bool
	// BitPacked reports that those kernels were the bit-plane popcount
	// ones (ising.NewPlanes accepted the codes); when false with
	// Quantized true, the solve ran on the scalar quantized kernels.
	BitPacked bool
	// Trace holds the sampled energies when Params.RecordTrace is set. It
	// is allocated per run, so unlike Spins it outlives the workspace.
	Trace []float64
}

// Solve runs simulated bifurcation on the problem and returns the best
// spin state seen at any sample point or at termination. It allocates a
// fresh Workspace; callers in a hot loop should hold one and use
// SolveWith. Use SolveContext to bound the run with a cancellable or
// deadlined context.
func Solve(p *ising.Problem, params Params) Result {
	return SolveWith(context.Background(), p, params, NewWorkspace(p.N()))
}

// SolveContext is Solve honoring the context: the run is interrupted at
// sample-point granularity when ctx is cancelled or its deadline expires,
// returning the best-so-far state with Result.Stopped set accordingly.
func SolveContext(ctx context.Context, p *ising.Problem, params Params) Result {
	return SolveWith(ctx, p, params, NewWorkspace(p.N()))
}

// SolveWith is Solve running entirely inside the caller-owned workspace:
// the engine's single-replica run, one lane of width n. After the
// workspace has warmed up to the problem size it performs zero heap
// allocations per run (pinned by the allocation-regression test), except
// that Params.RecordTrace grows the per-run trace slice and a
// caller-supplied OnSample hook may of course allocate on its own.
//
// The context is polled at the sampling cadence (SampleEvery, falling
// back to Stop.F, falling back to every 64 iterations when no sampling is
// configured); a context that can never fire (context.Background) adds no
// per-iteration work at all. An interrupted run is not an error: the
// result carries the best state observed so far and Stopped records why
// the run ended.
//
// Result.Spins aliases workspace memory and is only valid until the next
// SolveWith call on the same workspace; copy it to keep it. Results are
// bit-identical to Solve for equal parameters and seed, regardless of the
// context plumbing.
func SolveWith(ctx context.Context, p *ising.Problem, params Params, ws *Workspace) Result {
	res, _, _ := ws.run(ctx, p, params, 1)
	return res
}

func windowSize(params Params) int {
	if params.Stop != nil {
		return params.Stop.S
	}
	return 0
}

// autoC0 computes the standard SB coupling scale 0.5*sqrt(N-1)/||J||_F,
// falling back to 1 for degenerate problems (no couplings).
func autoC0(p *ising.Problem) float64 {
	frob := p.Coup.FrobeniusNorm()
	n := p.N()
	if frob == 0 || n < 2 {
		return 1
	}
	return 0.5 * math.Sqrt(float64(n-1)) / frob
}

// energyWindow is a fixed-size ring buffer over the last S sampled
// energies. The mean is maintained in O(1); the variance is computed on
// demand by a two-pass scan of the (small) window, which is numerically
// stable at any energy magnitude — the former running-sum-of-squares
// shortcut (sumSq/n - mean^2) cancels catastrophically once |E| grows
// past ~1e8 and collapsed genuine spread to the clamped 0, firing the
// §3.3.1 dynamic stop spuriously.
type energyWindow struct {
	buf   []float64
	size  int
	count int
	head  int
	sum   float64
}

func newEnergyWindow(size int) *energyWindow {
	w := &energyWindow{}
	w.reset(size)
	return w
}

// reset re-sizes the window for a new run, reusing the buffer when its
// capacity suffices (the Workspace reuse path).
func (w *energyWindow) reset(size int) {
	if cap(w.buf) < size {
		w.buf = make([]float64, size)
	}
	w.buf = w.buf[:size]
	w.size = size
	w.count = 0
	w.head = 0
	w.sum = 0
}

func (w *energyWindow) push(e float64) {
	if w.size == 0 {
		return
	}
	if w.count == w.size {
		w.sum -= w.buf[w.head]
	} else {
		w.count++
	}
	w.buf[w.head] = e
	w.head = (w.head + 1) % w.size
	w.sum += e
}

func (w *energyWindow) full() bool { return w.size > 0 && w.count == w.size }

// variance returns the population variance of the window contents,
// computed as the mean squared deviation from the window mean. The
// deviations are formed per element before squaring (the "shifted"
// two-pass form), so the result keeps full precision even when the
// energies share a huge common magnitude; the window is at most S
// entries, so the O(S) scan at every Stop.F-th iteration is noise.
func (w *energyWindow) variance() float64 {
	if w.count == 0 {
		return math.Inf(1)
	}
	mean := w.sum / float64(w.count)
	dev := 0.0
	// Valid entries are buf[:count]: before the window fills, head has
	// only ever advanced over written slots; once full, every slot is
	// live and order is irrelevant to the variance.
	for _, e := range w.buf[:w.count] {
		d := e - mean
		dev += d * d
	}
	return dev / float64(w.count)
}

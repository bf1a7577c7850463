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
package sb

import (
	"context"
	"fmt"
	"math"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// met is the package's instrumentation set; SolveWith updates it with a
// handful of atomic adds per run (never per iteration), so the hot path
// stays allocation-free and measurably unperturbed.
var met = metrics.ForSolver("sb")

// Failpoints (no-ops unless a chaos test arms them): sb.step poisons the
// scalar engine's local field mid-loop, modelling a NaN escaping the
// dynamics; sb.diverge poisons the sampled energy, keyed by the run's
// seed so the goroutine and fused engines diverge on the same replicas
// regardless of scheduling order.
var (
	siteStep    = fault.NewSite("sb.step")
	siteDiverge = fault.NewSite("sb.diverge")
)

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
	// OnSample, when non-nil, is called at each sample point before energy
	// evaluation and may mutate x and y in place (the Theorem-3 heuristic).
	OnSample func(iter int, x, y []float64)
	// RecordTrace, when true, stores each sampled energy in the result.
	RecordTrace bool
	// Quantize enables the fixed-point dSB fast path: the coupling is
	// quantized once per solve (ising.Quantize) and the per-step field
	// product runs on int8/int16 integer accumulation instead of float64,
	// rescaling only at sample points — energies and the dynamic-stop
	// window are always evaluated against the exact float coupling. The
	// flag only applies to the Discrete variant (other variants need the
	// continuous x in the field product and silently ignore it), and it
	// degrades automatically: when the coupling is not quantizable (non-
	// finite entries, dynamic-range overflow, unsupported coupler kind)
	// the run falls back to the float64 engine bit-identically, reported
	// via Result.Quantized.
	Quantize bool
	// BitPack layers the popcount fast path on top of Quantize: the
	// quantized codes are re-packed into sign+magnitude bit-planes
	// (ising.NewPlanes) and the per-step field product runs on
	// AND+POPCNT sweeps over packed ±1 spin masks — bit-identical to the
	// scalar quantized kernels, so whole trajectories match the Quantize
	// path exactly. It implies Quantize (the codes are the input), only
	// applies to the Discrete variant, and degrades in two stages: an
	// unquantizable coupling falls back to float64, and a coupling whose
	// density × width heuristic rejects packing (tiny or very sparse
	// instances where the scalar kernel wins) stays on the scalar
	// quantized path. Result.BitPacked reports what actually ran.
	BitPack bool
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
	// BitPacked reports that the run used the bit-packed popcount field
	// kernels (Params.BitPack accepted by the packing heuristic on top of
	// a successful quantization); when false with Quantized true, the
	// solve ran on the scalar quantized kernels instead.
	BitPacked bool
	// Trace holds the sampled energies when Params.RecordTrace is set.
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
// after the workspace has warmed up to the problem size it performs zero
// heap allocations per run (pinned by the allocation-regression test),
// except that Params.RecordTrace grows the per-run trace slice and a
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
	start := time.Now()
	n := p.N()
	if params.Steps <= 0 {
		panic("sb: Steps must be positive")
	}
	if params.Dt <= 0 {
		panic("sb: Dt must be positive")
	}
	a0 := params.A0
	if a0 <= 0 {
		a0 = 1
	}
	c0 := params.C0
	if c0 == 0 {
		c0 = autoC0(p)
	}
	sampleEvery := params.SampleEvery
	if sampleEvery <= 0 {
		if params.Stop != nil {
			sampleEvery = params.Stop.F
		} else {
			sampleEvery = 0 // no mid-run sampling
		}
	}
	stopF := 0
	minIters := 0
	if params.Stop != nil {
		if params.Stop.F <= 0 || params.Stop.S <= 1 {
			panic("sb: StopCriteria needs F >= 1 and S >= 2")
		}
		stopF = params.Stop.F
		minIters = params.Stop.MinIters
		if minIters <= 0 {
			minIters = params.Steps / 2
		}
	}
	// ctxEvery is the context poll cadence. A nil Done channel
	// (context.Background, context.TODO) disables polling entirely, so
	// uncancellable runs pay nothing.
	ctxEvery := 0
	if ctx.Done() != nil {
		switch {
		case sampleEvery > 0:
			ctxEvery = sampleEvery
		case stopF > 0:
			ctxEvery = stopF
		default:
			ctxEvery = 64
		}
	}

	// Quantize once per solve: the O(n²) pass is ~0.1% of a typical solve
	// and buys integer accumulation for every one of the Steps field
	// products. A nil quant (flag off, non-dSB variant, or unquantizable
	// coupling) is the float64 path.
	var quant *ising.Quantized
	if (params.Quantize || params.BitPack) && params.Variant == Discrete {
		quant, _ = ising.Quantize(p.Coup)
	}
	// BitPack re-packs the codes into popcount bit-planes; a nil planes
	// (flag off, heuristic rejection, or failed quantization) stays on
	// the scalar quantized kernels — bit-identically either way.
	var planes *ising.Planes
	if params.BitPack && quant != nil {
		planes, _ = ising.NewPlanes(quant)
	}

	ws.ensure(n)
	ws.window.reset(windowSize(params))
	ws.rng.Seed(params.Seed)
	x, y, field, signs := ws.x, ws.y, ws.field, ws.signs
	for i := range y {
		y[i] = (ws.rng.Float64()*2 - 1) * params.InitAmplitude
		x[i] = (ws.rng.Float64()*2 - 1) * params.InitAmplitude * 0.01
	}

	res := Result{Quantized: quant != nil, BitPacked: planes != nil}
	bestE := math.Inf(1)
	lastSampled := -1
	diverged := false
	// The divergence guard's position scan applies only to the
	// wall-clamped variants, whose positions live in [-1, 1] by
	// construction — there a non-finite entry proves a corrupted state.
	// Adiabatic positions are unbounded and overflow transiently on driven
	// problems while the rounded spins stay meaningful, so aSB divergence
	// is detected through the sampled energy alone.
	scanX := params.Variant != Adiabatic

	// sample inspects the rounded solution at iteration iter: run the
	// OnSample hook, track the best rounded state, record the trace. The
	// divergence guard lives here: a non-finite sampled energy or any
	// non-finite position raises the diverged flag instead of corrupting
	// the best-so-far state.
	sample := func(iter int) {
		if params.OnSample != nil {
			params.OnSample(iter, x, y)
		}
		ising.SignsInto(x, ws.spins)
		e := p.EnergySpinsInto(ws.spins, ws.xspin, ws.field)
		res.Samples++
		if params.RecordTrace {
			res.Trace = append(res.Trace, e)
		}
		if siteDiverge.FireKey(params.Seed) {
			e = math.NaN()
		}
		lastSampled = iter
		if !isFinite(e) || (scanX && !allFinite(x)) {
			diverged = true
			return
		}
		if e < bestE {
			bestE = e
			copy(ws.best, ws.spins)
		}
	}

	// stopCheck pushes the §3.3.1 window at the Stop.F cadence — always at
	// Stop.F, independent of SampleEvery, so tuning the sampling rate can
	// never silently change the criterion's effective F. The window
	// monitors the continuous oscillator-network energy, not the rounded
	// spin energy: the rounded energy plateaus for long stretches while
	// the positions still move toward a better basin, so testing it would
	// stop too early.
	//
	// The check leaves J·x in ws.field, and x does not move before the
	// next step's field product, so bSB and aSB take it as that product
	// (fieldFresh) instead of recomputing it. dSB needs J·sign(x) instead.
	fieldFresh := false
	stopCheck := func(iter int) bool {
		ws.window.push(p.EnergyContinuousInto(x, ws.field))
		fieldFresh = params.Variant != Discrete
		return iter >= minIters && ws.window.full() && ws.window.variance() < params.Stop.Epsilon
	}

	dt := params.Dt
	steps := params.Steps
	iter := 0
	for ; iter < steps; iter++ {
		at := a0 * float64(iter) / float64(steps) // linear pump ramp 0 -> a0

		// Local field: J*x (+ h). dSB uses sign(x) in the product; the
		// quantized fast path (dSB-only) consumes the same materialized
		// sign buffer, so both paths see identical spins — including for
		// poisoned NaN positions, where v >= 0 resolves to -1.
		src := x
		if params.Variant == Discrete {
			for i, v := range x {
				if v >= 0 {
					signs[i] = 1
				} else {
					signs[i] = -1
				}
			}
			src = signs
		}
		switch {
		case fieldFresh:
			fieldFresh = false // field already holds J·x from the stop check
		case planes != nil:
			planes.FieldSigns(signs, field)
		case quant != nil:
			quant.FieldSigns(signs, field)
		default:
			p.Coup.Field(src, field)
		}
		if siteStep.Fire() {
			field[0] = math.NaN()
		}
		if p.H != nil {
			for i, h := range p.H {
				field[i] += h
			}
		}

		switch params.Variant {
		case Adiabatic:
			for i := 0; i < n; i++ {
				y[i] += dt * (-(x[i]*x[i]+a0-at)*x[i] + c0*field[i])
				x[i] += dt * a0 * y[i]
			}
		default: // Ballistic and Discrete share the wall dynamics
			for i := 0; i < n; i++ {
				y[i] += dt * (-(a0-at)*x[i] + c0*field[i])
				x[i] += dt * a0 * y[i]
				if x[i] > 1 {
					x[i] = 1
					y[i] = 0
				} else if x[i] < -1 {
					x[i] = -1
					y[i] = 0
				}
			}
		}

		it := iter + 1
		if sampleEvery > 0 && it%sampleEvery == 0 {
			sample(it)
			if diverged {
				if params.RescueDiverged && !res.Rescued {
					// One-shot rescue: re-seed the trajectory from the same
					// seed with the time step halved, reset the §3.3.1
					// window, and keep iterating. Any best-so-far state from
					// before the divergence stays valid (it was finite).
					diverged = false
					res.Rescued = true
					met.Rescues.Inc()
					dt *= 0.5
					ws.rng.Seed(params.Seed)
					for i := range y {
						y[i] = (ws.rng.Float64()*2 - 1) * params.InitAmplitude
						x[i] = (ws.rng.Float64()*2 - 1) * params.InitAmplitude * 0.01
					}
					ws.window.reset(windowSize(params))
				} else {
					iter++
					break
				}
			}
		}
		if stopF > 0 && it%stopF == 0 && stopCheck(it) {
			iter++
			res.Stopped = metrics.StopConverged
			res.StoppedEarly = true
			break
		}
		if ctxEvery > 0 && it%ctxEvery == 0 && ctx.Err() != nil {
			iter++
			res.Stopped = metrics.ReasonFromContext(ctx)
			break
		}
	}

	// Final evaluation (covers runs with no mid-run sampling, termination
	// between sample points, and a stop fired off the sampling cadence).
	if lastSampled != iter {
		sample(iter)
	}
	if diverged {
		// Quarantine: +Inf energy keeps the run out of every minimum scan
		// (a diverged replica can never be a batch winner); when no finite
		// sample was ever recorded the best buffer falls back to the last
		// rounded state, so Spins is always valid ±1, never stale garbage.
		res.Stopped = metrics.StopDiverged
		res.StoppedEarly = false
		res.Diverged = true
		if math.IsInf(bestE, 1) {
			copy(ws.best, ws.spins)
		}
		bestE = math.Inf(1)
	}
	if res.Stopped == metrics.StopNone {
		res.Stopped = metrics.StopMaxIters
	}

	res.Spins = ws.best
	res.Energy = bestE
	res.Objective = bestE + p.Offset
	res.Iterations = iter

	met.ObserveRun(time.Since(start), res.Stopped)
	met.Iterations.Add(int64(res.Iterations))
	met.Samples.Add(int64(res.Samples))
	met.ObserveEnergy(res.Energy)
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

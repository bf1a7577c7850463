package sb

import (
	"context"
	"math"
	"time"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// run is the SB engine: it advances replicas trajectories as lock-step
// lanes of one n×r block, so every Euler step streams the coupling
// structure once for all of them (ising.FieldBatch). Replica k starts
// from seed params.Seed + k, and each lane reproduces a single-replica
// run of that seed bit for bit: the lanes share nothing but the field
// product's traversal order, which the BatchCoupler contract keeps
// per-lane identical to Field.
//
// A replica whose §3.3.1 window fires, or whose divergence guard
// quarantines it, retires: its lane is compacted out (positions,
// momenta, signs and field move with it), so the batch narrows and each
// step gets cheaper as replicas finish. Cancellation retires every
// active lane at the shared poll cadence; under an already-cancelled
// context only replica 0 is launched. The outcomes land in ws.reps; run
// returns the winner (lowest energy, ties to the lowest index) and the
// number of launched replicas.
func (ws *Workspace) run(ctx context.Context, p *ising.Problem, params Params, replicas int) (Result, int, int) {
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
		c0 = autoC0(p) // resolved once per run, not once per replica
	}
	sampleEvery := params.SampleEvery
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
		if sampleEvery <= 0 {
			sampleEvery = stopF
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

	// Quantize once per run: the O(n²) pass is ~0.1% of a typical solve
	// and buys integer accumulation for every one of the Steps field
	// products. A nil quant (flag off, non-dSB variant, or unquantizable
	// coupling) is the float64 path; a nil planes (heuristic rejection)
	// stays on the scalar quantized kernels — bit-identically either way.
	// Sample-point and stop-window energies always evaluate against the
	// exact float coupling.
	var quant *ising.Quantized
	if params.Quantize && params.Variant == Discrete {
		quant, _ = ising.Quantize(p.Coup)
	}
	var planes *ising.Planes
	if quant != nil {
		planes, _ = ising.NewPlanes(quant, replicas)
	}

	// On a twin coupler each lane keeps its last product's partial sums
	// (ising.TwinCache), and its step, stop-check and sample-point
	// products resume where their inputs changed: bSB's walls and the
	// Theorem-3 clamp hold most positions at exactly ±1 from one product
	// to the next. Below ising's shape rule the cache costs more than it
	// saves, and other couplers have none.
	tw, _ := p.Coup.(*ising.Twin)
	if tw != nil && (!tw.CachePays() || noTwinCache) {
		tw = nil
	}
	ws.ensure(n, replicas, tw)
	var caches []ising.TwinCache // nil: FieldBatch products
	if tw != nil {
		caches = ws.caches[:replicas]
	}
	for k := range ws.reps {
		ws.reps[k] = replicaState{bestE: math.Inf(1), lastSampled: -1}
	}
	// An already-cancelled context launches exactly replica 0: never
	// return nothing, never start work that is already cancelled.
	launch := replicas
	if ctx.Err() != nil {
		launch = 1
	}
	for l := 0; l < launch; l++ {
		ws.lanes[l].replica = l
		ws.lanes[l].dt = params.Dt
		ws.lanes[l].window.reset(windowSize(params))
		ws.seedLane(l, n, params.Seed+int64(l), params.InitAmplitude)
	}
	active := launch
	// field writes the products of the first active lanes of block x
	// into ws.fld.
	field := func(x []float64) {
		ab := active * n
		ising.FieldBatchCached(p.Coup, x[:ab], ws.fld[:ab], active, caches)
	}
	// The divergence guard's position scan applies only to the
	// wall-clamped variants, whose positions live in [-1, 1] by
	// construction — there a non-finite entry proves a corrupted state.
	// Adiabatic positions are unbounded and overflow transiently on driven
	// problems while the rounded spins stay meaningful, so aSB divergence
	// is detected through the sampled energy alone.
	scanX := params.Variant != Adiabatic

	// hook runs OnSample on lane l and rounds its positions into the
	// lane's spins. Under dSB the hook may have moved x across zero, so
	// the lane's sign cache is refreshed before the next field product.
	hook := func(l, it int) {
		x, y := ws.x[l*n:l*n+n], ws.y[l*n:l*n+n]
		if params.OnSample != nil {
			params.OnSample(it, x, y)
			if params.Variant == Discrete {
				signsOf(x, ws.sgn[l*n:l*n+n])
			}
		}
		ising.SignsInto(x, ws.spins[l*n:l*n+n])
	}

	// record books lane l's sampled energy e at iteration it: trace,
	// sample count, best-so-far state. It reports false when the
	// divergence guard fires — a non-finite energy, or a non-finite
	// position under a wall-clamped variant — and leaves the best state
	// untouched.
	record := func(l, it int, e float64) bool {
		k := ws.lanes[l].replica
		rs := &ws.reps[k]
		rs.samples++
		if params.RecordTrace {
			rs.trace = append(rs.trace, e)
		}
		if siteDiverge.FireKey(params.Seed + int64(k)) {
			e = math.NaN()
		}
		rs.lastSampled = it
		if !isFinite(e) || (scanX && !allFinite(ws.x[l*n:l*n+n])) {
			return false
		}
		if e < rs.bestE {
			rs.bestE = e
			copy(ws.best[k*n:k*n+n], ws.spins[l*n:l*n+n])
		}
		return true
	}

	// quarantine marks lane l's replica diverged: +Inf energy keeps it
	// out of every minimum scan, and when no finite sample was ever
	// recorded the best buffer falls back to the last rounded state, so
	// its spins are always valid ±1, never stale garbage.
	quarantine := func(l int) {
		k := ws.lanes[l].replica
		rs := &ws.reps[k]
		if math.IsInf(rs.bestE, 1) {
			copy(ws.best[k*n:k*n+n], ws.spins[l*n:l*n+n])
		}
		rs.bestE = math.Inf(1)
		rs.diverged = true
	}

	// retire finalizes lane l's replica at iteration it and compacts the
	// last active lane into its slot. A replica not sampled at it gets a
	// final sample (hook included), whose divergence check overrides the
	// nominal reason with a quarantine.
	retire := func(l, it int, reason metrics.StopReason) {
		k := ws.lanes[l].replica
		rs := &ws.reps[k]
		if rs.lastSampled != it {
			hook(l, it)
			e := p.EnergySpinsInto(ws.spins[l*n:l*n+n], ws.xs[l*n:l*n+n], ws.fld[l*n:l*n+n])
			if !record(l, it, e) {
				quarantine(l)
			}
		}
		if rs.diverged {
			reason = metrics.StopDiverged
		}
		rs.iters = it
		rs.stopped = reason
		rs.early = reason == metrics.StopConverged
		met.ObserveRun(time.Since(start), reason)
		met.Iterations.Add(int64(it))
		met.Samples.Add(int64(rs.samples))
		met.ObserveEnergy(rs.bestE)
		last := active - 1
		if l != last {
			copy(ws.x[l*n:l*n+n], ws.x[last*n:last*n+n])
			copy(ws.y[l*n:l*n+n], ws.y[last*n:last*n+n])
			copy(ws.sgn[l*n:l*n+n], ws.sgn[last*n:last*n+n])
			copy(ws.fld[l*n:l*n+n], ws.fld[last*n:last*n+n])
			// Swap the structs (not just copy) so the retired lane's
			// window ring buffer and product cache stay owned by
			// exactly one slot.
			ws.lanes[l], ws.lanes[last] = ws.lanes[last], ws.lanes[l]
			if caches != nil {
				caches[l], caches[last] = caches[last], caches[l]
			}
		}
		active--
	}

	// sample inspects every active lane's rounded state at iteration it:
	// the hooks, one batched field product over the ±1 spin views, then a
	// per-lane energy. Lanes are scanned top-down so a quarantine's
	// compaction moves an already-processed lane into the vacated slot,
	// never an unprocessed one. The first divergence of a lane with
	// RescueDiverged set re-seeds it from its replica seed with the time
	// step halved and its §3.3.1 window reset; any best state from before
	// the divergence stays valid (it was finite).
	sample := func(it int) {
		for l := 0; l < active; l++ {
			hook(l, it)
			xs, sp := ws.xs[l*n:l*n+n], ws.spins[l*n:l*n+n]
			for i, s := range sp {
				xs[i] = float64(s)
			}
		}
		field(ws.xs)
		for l := active - 1; l >= 0; l-- {
			if record(l, it, laneEnergy(p, ws.xs[l*n:l*n+n], ws.fld[l*n:l*n+n])) {
				continue
			}
			k := ws.lanes[l].replica
			if params.RescueDiverged && !ws.reps[k].rescued {
				ws.reps[k].rescued = true
				met.Rescues.Inc()
				ws.lanes[l].dt *= 0.5
				ws.seedLane(l, n, params.Seed+int64(k), params.InitAmplitude)
				ws.lanes[l].window.reset(windowSize(params))
				continue
			}
			quarantine(l)
			retire(l, it, metrics.StopDiverged)
		}
	}

	// The stop check leaves J·x in the field lanes, and x does not move
	// before the next step's field product, so bSB and aSB take it as
	// that product (fieldFresh) instead of recomputing it. dSB needs
	// J·sign(x) instead.
	fieldFresh := false
	steps := params.Steps
	for iter := 0; iter < steps && active > 0; iter++ {
		at := a0 * float64(iter) / float64(steps) // linear pump ramp 0 -> a0
		ab := active * n

		// Local field: J*x. dSB reads the sign lanes, which the
		// integrator keeps equal to sign(x); the quantized paths consume
		// the same sign lanes, so every dSB kernel sees identical spins.
		switch {
		case fieldFresh:
			fieldFresh = false
		case planes != nil:
			planes.FieldSignsBatch(ws.sgn[:ab], ws.fld[:ab], active)
		case quant != nil:
			quant.FieldSignsBatch(ws.sgn[:ab], ws.fld[:ab], active)
		case params.Variant == Discrete:
			field(ws.sgn)
		default:
			field(ws.x)
		}

		// The step adds the bias to the field as it reads it: the biased
		// field is never stored, and nothing reads fld before the next
		// product or sample overwrites it.
		for l := 0; l < active; l++ {
			x := ws.x[l*n : l*n+n]
			y := ws.y[l*n : l*n+n]
			f := ws.fld[l*n : l*n+n]
			dt := ws.lanes[l].dt
			switch params.Variant {
			case Adiabatic:
				for i := range x {
					fi := f[i]
					if p.H != nil {
						fi += p.H[i]
					}
					y[i] += dt * (-(x[i]*x[i]+a0-at)*x[i] + c0*fi)
					x[i] += dt * a0 * y[i]
				}
			case Discrete:
				wallStep(x, y, f, p.H, ws.sgn[l*n:l*n+n], -(a0 - at), c0, dt, dt*a0)
			default: // Ballistic: inelastic walls at |x| = 1
				wallStep(x, y, f, p.H, nil, -(a0 - at), c0, dt, dt*a0)
			}
		}

		it := iter + 1
		if sampleEvery > 0 && it%sampleEvery == 0 {
			sample(it)
		}
		// The §3.3.1 window is pushed at the Stop.F cadence — always at
		// Stop.F, independent of SampleEvery, so tuning the sampling rate
		// can never silently change the criterion's effective F. It
		// monitors the continuous oscillator-network energy, not the
		// rounded spin energy: the rounded energy plateaus for long
		// stretches while the positions still move toward a better basin,
		// so testing it would stop too early.
		if stopF > 0 && it%stopF == 0 && active > 0 {
			field(ws.x)
			fieldFresh = params.Variant != Discrete
			for l := active - 1; l >= 0; l-- {
				w := &ws.lanes[l].window
				w.push(laneEnergy(p, ws.x[l*n:l*n+n], ws.fld[l*n:l*n+n]))
				if it >= minIters && w.full() && w.variance() < params.Stop.Epsilon {
					retire(l, it, metrics.StopConverged)
				}
			}
		}
		if ctxEvery > 0 && it%ctxEvery == 0 && active > 0 && ctx.Err() != nil {
			reason := metrics.ReasonFromContext(ctx)
			for active > 0 {
				retire(active-1, it, reason)
			}
		}
	}
	// Survivors ran the full budget.
	for active > 0 {
		retire(active-1, steps, metrics.StopMaxIters)
	}

	best := 0
	for k := 1; k < launch; k++ {
		if ws.reps[k].bestE < ws.reps[best].bestE {
			best = k
		}
	}
	rs := &ws.reps[best]
	return Result{
		Spins:        ws.best[best*n : best*n+n],
		Energy:       rs.bestE,
		Objective:    rs.bestE + p.Offset,
		Iterations:   rs.iters,
		Stopped:      rs.stopped,
		StoppedEarly: rs.early,
		Samples:      rs.samples,
		Diverged:     rs.diverged,
		Rescued:      rs.rescued,
		Quantized:    quant != nil,
		BitPacked:    planes != nil,
		Trace:        rs.trace,
	}, best, launch
}

// seedLane draws lane l's initial conditions from seed — per spin the
// momentum before the position — and sets its dSB signs.
func (ws *Workspace) seedLane(l, n int, seed int64, amp float64) {
	x, y := ws.x[l*n:l*n+n], ws.y[l*n:l*n+n]
	ws.rng.Seed(seed)
	for i := range x {
		y[i] = (ws.rng.Float64()*2 - 1) * amp
		x[i] = (ws.rng.Float64()*2 - 1) * amp * 0.01
	}
	signsOf(x, ws.sgn[l*n:l*n+n])
}

// signsOf writes sign(x) as ±1 into s: 0 rounds to +1 and NaN to -1,
// the rounding every dSB field kernel reads.
func signsOf(x, s []float64) {
	s = s[:len(x)]
	for i, v := range x {
		if v >= 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
}

// laneEnergy is EnergyContinuousInto's reduction over a field product
// already in hand, term for term in the same order.
func laneEnergy(p *ising.Problem, x, f []float64) float64 {
	e := 0.0
	for i := range x {
		e -= 0.5 * f[i] * x[i]
		e -= p.Bias(i) * x[i]
	}
	return e
}

package sb

import (
	"math"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/metrics"
)

// divergenceParams is the shared configuration of the divergence tests:
// mid-run sampling is on (SampleEvery) so the guard sees the poisoned
// energy well before the final evaluation.
func divergenceParams(v Variant) Params {
	p := DefaultParamsFor(v)
	p.Steps = 240
	p.SampleEvery = 20
	p.Seed = 100
	return p
}

// TestDivergenceQuarantineBothEngines drives the divergence contract for
// every SB variant: inject a NaN energy into one replica (keyed by its
// seed, so a batch lane and its r = 1 solve poison the same trajectory)
// and assert quarantine — Stats.Diverged, +Inf energy, StopDiverged —
// winner exclusion, and that every lane still equals its r = 1 solve.
func TestDivergenceQuarantineBothEngines(t *testing.T) {
	const replicas = 4
	const victim = 1
	for _, v := range []Variant{Ballistic, Adiabatic, Discrete} {
		t.Run(v.String(), func(t *testing.T) {
			p := randomProblem(24, 7)
			base := divergenceParams(v)
			key := base.Seed + int64(victim)
			defer fault.DisarmAll()
			res, st := assertLanesMatchSingles(t, v.String(), p, BatchParams{Base: base, Replicas: replicas}, func() {
				fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{key}, Times: -1})
			})
			if !st.Diverged[victim] || st.Diverges != 1 {
				t.Fatalf("Diverged = %v (count %d), want replica %d quarantined",
					st.Diverged, st.Diverges, victim)
			}
			if !math.IsInf(st.Energies[victim], 1) {
				t.Fatalf("diverged replica energy %g, want +Inf", st.Energies[victim])
			}
			if st.Stopped[victim] != metrics.StopDiverged {
				t.Fatalf("diverged replica stop %v, want StopDiverged", st.Stopped[victim])
			}
			if st.BestReplica == victim {
				t.Fatal("diverged replica won the batch")
			}
			if res.Diverged {
				t.Fatal("winner carries the Diverged flag with finite replicas available")
			}
			if !isFinite(res.Energy) {
				t.Fatalf("winner energy %g not finite", res.Energy)
			}
		})
	}
}

// TestAllReplicasDiverged injects divergence into every replica: the
// batch must report +Inf energies and the Diverged flag on the winner —
// never a garbage finite winner — and the spins must still be a valid ±1
// state.
func TestAllReplicasDiverged(t *testing.T) {
	const replicas = 3
	p := randomProblem(16, 3)
	base := divergenceParams(Ballistic)
	keys := make([]int64, replicas)
	for r := range keys {
		keys[r] = base.Seed + int64(r)
	}
	defer fault.DisarmAll()
	res, st := assertLanesMatchSingles(t, "all diverged", p, BatchParams{Base: base, Replicas: replicas}, func() {
		fault.MustArm("sb.diverge", fault.Scenario{Keys: keys, Times: -1})
	})
	if st.Diverges != replicas {
		t.Fatalf("Diverges = %d, want all %d", st.Diverges, replicas)
	}
	for r, e := range st.Energies {
		if !math.IsInf(e, 1) {
			t.Fatalf("replica %d energy %g, want +Inf", r, e)
		}
		if st.Stopped[r] != metrics.StopDiverged {
			t.Fatalf("replica %d stop %v, want StopDiverged", r, st.Stopped[r])
		}
	}
	if !res.Diverged {
		t.Fatal("all-diverged batch winner must carry the Diverged flag")
	}
	if !math.IsInf(res.Energy, 1) {
		t.Fatalf("all-diverged batch energy %g, want +Inf", res.Energy)
	}
	if len(res.Spins) != p.N() {
		t.Fatalf("spins length %d, want %d", len(res.Spins), p.N())
	}
	for i, s := range res.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("spin %d = %d, want ±1", i, s)
		}
	}
}

// TestDivergenceRescue arms a one-shot poison against a single replica
// with RescueDiverged on: the trajectory must recover (re-seeded, damped
// dt), finish with a finite energy, carry the Rescued flag — and its lane
// must equal its rescued r = 1 solve.
func TestDivergenceRescue(t *testing.T) {
	const replicas = 3
	const victim = 2
	p := randomProblem(20, 11)
	base := divergenceParams(Ballistic)
	base.RescueDiverged = true
	key := base.Seed + int64(victim)
	defer fault.DisarmAll()
	_, st := assertLanesMatchSingles(t, "rescue", p, BatchParams{Base: base, Replicas: replicas}, func() {
		fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{key}}) // Times 0: fire once
	})
	if !st.Rescued[victim] || st.Rescues != 1 {
		t.Fatalf("Rescued = %v (count %d), want replica %d rescued", st.Rescued, st.Rescues, victim)
	}
	if st.Diverged[victim] {
		t.Fatal("rescued replica must not be quarantined")
	}
	if !isFinite(st.Energies[victim]) {
		t.Fatalf("rescued replica energy %g, want finite", st.Energies[victim])
	}
}

// TestDivergenceRescueSecondOverflowQuarantines pins the "one-shot" in
// the rescue contract: a trajectory that diverges again after its rescue
// is quarantined like any other.
func TestDivergenceRescueSecondOverflowQuarantines(t *testing.T) {
	p := randomProblem(16, 5)
	params := divergenceParams(Ballistic)
	params.RescueDiverged = true

	fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{params.Seed}, Times: 2})
	defer fault.DisarmAll()
	res := Solve(p, params)
	if !res.Rescued {
		t.Fatal("first overflow should have been rescued")
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) || res.Stopped != metrics.StopDiverged {
		t.Fatalf("second overflow not quarantined: %+v", res)
	}
}

// TestDivergenceRescueLateResetsWindow rescues a replica late in its
// run: the §3.3.1 window (F = 10, S = 4) is full from iteration 40 on,
// the poison fires at the 19th sample (iteration 190), and the burn-in
// keeps the stop off until 200. Epsilon is so loose that any full window
// stops the run, so a window still holding the pre-rescue energies would
// stop it at 200; the reset window refills only by 220, S samples after
// the rescue. A batch lane must do the same as its r = 1 solve.
func TestDivergenceRescueLateResetsWindow(t *testing.T) {
	const (
		replicas = 3
		victim   = 1
		rescueAt = 190
	)
	p := randomProblem(24, 7)
	base := DefaultParamsFor(Ballistic)
	base.Steps = 400
	base.Seed = 100
	base.RescueDiverged = true
	base.Stop = &StopCriteria{F: 10, S: 4, Epsilon: 1e9, MinIters: 200}
	key := base.Seed + int64(victim)
	defer fault.DisarmAll()
	_, st := assertLanesMatchSingles(t, "late rescue", p, BatchParams{Base: base, Replicas: replicas}, func() {
		fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{key}, After: rescueAt/base.Stop.F - 1})
	})
	if !st.Rescued[victim] || st.Diverged[victim] {
		t.Fatalf("replica %d: rescued=%v diverged=%v, want a rescue without quarantine",
			victim, st.Rescued[victim], st.Diverged[victim])
	}
	if st.Stopped[victim] != metrics.StopConverged {
		t.Fatalf("rescued replica stop %v, want the dynamic stop", st.Stopped[victim])
	}
	if want := rescueAt + (base.Stop.S-1)*base.Stop.F; st.Iterations[victim] < want {
		t.Fatalf("rescued replica stopped at iteration %d, before its reset window refilled at %d",
			st.Iterations[victim], want)
	}
	for k := range st.Iterations {
		if k != victim && st.Iterations[k] != base.Stop.MinIters {
			t.Fatalf("replica %d stopped at %d, want the burn-in end %d", k, st.Iterations[k], base.Stop.MinIters)
		}
	}
}

// TestScalarStepPoisonDiverges drives the unkeyed ising.field failpoint
// through a single-replica solve: a NaN escaping the field product
// mid-iteration must surface as a quarantined run with valid ±1 spins,
// not as a garbage winner.
func TestScalarStepPoisonDiverges(t *testing.T) {
	p := randomProblem(12, 9)
	params := divergenceParams(Ballistic)

	fault.MustArm("ising.field", fault.Scenario{After: 5, Times: -1})
	defer fault.DisarmAll()
	res := Solve(p, params)
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("step poison not detected: diverged=%v energy=%g", res.Diverged, res.Energy)
	}
	for i, s := range res.Spins {
		if s != 1 && s != -1 {
			t.Fatalf("spin %d = %d, want ±1", i, s)
		}
	}
}

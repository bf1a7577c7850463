package serve

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"isinglut"
	"isinglut/internal/anneal"
	"isinglut/internal/fault"
	"isinglut/internal/ilp"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// chaosProblem builds a small internal ising.Problem for the solver-layer
// failpoints that are not reachable through the HTTP surface.
func chaosProblem(n int) *ising.Problem {
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		d.Set(i, (i+1)%n, -1)
	}
	p, err := ising.NewProblem(d, nil, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// mustPanic runs fn and asserts it panicked with the given message
// fragment — used for the failpoints (anneal.sweep, ilp.node) whose call
// paths have no production recover boundary above them by design.
func mustPanic(t *testing.T, fragment string, fn func()) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatalf("expected a panic containing %q", fragment)
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, fragment) {
			t.Fatalf("panic %v, want message containing %q", rec, fragment)
		}
	}()
	fn()
}

// TestChaosEverySiteFires is the chaos umbrella the issue asks for: under
// -race, drive every registered failpoint at least once through its real
// call path and assert the process (and where applicable, the daemon)
// behaves per the fault model. The final check walks fault.Sites() so a
// future failpoint that this suite forgets to exercise fails the test.
func TestChaosEverySiteFires(t *testing.T) {
	defer fault.DisarmAll()
	_, ts := testServer(t, Config{Workers: 2, Retries: -1})

	// ising.field: poison one step's field product in a single-replica
	// solve — the run must quarantine, not return a garbage finite winner.
	fault.MustArm("ising.field", fault.Scenario{After: 2, Times: 1})
	prob := isinglut.NewIsingProblem(8)
	for i := 0; i < 8; i++ {
		prob.SetCoupling(i, (i+1)%8, -1)
	}
	res, err := isinglut.SolveIsing(prob, isinglut.SBOptions{Steps: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("ising.field poison not quarantined: %+v", res)
	}

	// sb.diverge: NaN injected at a sample point of the keyed trajectory.
	fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{7}, Times: -1})
	res, err = isinglut.SolveIsing(prob, isinglut.SBOptions{Steps: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "diverged" {
		t.Fatalf("sb.diverge stop reason %q, want diverged", res.StopReason)
	}

	// sb.diverge on both replicas of a batch (seeds 7 and 8): the batch
	// reports diverged like a single run, so /v1/solve answers 500 — the
	// +Inf energy has no JSON form — and caches nothing.
	fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{7, 8}, Times: -1})
	res, err = isinglut.SolveIsing(prob, isinglut.SBOptions{Steps: 100, Seed: 7, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "diverged" || res.DivergedReplicas != 2 {
		t.Fatalf("all-diverged batch: stop reason %q, %d diverged replicas; want diverged, 2", res.StopReason, res.DivergedReplicas)
	}
	batchReq := SolveRequest{N: 8, Steps: 100, Seed: 7, Replicas: 2, Couplings: ringCouplings(8)}
	resp := postJSON(t, ts.URL+"/v1/solve", batchReq)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("all-diverged batch over HTTP: status %d, want 500", resp.StatusCode)
	}
	fault.DisarmAll()
	resp = postJSON(t, ts.URL+"/v1/solve", batchReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarmed batch: status %d, want 200", resp.StatusCode)
	}
	if got := decodeBody[SolveResponse](t, resp); got.Cached || got.StopReason == "diverged" {
		t.Fatalf("disarmed batch answered from a cached failure: %+v", got)
	}

	// ising.quant.accum: a poisoned integer accumulate in the quantized
	// dSB kernel must flow into the same divergence quarantine as a
	// poisoned float field — the fixed-point path has no private failure
	// mode the guard cannot see.
	fault.MustArm("ising.quant.accum", fault.Scenario{After: 2, Times: -1})
	res, err = isinglut.SolveIsing(prob, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quantized {
		t.Fatalf("quantized solve did not take the fixed-point path: %+v", res)
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("ising.quant.accum poison not quarantined: %+v", res)
	}
	fault.DisarmAll()

	// ising.quant.overflow: a forced dynamic-range overflow must fall back
	// to the float64 engine bit-identically — same energy as the exact
	// solve, Quantized unset, no error surfaced.
	exact, err := isinglut.SolveIsing(prob, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.MustArm("ising.quant.overflow", fault.Scenario{Times: -1})
	fb, err := isinglut.SolveIsing(prob, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb.Quantized {
		t.Fatalf("overflow fallback still reports the fixed-point path: %+v", fb)
	}
	if fb.Energy != exact.Energy || fb.Iterations != exact.Iterations {
		t.Fatalf("overflow fallback not bit-identical to the float engine: %+v vs %+v", fb, exact)
	}
	fault.DisarmAll()

	// The bit-pack failpoints need an instance the packing dispatch
	// accepts: a dense all-pairs 32-spin problem (the 8-spin ring is
	// rejected, so its packed kernels would never run).
	dense := isinglut.NewIsingProblem(32)
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			dense.SetCoupling(i, j, float64((i*5+j*3)%11-5)/5+0.1)
		}
	}

	// ising.bitpack.accum: a poisoned popcount accumulate in the packed
	// dSB kernel must land in the same divergence quarantine as every
	// other poisoned field path — and the run must confirm the packed
	// kernels were actually in play (BitPacked set).
	fault.MustArm("ising.bitpack.accum", fault.Scenario{After: 2, Times: -1})
	res, err = isinglut.SolveIsing(dense, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitPacked {
		t.Fatalf("bit-packed solve did not take the popcount path: %+v", res)
	}
	if !res.Diverged || !math.IsInf(res.Energy, 1) {
		t.Fatalf("ising.bitpack.accum poison not quarantined: %+v", res)
	}
	fault.DisarmAll()

	// ising.bitpack.pack: a poisoned packer must degrade to the scalar
	// quantized kernels bit-identically — same energy and step count as
	// the packed quant solve, Quantized still set, BitPacked unset.
	qref, err := isinglut.SolveIsing(dense, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !qref.BitPacked {
		t.Fatalf("quant solve of a dense instance did not pack: %+v", qref)
	}
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	pfb, err := isinglut.SolveIsing(dense, isinglut.SBOptions{
		Variant: isinglut.DiscreteSB, Steps: 100, Seed: 1, Quantize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pfb.BitPacked || !pfb.Quantized {
		t.Fatalf("pack fallback flags wrong: quantized=%v bitpacked=%v", pfb.Quantized, pfb.BitPacked)
	}
	if pfb.Energy != qref.Energy || pfb.Iterations != qref.Iterations {
		t.Fatalf("pack fallback not bit-identical to the scalar quant engine: %+v vs %+v", pfb, qref)
	}
	fault.DisarmAll()

	// ising.field again: one poisoned batch field evaluation diverges one
	// replica; the served solve still answers 200 off a finite survivor.
	fault.MustArm("ising.field", fault.Scenario{Times: 1})
	resp = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		N: 8, Steps: 100, Seed: 1, Replicas: 2,
		Couplings: ringCouplings(8),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch solve with one poisoned replica: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	fault.DisarmAll()

	// core.solve: the proposed method is down, so /v1/decompose must
	// degrade to DALTA rather than fail.
	fault.MustArm("core.solve", fault.Scenario{Times: -1})
	resp = postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 6, Options: quickOptions(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose under core.solve fault: status %d", resp.StatusCode)
	}
	if got := decodeBody[DecomposeResponse](t, resp); !got.Degraded {
		t.Fatal("decompose under core.solve fault not marked degraded")
	}
	fault.DisarmAll()

	// anneal.sweep and ilp.node: baseline solvers have no recover boundary
	// above them (they are library calls, not daemon jobs), so the
	// injected panic must surface to the caller.
	fault.MustArm("anneal.sweep", fault.Scenario{Times: 1})
	mustPanic(t, "anneal.sweep", func() {
		anneal.Solve(context.Background(), chaosProblem(6),
			anneal.Params{Sweeps: 10, TStart: 2, TEnd: 0.1, Seed: 1})
	})
	fault.MustArm("ilp.node", fault.Scenario{Times: 1})
	mustPanic(t, "ilp.node", func() {
		ilp.SolveRowCOP(context.Background(), ilp.Instance{
			R: 2, C: 2,
			Cost0: []float64{1, 0, 0, 1},
			Cost1: []float64{0, 1, 1, 0},
		}, ilp.Options{})
	})

	// serve.job: a panic inside the worker pool is isolated into a 500;
	// the next request is answered normally by the same daemon.
	fault.MustArm("serve.job", fault.Scenario{Times: 1})
	req := SolveRequest{N: 6, Steps: 50, Seed: 9, Couplings: ringCouplings(6)}
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job: status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panicked job: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// serve.cache: an injected lookup failure forces a miss — the entry
	// is recomputed, never served corrupted.
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if got := decodeBody[SolveResponse](t, resp); !got.Cached {
		t.Fatal("warm-up request not served from cache")
	}
	fault.MustArm("serve.cache", fault.Scenario{Times: 1})
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if got := decodeBody[SolveResponse](t, resp); got.Cached {
		t.Fatal("cache fault did not force a miss")
	}

	// serve.decompose: an injected decompose-scoped outage must degrade
	// that endpoint to the DALTA fallback while /v1/solve stays healthy.
	fault.MustArm("serve.decompose", fault.Scenario{Times: -1})
	resp = postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 6, Options: quickOptions(),
	})
	if got := decodeBody[DecomposeResponse](t, resp); !got.Degraded {
		t.Fatal("decompose under serve.decompose outage not marked degraded")
	}
	resp = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		N: 6, Steps: 50, Seed: 11, Couplings: ringCouplings(6),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve during decompose-scoped outage: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	fault.DisarmAll()

	// shard.solve and shard.exchange: a sharded solve with an injected
	// sub-solve failure and a poisoned exchange proposal still answers 200
	// — failed shards keep their spins, the accept guard rejects the
	// corrupted proposal, and the best-so-far state stays valid.
	fault.MustArm("shard.solve", fault.Scenario{Times: 1})
	fault.MustArm("shard.exchange", fault.Scenario{Times: 1})
	resp = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		N: 12, Steps: 100, Seed: 21, Shard: 4, ShardRounds: 3,
		Couplings: ringCouplings(12),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded solve under shard faults: status %d", resp.StatusCode)
	}
	if got := decodeBody[SolveResponse](t, resp); got.Shards < 2 {
		t.Fatalf("sharded solve reported %d shards, want ≥2", got.Shards)
	}
	fault.DisarmAll()

	// shard.dispatch: coordinator mode with every peer dispatch failing.
	// The peer lifecycle records the failures and each sub-solve is served
	// from the bit-identical local fallback, so the request still answers
	// 200.
	_, cts := testServer(t, Config{
		Workers: 2, Retries: -1, Peers: []string{"http://peer.invalid"},
	})
	fallbacks := metrics.Shard().PeerFallback.Load()
	fault.MustArm("shard.dispatch", fault.Scenario{Times: -1})
	resp = postJSON(t, cts.URL+"/v1/solve", SolveRequest{
		N: 12, Steps: 100, Seed: 22, Shard: 4, ShardRounds: 2,
		Couplings: ringCouplings(12),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator solve with all peers down: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := metrics.Shard().PeerFallback.Load() - fallbacks; got == 0 {
		t.Fatal("coordinator under shard.dispatch fault never took the local fallback")
	}
	fault.DisarmAll()

	// serve.peer.dispatch + serve.peer.hedge: fleet-era coordinator
	// faults. One dropped batch dispatch retries within the round budget;
	// the hedge failpoint forces the straggler threshold to zero so the
	// re-steal path launches duplicates. Both are capacity events only —
	// the answer still comes back 200 with valid spins.
	_, peerA := testServer(t, Config{Workers: 2})
	_, peerB := testServer(t, Config{Workers: 2})
	fs, fts := testServer(t, Config{
		Workers: 2, Retries: -1, RetryBackoff: time.Millisecond,
		Peers: []string{peerA.URL, peerB.URL},
	})
	fault.MustArm("serve.peer.dispatch", fault.Scenario{Mode: fault.ModeDrop, Times: 1})
	fault.MustArm("serve.peer.hedge", fault.Scenario{Times: -1})
	resp = postJSON(t, fts.URL+"/v1/solve", SolveRequest{
		N: 12, Steps: 100, Seed: 23, Shard: 4, ShardRounds: 2,
		Couplings: ringCouplings(12),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator solve under fleet faults: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	fault.DisarmAll()
	// The hedged solve returns on its first good outcome and cancels the
	// loser without waiting for it. A loser whose response had already
	// arrived still records a success, which would readmit peer 0 after
	// the probe below demotes it. A dispatch releases its in-flight slot
	// only after that lifecycle update, so once both peers read zero in
	// flight no late success can land.
	deadline := time.Now().Add(5 * time.Second)
	for i, p := range fs.peers {
		for _, inflight, _ := p.snapshot(); inflight != 0; _, inflight, _ = p.snapshot() {
			if time.Now().After(deadline) {
				t.Fatalf("peer %d still has %d dispatches in flight after the hedged solve", i, inflight)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// serve.peer.probe: a dropped /readyz demotes the keyed member to
	// suspect; the next clean sweep readmits it to healthy.
	fault.MustArm("serve.peer.probe", fault.Scenario{Mode: fault.ModeDrop, Keys: []int64{0}, Times: -1})
	fs.fleet.probeAll(context.Background())
	if st, _, _ := fs.peers[0].snapshot(); st != peerSuspect {
		t.Fatalf("peer 0 state %v after dropped probe, want suspect", st)
	}
	if st, _, _ := fs.peers[1].snapshot(); st == peerQuarantined {
		t.Fatal("unkeyed peer 1 was hit by the keyed probe fault")
	}
	fault.DisarmAll()
	fs.fleet.probeAll(context.Background())
	if st, _, _ := fs.peers[0].snapshot(); st != peerHealthy {
		t.Fatalf("peer 0 state %v after clean probe, want healthy", st)
	}

	for _, site := range fault.Sites() {
		if fault.Fired(site) == 0 {
			t.Errorf("failpoint %q never fired — extend the chaos suite", site)
		}
	}
}

// TestDecomposeDegradedFallback pins the degradation contract: with the
// Ising path persistently down, /v1/decompose answers 200 with a valid
// DALTA decomposition marked degraded, never caches it, and recovers to
// the proposed method as soon as the fault clears.
func TestDecomposeDegradedFallback(t *testing.T) {
	defer fault.DisarmAll()
	_, ts := testServer(t, Config{Workers: 1, Retries: -1, BreakerThreshold: 100})
	req := DecomposeRequest{Benchmark: "exp", N: 6, Options: quickOptions()}

	fault.MustArm("core.solve", fault.Scenario{Times: -1})
	resp := postJSON(t, ts.URL+"/v1/decompose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (degraded)", resp.StatusCode)
	}
	got := decodeBody[DecomposeResponse](t, resp)
	if !got.Degraded || got.DegradedReason == "" {
		t.Fatalf("response not marked degraded: %+v", got)
	}
	if got.Cached {
		t.Fatal("degraded response claims to be cached")
	}
	if got.LUTBits <= 0 || got.N != 6 {
		t.Fatalf("degraded response is not a valid decomposition: %+v", got)
	}

	// Degraded answers must not enter the cache: the retry below, with the
	// fault cleared, must reach the real solver and drop the flag.
	fault.DisarmAll()
	resp = postJSON(t, ts.URL+"/v1/decompose", req)
	got = decodeBody[DecomposeResponse](t, resp)
	if got.Degraded || got.Cached {
		t.Fatalf("after fault cleared: degraded=%v cached=%v, want neither", got.Degraded, got.Cached)
	}
}

// TestRetryRecoversTransientPanic arms a one-shot solver panic: the
// first attempt dies, the configured retry succeeds, and the client sees
// an ordinary 200 — no degraded flag, no 500.
func TestRetryRecoversTransientPanic(t *testing.T) {
	defer fault.DisarmAll()
	_, ts := testServer(t, Config{Workers: 1, Retries: 1, RetryBackoff: time.Millisecond})

	before := fault.Fired("core.solve")
	fault.MustArm("core.solve", fault.Scenario{Times: 1})
	resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 6, Options: quickOptions(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 after retry", resp.StatusCode)
	}
	got := decodeBody[DecomposeResponse](t, resp)
	if got.Degraded {
		t.Fatal("retried request fell back to DALTA instead of the recovered solver")
	}
	if got := fault.Fired("core.solve") - before; got != 1 {
		t.Fatalf("core.solve fired %d times, want exactly 1", got)
	}
}

// TestSolveBreakerOpens drives /v1/solve to repeated failure until the
// endpoint's circuit breaker opens: subsequent requests fail fast with
// 503 without entering the worker pool.
func TestSolveBreakerOpens(t *testing.T) {
	defer fault.DisarmAll()
	s, ts := testServer(t, Config{
		Workers: 1, Retries: -1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})

	// Every solve with this seed diverges to +Inf, which the JSON boundary
	// treats as a solver failure.
	fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{3}, Times: -1})
	req := SolveRequest{N: 6, Steps: 100, Seed: 3, Couplings: ringCouplings(6)}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	fired := fault.Fired("sb.diverge")
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with breaker open, want 503", resp.StatusCode)
	}
	if body := decodeBody[errorResponse](t, resp); !strings.Contains(body.Error, "circuit breaker") {
		t.Fatalf("error %q does not mention the breaker", body.Error)
	}
	if fault.Fired("sb.diverge") != fired {
		t.Fatal("open breaker still ran the solver")
	}
	if got := s.solveBreaker.currentState(); got != breakerOpen {
		t.Fatalf("breaker state %v, want open", got)
	}
}

// TestDecomposeBreakerServesFallback: once the decompose breaker opens,
// requests skip the solver entirely and go straight to the DALTA
// fallback with the breaker named as the reason.
func TestDecomposeBreakerServesFallback(t *testing.T) {
	defer fault.DisarmAll()
	_, ts := testServer(t, Config{
		Workers: 1, Retries: -1, CacheSize: -1,
		BreakerThreshold: 1, BreakerCooldown: time.Hour,
	})
	req := DecomposeRequest{Benchmark: "exp", N: 6, Options: quickOptions()}

	fault.MustArm("core.solve", fault.Scenario{Times: -1})
	resp := postJSON(t, ts.URL+"/v1/decompose", req)
	got := decodeBody[DecomposeResponse](t, resp)
	if !got.Degraded {
		t.Fatal("first failing decompose not degraded")
	}

	// Threshold 1: that failure opened the breaker. The solver must not
	// run again — the fallback answers directly.
	fired := fault.Fired("core.solve")
	resp = postJSON(t, ts.URL+"/v1/decompose", req)
	got = decodeBody[DecomposeResponse](t, resp)
	if !got.Degraded || got.DegradedReason != "circuit breaker open" {
		t.Fatalf("degraded=%v reason=%q, want breaker-open fallback", got.Degraded, got.DegradedReason)
	}
	if fault.Fired("core.solve") != fired {
		t.Fatal("open breaker still invoked the core solver")
	}
}

// TestBreakerHalfOpenRecovery: after the cooldown, a single probe is
// admitted; when it succeeds the breaker closes and traffic resumes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	defer fault.DisarmAll()
	s, ts := testServer(t, Config{
		Workers: 1, Retries: -1, CacheSize: -1,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond,
	})

	fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{3}, Times: -1})
	req := SolveRequest{N: 6, Steps: 100, Seed: 3, Couplings: ringCouplings(6)}
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("seed failure: status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.solveBreaker.currentState(); got != breakerOpen {
		t.Fatalf("breaker state %v after threshold failures, want open", got)
	}

	fault.DisarmAll()
	time.Sleep(20 * time.Millisecond)
	resp = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.solveBreaker.currentState(); got != breakerClosed {
		t.Fatalf("breaker state %v after successful probe, want closed", got)
	}
}

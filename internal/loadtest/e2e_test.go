package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/serve"
)

// e2eServer mounts a real serving stack under httptest and returns its
// base URL. The suite drives it with the load library itself — the same
// code path cmd/loadgen uses against a live daemon, minus the network.
func e2eServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

func mustMix(t *testing.T, ws ...Weighted) []Weighted {
	t.Helper()
	if _, err := NewMix(ws); err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestE2EMixedLoadInvariants drives a seeded mixed schedule with
// virtual-time pacing (the whole schedule dispatches immediately,
// bounded only by MaxInFlight) and asserts the serving invariants:
// every request is answered exactly once, nothing sheds below
// saturation, malformed traffic is all 400, the deadline class stops on
// its deadline, and the cache-hot tail sits far below the cache-cold
// median.
func TestE2EMixedLoadInvariants(t *testing.T) {
	_, base := e2eServer(t, serve.Config{QueueDepth: 64})

	// Warm the cache so the hot class measures the steady-state hit
	// path, not the one founding miss. Both runs share one client, so
	// the measured run's first request reuses the warmup's keep-alive
	// connection instead of paying a TCP dial: with ~90 hot requests the
	// hot p99 is their slowest, which should time a cache hit, not a
	// connection setup.
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	warm, err := Run(context.Background(), Options{
		BaseURL: base, Client: client, RPS: 10, Duration: 100 * time.Millisecond,
		Mix:  mustMix(t, Weighted{ClassCacheHot, 1}),
		Seed: 11, Clock: NewVirtualClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Violations) != 0 {
		t.Fatalf("warmup violations: %v", warm.Violations)
	}

	// MaxInFlight 1 serializes the schedule: on small CI machines a
	// concurrent oversized solve would otherwise starve the cache-hit
	// handler of CPU and blur the hot-vs-cold comparison. The virtual
	// clock still dispatches the whole seeded schedule back to back;
	// concurrency under pressure is TestE2EShedBoundedAtSaturation's job.
	rep, err := Run(context.Background(), Options{
		BaseURL:     base,
		Client:      client,
		RPS:         200,
		Duration:    time.Second,
		MaxInFlight: 1, // below worker+queue capacity → shedding would be a bug
		Mix: mustMix(t,
			Weighted{ClassCacheHot, 4}, Weighted{ClassCacheCold, 2},
			Weighted{ClassDeadline, 1}, Weighted{ClassOversized, 1},
			Weighted{ClassMalformed, 1}),
		Seed:  12,
		Clock: NewVirtualClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.Scheduled != 200 || rep.Completed != 200 {
		t.Fatalf("scheduled %d, completed %d, want 200/200", rep.Scheduled, rep.Completed)
	}
	if rep.ShedFraction != 0 {
		t.Fatalf("shed below saturation: fraction %g", rep.ShedFraction)
	}

	hot, cold := rep.Class(ClassCacheHot), rep.Class(ClassCacheCold)
	if hot == nil || cold == nil {
		t.Fatal("missing hot/cold class reports")
	}
	if hot.CacheHits != hot.Status["200"] {
		t.Fatalf("warmed hot class missed the cache: hits %d of %d", hot.CacheHits, hot.Status["200"])
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold class hit the cache %d times (seeds must be unique)", cold.CacheHits)
	}
	// The ISSUE invariant: cache-hot p99 ≪ cache-cold p50, on service
	// time so client-side queueing does not blur the comparison.
	if hot.Service.P99US >= cold.Service.P50US {
		t.Fatalf("cache-hot p99 (%.0fµs) not below cache-cold p50 (%.0fµs)",
			hot.Service.P99US, cold.Service.P50US)
	}

	if dl := rep.Class(ClassDeadline); dl != nil && dl.DeadlineStops != dl.Status["200"] {
		t.Fatalf("deadline class: %d of %d responses stopped on deadline",
			dl.DeadlineStops, dl.Status["200"])
	}
	if mal := rep.Class(ClassMalformed); mal == nil || mal.Status["400"] != mal.Completed {
		t.Fatalf("malformed class not all 400: %+v", mal)
	}
}

// TestE2EShedBoundedAtSaturation offers ~2× a tiny pool's capacity
// using deadline-bound solves (service time is clock-bound at
// ~deadlineTimeoutMS, so the saturation point is calibrated, not
// machine-dependent) and asserts the pool sheds a bounded fraction with
// Retry-After hints — never errors, never drops.
func TestE2EShedBoundedAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time pacing run")
	}
	_, base := e2eServer(t, serve.Config{Workers: 2, QueueDepth: 2})

	// Capacity ≈ workers/serviceTime = 2/10ms = 200 rps; offer 400.
	rep, err := Run(context.Background(), Options{
		BaseURL:     base,
		RPS:         400,
		Duration:    500 * time.Millisecond,
		MaxInFlight: 256, // client must not be the bottleneck
		Mix:         mustMix(t, Weighted{ClassDeadline, 1}),
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.Completed != rep.Scheduled {
		t.Fatalf("dropped responses: %d of %d", rep.Completed, rep.Scheduled)
	}
	dl := rep.Class(ClassDeadline)
	if dl == nil {
		t.Fatal("no deadline class report")
	}
	for status := range dl.Status {
		if status != "200" && status != "429" {
			t.Fatalf("unexpected status %s under saturation: %v", status, dl.Status)
		}
	}
	// At 2× saturation the shed fraction must be material but bounded —
	// neither "nothing shed" (admission control broken) nor "everything
	// shed" (pool wedged).
	if rep.ShedFraction < 0.05 || rep.ShedFraction > 0.95 {
		t.Fatalf("shed fraction %g outside (0.05, 0.95) at 2× saturation", rep.ShedFraction)
	}
	if dl.RetryAfter.Count != dl.Shed {
		t.Fatalf("%d of %d 429s carried Retry-After", dl.RetryAfter.Count, dl.Shed)
	}
	if dl.Shed > 0 && dl.RetryAfter.MinS < 1 {
		t.Fatalf("Retry-After min %ds below the 1s floor", dl.RetryAfter.MinS)
	}
}

// TestE2EDegradedNeverCached arms the serve.decompose failpoint so the
// Ising path is hard-down, then sends identical decompose requests:
// every response must be 200 + degraded via the DALTA fallback, the
// breaker must open, and — although the request body never changes —
// no response may ever come from or land in the cache. Solve traffic
// stays healthy throughout.
func TestE2EDegradedNeverCached(t *testing.T) {
	fault.MustArm("serve.decompose", fault.Scenario{Times: -1})
	defer fault.DisarmAll()

	srv, base := e2eServer(t, serve.Config{
		Retries:          0,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // stays open for the whole test
	})
	_ = srv

	rep, err := Run(context.Background(), Options{
		BaseURL:     base,
		RPS:         40,
		Duration:    time.Second,
		MaxInFlight: 2,
		Mix:         mustMix(t, Weighted{ClassDegraded, 1}),
		Seed:        14,
		Clock:       NewVirtualClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	deg := rep.Class(ClassDegraded)
	if deg == nil {
		t.Fatal("no degraded class report")
	}
	if deg.Status["200"] != deg.Completed || deg.Completed != rep.Scheduled {
		t.Fatalf("degraded class statuses: %+v", deg.Status)
	}
	if deg.Degraded != deg.Completed {
		t.Fatalf("%d of %d responses marked degraded", deg.Degraded, deg.Completed)
	}
	if deg.CacheHits != 0 || deg.DegradedCached != 0 {
		t.Fatalf("degraded responses touched the cache: hits=%d degradedCached=%d",
			deg.CacheHits, deg.DegradedCached)
	}

	// The repeated failures must have opened the decompose breaker…
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Breakers["decompose"] == "closed" {
		t.Fatalf("decompose breaker still closed after %d forced failures", rep.Scheduled)
	}
	// …while the solve endpoint stays healthy and undegraded.
	solveResp, err := http.Post(base+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(hotColdN, hotColdSteps, 1, 99, 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer solveResp.Body.Close()
	if solveResp.StatusCode != http.StatusOK {
		t.Fatalf("solve returned %d while decompose failpoint armed", solveResp.StatusCode)
	}
	var probe responseProbe
	if err := json.NewDecoder(solveResp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	if probe.Degraded {
		t.Fatal("solve response marked degraded by a decompose-scoped failpoint")
	}
}

package serve

import (
	"net/http"
	"testing"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/metrics"
)

// shardSolveReq is the canonical coordinator-mode body: large enough to
// split into several shards, small enough to run many times per test.
func shardSolveReq(seed int64) SolveRequest {
	return SolveRequest{
		N: 24, Steps: 150, Seed: seed, Shard: 8, ShardRounds: 4,
		Couplings: ringCouplings(24),
	}
}

func solveOK(t *testing.T, url string, req SolveRequest) SolveResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d, want 200", resp.StatusCode)
	}
	return decodeBody[SolveResponse](t, resp)
}

// TestCoordinatorEnergyParity is the coordinator's core contract: a
// sharded solve dispatched across a peer daemon returns bit-identical
// spins and energy to the same solve run entirely in-process. Peers run
// the same sub-solve mapping for the same schedule-derived seed, so the
// wire hop must not change the answer.
func TestCoordinatorEnergyParity(t *testing.T) {
	_, peer := testServer(t, Config{Workers: 2})
	_, single := testServer(t, Config{Workers: 2})
	_, coord := testServer(t, Config{Workers: 2, Peers: []string{peer.URL}})

	want := solveOK(t, single.URL, shardSolveReq(31))

	dispatched := metrics.Shard().PeerDispatch.Load()
	got := solveOK(t, coord.URL, shardSolveReq(31))
	if metrics.Shard().PeerDispatch.Load() == dispatched {
		t.Fatal("coordinator never dispatched a sub-solve to its peer")
	}

	if got.Energy != want.Energy {
		t.Fatalf("coordinator energy %v, single-node %v", got.Energy, want.Energy)
	}
	if got.Shards != want.Shards || got.ShardRounds != want.ShardRounds {
		t.Fatalf("coordinator schedule (%d shards, %d rounds) differs from single-node (%d, %d)",
			got.Shards, got.ShardRounds, want.Shards, want.ShardRounds)
	}
	for i := range want.Spins {
		if got.Spins[i] != want.Spins[i] {
			t.Fatalf("spin %d differs: coordinator %d, single-node %d", i, got.Spins[i], want.Spins[i])
		}
	}
}

// TestCoordinatorDeadPeerFallsBackBitIdentical points the coordinator at
// an unreachable peer: every dispatch fails, every sub-solve is served by
// the local fallback dispatcher, and the final answer is still
// bit-identical to the single-node sharded solve — failover must never
// change the result, only the placement.
func TestCoordinatorDeadPeerFallsBackBitIdentical(t *testing.T) {
	_, single := testServer(t, Config{Workers: 2})
	_, coord := testServer(t, Config{
		Workers: 2,
		Peers:   []string{"http://127.0.0.1:1"}, // nothing listens on port 1
		// Connection-refused is immediate, but keep the per-shard deadline
		// short so the test stays fast even if the dial stalls.
		ShardTimeout: 500 * time.Millisecond,
	})

	want := solveOK(t, single.URL, shardSolveReq(33))

	fallbacks := metrics.Shard().PeerFallback.Load()
	got := solveOK(t, coord.URL, shardSolveReq(33))
	if metrics.Shard().PeerFallback.Load() == fallbacks {
		t.Fatal("dead peer never triggered the local fallback")
	}

	if got.Energy != want.Energy {
		t.Fatalf("fallback energy %v, single-node %v", got.Energy, want.Energy)
	}
	for i := range want.Spins {
		if got.Spins[i] != want.Spins[i] {
			t.Fatalf("spin %d differs under fallback: %d vs %d", i, got.Spins[i], want.Spins[i])
		}
	}
}

// TestCoordinatorPeerBreakerOpens drives repeated dispatch failures via
// the shard.dispatch failpoint until the peer's lifecycle quarantines it
// — the peer's open breaker: no further dispatch reaches it until a
// probe readmits it — and checks /healthz reports the state.
func TestCoordinatorPeerBreakerOpens(t *testing.T) {
	defer fault.DisarmAll()
	s, coord := testServer(t, Config{
		Workers:           2,
		Peers:             []string{"http://peer.invalid"},
		PeerProbeInterval: -1,
	})

	fault.MustArm("shard.dispatch", fault.Scenario{Times: -1})
	solveOK(t, coord.URL, shardSolveReq(35)) // still 200: local fallback serves every shard
	if st, _, _ := s.peers[0].snapshot(); st != peerQuarantined {
		t.Fatalf("peer state %v after repeated dispatch failures, want quarantined", st)
	}
	fired := fault.Fired("shard.dispatch")
	solveOK(t, coord.URL, shardSolveReq(36))
	if got := fault.Fired("shard.dispatch"); got != fired {
		t.Fatalf("quarantined peer still took %d dispatches", got-fired)
	}

	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, resp)
	if got := h.Peers["http://peer.invalid"].State; got != "quarantined" {
		t.Fatalf("healthz peer state %q, want quarantined (peers: %v)", got, h.Peers)
	}
	if len(h.Breakers) != 2 {
		t.Fatalf("healthz breakers %v, want only decompose and solve", h.Breakers)
	}
}

// TestShardCacheKeySeparation pins the cache semantics of the shard
// knobs: sharded and unsharded requests for the same problem occupy
// different cache slots (the decomposition changes the answer), while a
// repeated sharded request is a hit that preserves the shard fields.
func TestShardCacheKeySeparation(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	req := shardSolveReq(37)

	plain := req
	plain.Shard, plain.ShardRounds = 0, 0
	if got := solveOK(t, ts.URL, plain); got.Cached {
		t.Fatal("cold unsharded request served from cache")
	}

	first := solveOK(t, ts.URL, req)
	if first.Cached {
		t.Fatal("sharded request hit the unsharded entry — shard knobs missing from the key")
	}
	if first.Shards < 2 {
		t.Fatalf("sharded solve reported %d shards, want ≥2", first.Shards)
	}

	second := solveOK(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("repeated sharded request missed the cache")
	}
	if second.Shards != first.Shards || second.Energy != first.Energy {
		t.Fatalf("cached sharded response %+v does not match the original %+v", second, first)
	}
}

// TestQuantRidesExactCacheEntry pins the documented quant/cache
// interaction: Quant is excluded from the cache key, so a quantized
// request for a problem whose exact answer is already cached is served
// from that entry — cached:true, quantized:false, bitpacked:false — and
// is distinguishable from a quantized solve and from the overflow
// fallback by exactly those fields.
func TestQuantRidesExactCacheEntry(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	checkQuantRidesExactCacheEntry(t, ts.URL, SolveRequest{
		N: 10, Steps: 100, Seed: 41, Variant: "dsb",
		Couplings: ringCouplings(10),
	})
}

// TestBitpackRidesExactCacheEntry is the same contract on a dense 24-spin
// glass, where a quant request would run the bit-plane kernels: it still
// rides the exact entry with neither fast-path flag set.
func TestBitpackRidesExactCacheEntry(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	checkQuantRidesExactCacheEntry(t, ts.URL, SolveRequest{
		N: 24, Steps: 100, Seed: 47, Variant: "dsb",
		Couplings: denseCouplings(24),
	})
}

// checkQuantRidesExactCacheEntry solves the exact request cold, then
// sends it again with Quant set and expects the cached exact answer.
func checkQuantRidesExactCacheEntry(t *testing.T, url string, req SolveRequest) {
	t.Helper()
	exact := solveOK(t, url, req)
	if exact.Cached || exact.Quantized || exact.BitPacked {
		t.Fatalf("cold exact dsb solve: cached=%v quantized=%v bitpacked=%v, want none",
			exact.Cached, exact.Quantized, exact.BitPacked)
	}

	qreq := req
	qreq.Quant = true
	rode := solveOK(t, url, qreq)
	if !rode.Cached {
		t.Fatal("quant request did not ride the exact cache entry")
	}
	if rode.Quantized || rode.BitPacked {
		t.Fatalf("cache-served response claims a fast path ran: quantized=%v bitpacked=%v",
			rode.Quantized, rode.BitPacked)
	}
	if rode.Energy != exact.Energy {
		t.Fatalf("cache-served energy %v differs from the exact answer %v", rode.Energy, exact.Energy)
	}
}

// TestQuantizedResultNeverCached is the other half of the contract: a
// quantized solve on a cold slot answers quantized:true but must not
// populate the shared cache slot, so the next exact request still runs
// the float engine.
func TestQuantizedResultNeverCached(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	checkQuantizedNeverCached(t, ts.URL, SolveRequest{
		N: 10, Steps: 100, Seed: 43, Variant: "dsb", Quant: true,
		Couplings: ringCouplings(10),
	}, false)
}

// TestBitpackedResultNeverCached: on a dense 24-spin glass a quant
// request runs the bit-plane kernels (bitpacked:true), and like the
// scalar quantized result it must never populate the shared cache slot.
func TestBitpackedResultNeverCached(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	checkQuantizedNeverCached(t, ts.URL, SolveRequest{
		N: 24, Steps: 100, Seed: 53, Variant: "dsb", Quant: true,
		Couplings: denseCouplings(24),
	}, true)
}

// checkQuantizedNeverCached solves the quant request cold, expecting
// quantized:true and bitpacked == packed, then sends it without Quant and
// expects a cold exact solve.
func checkQuantizedNeverCached(t *testing.T, url string, req SolveRequest, packed bool) {
	t.Helper()
	q := solveOK(t, url, req)
	if q.Cached {
		t.Fatal("cold quantized solve served from cache")
	}
	if !q.Quantized {
		t.Fatal("quant request fell back to the float engine")
	}
	if q.BitPacked != packed {
		t.Fatalf("bitpacked=%v, want %v", q.BitPacked, packed)
	}

	exact := req
	exact.Quant = false
	e := solveOK(t, url, exact)
	if e.Cached {
		t.Fatal("exact request was served the quantized result from cache")
	}
	if e.Quantized || e.BitPacked {
		t.Fatalf("exact request reports a fast path: quantized=%v bitpacked=%v", e.Quantized, e.BitPacked)
	}
}

// denseCouplings builds an all-pairs coupling list with deterministic
// varied magnitudes — dense enough for the quantizer to pick the dense
// layout and, from 23 spins on, for a one-lane quant solve to pack it.
func denseCouplings(n int) []Coupling {
	cs := make([]Coupling, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64((i*7+j*3)%13-6) / 6
			if v == 0 {
				v = 0.5
			}
			cs = append(cs, Coupling{I: i, J: j, V: v})
		}
	}
	return cs
}

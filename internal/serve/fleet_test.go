package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/metrics"
)

// TestNormalizePeers pins the -peers startup validation: malformed URLs
// and self-dispatch loops fail boot, duplicates and trailing slashes
// collapse, and the survivors keep their configured spelling.
func TestNormalizePeers(t *testing.T) {
	cases := []struct {
		name    string
		peers   []string
		listen  string
		want    []string
		wantErr string
	}{
		{
			name:  "dedupe and trailing slash",
			peers: []string{"http://a:8080", "http://a:8080/", " http://b:9090 ", ""},
			want:  []string{"http://a:8080", "http://b:9090"},
		},
		{
			name:  "default port collapses with explicit",
			peers: []string{"http://a", "http://a:80"},
			want:  []string{"http://a"},
		},
		{
			name:    "malformed url",
			peers:   []string{"http://bad host"},
			wantErr: "bad host",
		},
		{
			name:    "non-http scheme",
			peers:   []string{"ftp://a:8080"},
			wantErr: "scheme",
		},
		{
			name:    "missing host",
			peers:   []string{"http://"},
			wantErr: "missing host",
		},
		{
			name:    "path rejected",
			peers:   []string{"http://a:8080/v1/solve"},
			wantErr: "bare base URL",
		},
		{
			name:    "own listen address",
			peers:   []string{"http://127.0.0.1:8080"},
			listen:  ":8080",
			wantErr: "own listen address",
		},
		{
			name:    "localhost spelling of self",
			peers:   []string{"http://localhost:8080"},
			listen:  "127.0.0.1:8080",
			wantErr: "own listen address",
		},
		{
			name:   "same host different port is fine",
			peers:  []string{"http://127.0.0.1:9090"},
			listen: "127.0.0.1:8080",
			want:   []string{"http://127.0.0.1:9090"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := NormalizePeers(tc.peers, tc.listen)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestFleetChurnBitIdentical is the issue's acceptance scenario: a
// two-peer fleet where one member dies mid-run (keyed drop faults after
// its first dispatch) while the other straggles (a delaying front proxy)
// past a hedge threshold forced to zero. The coordinator must still
// return a bit-identical answer to the all-healthy single-node run, no
// shard may see more than retry-budget+1 dispatches, and the dead peer
// must walk quarantine → readmission once it comes back. Probes run in
// virtual time — the sweep is called directly, no wall-clock loop.
func TestFleetChurnBitIdentical(t *testing.T) {
	defer fault.DisarmAll()
	_, single := testServer(t, Config{Workers: 2})
	want := solveOK(t, single.URL, shardSolveReq(61))

	_, peerA := testServer(t, Config{Workers: 2})
	sb, _ := testServer(t, Config{Workers: 2})
	// peerB fronted by a straggler shim: every request arrives 20ms late.
	slowB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		sb.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(slowB.Close)

	const budget = 2
	cs, coord := testServer(t, Config{
		Workers: 2, RetryBackoff: time.Millisecond, CacheSize: -1,
		Peers:           []string{peerA.URL, slowB.URL},
		PeerRetryBudget: budget,
	})

	// Peer 0 "dies" after its first dispatch; every straggling dispatch
	// hedges immediately.
	fault.MustArm("serve.peer.dispatch", fault.Scenario{
		Mode: fault.ModeDrop, Keys: []int64{0}, After: 1, Times: -1,
	})
	fault.MustArm("serve.peer.hedge", fault.Scenario{Times: -1})

	sm := metrics.Shard()
	dispatched := sm.PeerDispatch.Load()
	quarantined := sm.PeerQuarantined.Load()
	got := solveOK(t, coord.URL, shardSolveReq(61))

	if got.Energy != want.Energy {
		t.Fatalf("churn energy %v, all-healthy single-node %v", got.Energy, want.Energy)
	}
	for i := range want.Spins {
		if got.Spins[i] != want.Spins[i] {
			t.Fatalf("spin %d differs under churn: %d vs %d", i, got.Spins[i], want.Spins[i])
		}
	}
	// Dispatch-budget invariant: every shard sees at most one primary plus
	// budget retry/hedge dispatches per round.
	maxDispatches := int64(want.Shards * want.ShardRounds * (budget + 1))
	if d := sm.PeerDispatch.Load() - dispatched; d > maxDispatches {
		t.Fatalf("%d sub-solve dispatches for %d shard-rounds, budget caps at %d",
			d, want.Shards*want.ShardRounds, maxDispatches)
	}
	if sm.PeerQuarantined.Load() == quarantined {
		t.Fatal("dead peer was never quarantined")
	}
	if st, _, _ := cs.peers[0].snapshot(); st != peerQuarantined {
		t.Fatalf("dead peer state %v after the run, want quarantined", st)
	}

	// "Restart" the peer: the dispatch fault clears (the real daemon was
	// healthy all along behind the injected drops) and the next probe
	// sweep readmits it.
	fault.DisarmAll()
	readmitted := sm.PeerReadmitted.Load()
	cs.fleet.probeAll(context.Background())
	if st, _, _ := cs.peers[0].snapshot(); st != peerHealthy {
		t.Fatalf("restarted peer state %v after probe, want healthy", st)
	}
	if sm.PeerReadmitted.Load() == readmitted {
		t.Fatal("readmission not recorded in fleet metrics")
	}
	if h := cs.peers[0].health(); h.Readmissions == 0 {
		t.Fatal("readmission not recorded in the peer's health payload")
	}

	// And the readmitted peer takes work again, answers still bit-identical.
	before := cs.peers[0].health().Dispatches
	again := solveOK(t, coord.URL, shardSolveReq(61))
	if again.Energy != want.Energy {
		t.Fatalf("post-readmission energy %v, want %v", again.Energy, want.Energy)
	}
	if cs.peers[0].health().Dispatches == before {
		t.Fatal("readmitted peer took no dispatches")
	}
}

// TestPeerProbeReadmissionOnProbation: a peer whose /readyz stays green
// while every /v1/solve/batch to it fails costs one failed dispatch per
// probe sweep — the readmitting probe puts it on probation and its first
// failed dispatch re-quarantines it, where a fresh three-failure streak
// would cost three — and a dispatch success ends the probation.
func TestPeerProbeReadmissionOnProbation(t *testing.T) {
	defer fault.DisarmAll()
	ctx := context.Background()
	_, peer := testServer(t, Config{Workers: 2})
	cs, coord := testServer(t, Config{
		Workers: 2, RetryBackoff: time.Millisecond, CacheSize: -1,
		Peers: []string{peer.URL}, PeerProbeInterval: -1,
	})
	p := cs.peers[0]

	fault.MustArm("serve.peer.dispatch", fault.Scenario{
		Mode: fault.ModeDrop, Keys: []int64{0}, Times: -1,
	})
	solveOK(t, coord.URL, shardSolveReq(71))
	if st, _, _ := p.snapshot(); st != peerQuarantined {
		t.Fatalf("peer state %v after failing every dispatch, want quarantined", st)
	}
	for sweep := 0; sweep < 3; sweep++ {
		cs.fleet.probeAll(ctx)
		if st, _, _ := p.snapshot(); st != peerHealthy {
			t.Fatalf("sweep %d: peer state %v after a green probe, want healthy", sweep, st)
		}
		cs.fleet.probeAll(ctx) // a second green probe must not end the probation
		before := p.health().Failures
		solveOK(t, coord.URL, shardSolveReq(72+int64(sweep)))
		if got := p.health().Failures - before; got != 1 {
			t.Fatalf("sweep %d: %d failed dispatches reached the readmitted peer, want 1", sweep, got)
		}
		if st, _, _ := p.snapshot(); st != peerQuarantined {
			t.Fatalf("sweep %d: peer state %v after a failed probation dispatch, want quarantined", sweep, st)
		}
	}

	fault.DisarmAll()
	cs.fleet.probeAll(ctx)
	before := p.health().Dispatches
	solveOK(t, coord.URL, shardSolveReq(75))
	if p.health().Dispatches == before {
		t.Fatal("readmitted peer took no dispatches")
	}
	p.noteFailure(metrics.Shard())
	if st, _, _ := p.snapshot(); st != peerSuspect {
		t.Fatalf("peer state %v after one failure past a dispatch success, want suspect", st)
	}
}

// TestCoordinatorHedgeRestealsStraggler pins the work re-stealing path in
// isolation: a healthy fast peer and a straggler, hedge threshold forced
// to zero, so every dispatch that lands on the slow member is duplicated
// onto the fast one and the first finite result wins — bit-identically.
func TestCoordinatorHedgeRestealsStraggler(t *testing.T) {
	defer fault.DisarmAll()
	_, single := testServer(t, Config{Workers: 2})
	want := solveOK(t, single.URL, shardSolveReq(67))

	_, fast := testServer(t, Config{Workers: 2})
	sb, _ := testServer(t, Config{Workers: 2})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		sb.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	_, coord := testServer(t, Config{
		Workers: 2, RetryBackoff: time.Millisecond,
		Peers:           []string{fast.URL, slow.URL},
		PeerRetryBudget: 4,
	})
	fault.MustArm("serve.peer.hedge", fault.Scenario{Times: -1})

	sm := metrics.Shard()
	hedges := sm.PeerHedges.Load()
	got := solveOK(t, coord.URL, shardSolveReq(67))
	if got.Energy != want.Energy {
		t.Fatalf("hedged energy %v, want %v", got.Energy, want.Energy)
	}
	for i := range want.Spins {
		if got.Spins[i] != want.Spins[i] {
			t.Fatalf("spin %d differs under hedging: %d vs %d", i, got.Spins[i], want.Spins[i])
		}
	}
	if sm.PeerHedges.Load() == hedges {
		t.Fatal("forced-zero hedge threshold never launched a hedge")
	}
	if got.Degraded {
		t.Fatal("hedged solve flagged degraded — hedging is capacity, not degradation")
	}
}

// TestPeerDeadlineTravelsInBody pins the deadline-propagation satellite:
// the batch items a peer receives carry timeout_ms equal to the
// coordinator's REMAINING budget — the per-shard cap when the outer
// deadline is generous, the outer remainder when it is tighter than the
// shard timeout.
func TestPeerDeadlineTravelsInBody(t *testing.T) {
	var gotTimeout atomic.Int64
	rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var breq SolveBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&breq); err == nil && len(breq.Items) > 0 {
			gotTimeout.Store(breq.Items[0].TimeoutMS)
		}
		http.Error(w, "recorder only", http.StatusInternalServerError)
	}))
	t.Cleanup(rec.Close)

	const shardMS = 750
	coordFor := func() string {
		// A fresh coordinator per case: the recorder answers every batch
		// 500, so one case's failures would otherwise quarantine the peer
		// before the next case dispatches.
		_, coord := testServer(t, Config{
			Workers: 2, RetryBackoff: time.Millisecond,
			Peers:        []string{rec.URL},
			ShardTimeout: shardMS * time.Millisecond,
		})
		return coord.URL
	}

	// Outer budget (the default request timeout) dwarfs the shard
	// timeout: the wire deadline is the shard timeout itself.
	req := shardSolveReq(71)
	solveOK(t, coordFor(), req) // peers all fail → local fallback, still 200
	if got := gotTimeout.Load(); got != shardMS {
		t.Fatalf("timeout_ms %d with generous outer deadline, want %d", got, shardMS)
	}

	// Outer budget tighter than the shard timeout: the wire deadline is
	// the remaining outer budget, strictly under it.
	gotTimeout.Store(-1)
	req = shardSolveReq(73)
	req.TimeoutMS = 200
	resp := postJSON(t, coordFor()+"/v1/solve", req)
	resp.Body.Close()
	if got := gotTimeout.Load(); got <= 0 || got > 200 {
		t.Fatalf("timeout_ms %d with a 200ms outer budget, want in (0, 200]", got)
	}
}

// TestSolveBatchEndpoint pins the peer-side batch surface: one POST, one
// response per item in order, per-item errors isolated (a bad item never
// fails its batch-mates), and each good answer bit-identical to the same
// request solved individually.
func TestSolveBatchEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	a := SolveRequest{N: 8, Steps: 100, Seed: 81, Couplings: ringCouplings(8)}
	b := SolveRequest{N: 8, Steps: 100, Seed: 82, Couplings: ringCouplings(8)}
	wantA := solveOK(t, ts.URL, a)
	wantB := solveOK(t, ts.URL, b)

	bad := SolveRequest{N: -3}
	resp := postJSON(t, ts.URL+"/v1/solve/batch", SolveBatchRequest{Items: []SolveRequest{a, bad, b}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	got := decodeBody[SolveBatchResponse](t, resp)
	if len(got.Items) != 3 {
		t.Fatalf("%d batch items, want 3", len(got.Items))
	}
	if got.Items[1].Error == "" || got.Items[1].Response != nil {
		t.Fatalf("invalid item: error=%q response=%v, want an isolated per-item error",
			got.Items[1].Error, got.Items[1].Response)
	}
	for i, want := range map[int]SolveResponse{0: wantA, 2: wantB} {
		item := got.Items[i]
		if item.Error != "" || item.Response == nil {
			t.Fatalf("item %d: error=%q, want a response", i, item.Error)
		}
		if item.Response.Energy != want.Energy {
			t.Fatalf("item %d energy %v, individual solve %v", i, item.Response.Energy, want.Energy)
		}
		for j := range want.Spins {
			if item.Response.Spins[j] != want.Spins[j] {
				t.Fatalf("item %d spin %d differs from the individual solve", i, j)
			}
		}
	}
}

// TestSolveBatchRejectsEmptyAndOversized: the batch endpoint's request
// validation is batch-level — an empty list and an oversized one are 400s
// before any solver work.
func TestSolveBatchRejectsEmptyAndOversized(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/solve/batch", SolveBatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	over := SolveBatchRequest{Items: make([]SolveRequest, maxBatchItems+1)}
	resp = postJSON(t, ts.URL+"/v1/solve/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCoordinatorDegradedStampNeverCached: a solve that exhausted the
// fleet is stamped degraded_peers and must not populate the cache — the
// same request with peers healthy again answers undegraded and cold.
func TestCoordinatorDegradedStampNeverCached(t *testing.T) {
	defer fault.DisarmAll()
	_, peer := testServer(t, Config{Workers: 2})
	cs, coord := testServer(t, Config{
		Workers: 2, RetryBackoff: time.Millisecond,
		Peers: []string{peer.URL},
	})

	fault.MustArm("serve.peer.dispatch", fault.Scenario{Mode: fault.ModeDrop, Times: -1})
	got := solveOK(t, coord.URL, shardSolveReq(91))
	if !got.Degraded || got.DegradedReason != "degraded_peers" {
		t.Fatalf("degraded=%v reason=%q, want the degraded_peers stamp", got.Degraded, got.DegradedReason)
	}
	if got.Cached {
		t.Fatal("degraded response claims to be cached")
	}

	// The run quarantined the peer; a clean probe sweep readmits it
	// before the healthy re-run.
	fault.DisarmAll()
	cs.fleet.probeAll(context.Background())
	again := solveOK(t, coord.URL, shardSolveReq(91))
	if again.Cached {
		t.Fatal("degraded answer entered the cache")
	}
	if again.Degraded {
		t.Fatal("healthy re-run still stamped degraded")
	}
	if again.Energy != got.Energy {
		t.Fatalf("degraded energy %v differs from healthy %v — fallback must be bit-identical",
			got.Energy, again.Energy)
	}
}

// TestHealthzReportsFleet: /healthz carries the per-peer fleet payload —
// lifecycle state and dispatch accounting per URL.
func TestHealthzReportsFleet(t *testing.T) {
	_, peer := testServer(t, Config{Workers: 2})
	_, coord := testServer(t, Config{Workers: 2, Peers: []string{peer.URL}})

	solveOK(t, coord.URL, shardSolveReq(97))
	resp, err := http.Get(coord.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[Health](t, resp)
	ph, ok := h.Peers[peer.URL]
	if !ok {
		t.Fatalf("healthz peers %v missing %q", h.Peers, peer.URL)
	}
	if ph.State != "healthy" {
		t.Fatalf("peer state %q, want healthy", ph.State)
	}
	if ph.Dispatches == 0 {
		t.Fatal("peer dispatch accounting missing from healthz")
	}
}

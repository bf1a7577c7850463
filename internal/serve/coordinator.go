package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"isinglut"
	"isinglut/internal/fault"
	"isinglut/internal/metrics"
	"isinglut/internal/shard"
)

// Coordinator failpoints. shard.dispatch is the legacy whole-dispatch
// killer (fails the attempt before anything goes on the wire, modelling
// an unreachable peer). The serve.peer.* sites are the fleet-era,
// mode-aware ones: serve.peer.dispatch delays, drops or corrupts one
// batch dispatch (keyed scenarios key on the peer's fleet index, so a
// chaos test sickens one member deterministically), and serve.peer.hedge
// forces the hedge timer to zero so the re-steal path runs without
// waiting out a real latency quantile.
var (
	siteDispatch      = fault.NewSite("shard.dispatch")
	siteFleetDispatch = fault.NewSite("serve.peer.dispatch")
	siteHedge         = fault.NewSite("serve.peer.hedge")
)

// errFleetExhausted marks a sub-solve the fleet could not serve — the
// retry budget or the healthy set ran out — as opposed to a per-item
// rejection inside an otherwise-successful batch. The distinction drives
// the degraded_peers response stamp: only fleet exhaustion degrades.
var errFleetExhausted = errors.New("peer fleet exhausted")

// shardDispatcher builds the coordinator-mode dispatcher for one
// request: each exchange round's sub-solves are grouped per peer by
// least-loaded pick over the healthy set and dispatched as one
// /v1/solve/batch round trip per peer, retried with capped exponential
// backoff + jitter under the per-round retry budget, hedged onto a
// second peer past the fleet's latency quantile — and any sub-solve the
// fleet cannot serve falls back to the in-process dispatcher, which is
// bit-identical to what the peer would have computed (both run the same
// mapping for the same seed).
func (s *Server) shardDispatcher(req *SolveRequest, opts isinglut.SBOptions) *peerDispatcher {
	return &peerDispatcher{
		srv:      s,
		req:      req,
		fallback: isinglut.NewLocalShardDispatcher(opts),
	}
}

type peerDispatcher struct {
	srv      *Server
	req      *SolveRequest
	fallback isinglut.ShardDispatcher

	// budget is the per-round retry/hedge allowance, reset at each
	// SolveBatch call (one call per exchange round).
	budget atomic.Int64
	// degraded latches when any sub-solve had to abandon the fleet
	// (errFleetExhausted); handleSolve stamps the response from it.
	degraded atomic.Bool
}

// Solve implements shard.Dispatcher for callers that dispatch one
// sub-solve at a time; the exchange loop itself uses SolveBatch.
func (d *peerDispatcher) Solve(ctx context.Context, sub shard.SubProblem) (shard.SubResult, error) {
	res, errs := d.SolveBatch(ctx, []shard.SubProblem{sub})
	return res[0], errs[0]
}

// SolveBatch implements shard.BatchDispatcher over the peer fleet: one
// exchange round's sub-solves in, their results out, per-item errors
// only (a sub-solve the fleet and the local fallback both fail is the
// exchange loop's kept-spins case, never a failed round).
func (d *peerDispatcher) SolveBatch(ctx context.Context, subs []shard.SubProblem) ([]shard.SubResult, []error) {
	results := make([]shard.SubResult, len(subs))
	errs := make([]error, len(subs))
	if len(subs) == 0 {
		return results, errs
	}
	d.budget.Store(int64(d.srv.cfg.PeerRetryBudget))
	sm := metrics.Shard()

	// Least-loaded assignment: every sub goes to the currently
	// cheapest eligible peer, counting both in-flight work and what this
	// very round has already assigned. Quarantined peers take nothing.
	pending := make(map[*peerClient]int)
	groups := make(map[*peerClient][]int)
	var order []*peerClient // deterministic goroutine launch order
	for k := range subs {
		p := d.srv.fleet.pickLoaded(nil, pending)
		if p == nil {
			errs[k] = fmt.Errorf("%w: no eligible peer", errFleetExhausted)
			continue
		}
		if len(groups[p]) == 0 {
			order = append(order, p)
		}
		groups[p] = append(groups[p], k)
		pending[p]++
	}

	var wg sync.WaitGroup
	for _, p := range order {
		wg.Add(1)
		go func(p *peerClient, idxs []int) {
			defer wg.Done()
			group := make([]shard.SubProblem, len(idxs))
			for i, k := range idxs {
				group[i] = subs[k]
			}
			gres, gerrs, gerr := d.dispatchGroup(ctx, p, group)
			for i, k := range idxs {
				if gerr != nil {
					errs[k] = gerr
					continue
				}
				results[k], errs[k] = gres[i], gerrs[i]
			}
		}(p, groups[p])
	}
	wg.Wait()

	// Local fallback for everything the fleet did not serve. Fleet
	// exhaustion (vs a per-item rejection) additionally latches the
	// degraded_peers stamp. The fallback is bit-identical to the peer
	// path, so failover never changes the answer.
	var fb []int
	for k, err := range errs {
		if err != nil {
			if errors.Is(err, errFleetExhausted) {
				d.degraded.Store(true)
			}
			fb = append(fb, k)
		}
	}
	if len(fb) > 0 {
		d.srv.cfg.Logf("adecompd: %d of %d sub-solves fell back locally (%v)", len(fb), len(subs), errs[fb[0]])
		var fwg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, k := range fb {
			sm.PeerFallback.Inc()
			fwg.Add(1)
			go func(k int) {
				defer fwg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[k], errs[k] = d.fallback.Solve(ctx, subs[k])
			}(k)
		}
		fwg.Wait()
	}
	return results, errs
}

// takeBudget consumes one unit of the round's retry/hedge allowance.
func (d *peerDispatcher) takeBudget() bool {
	for {
		v := d.budget.Load()
		if v <= 0 {
			return false
		}
		if d.budget.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// backoffCap bounds the exponential retry backoff between group
// re-dispatches.
const backoffCap = time.Second

// dispatchGroup runs one peer's sub-solve group to completion: hedged
// dispatch, then on failure capped-exponential-backoff retries against
// freshly picked peers (never one that already failed this group) while
// the round budget lasts. The returned error is group-wide and always
// wraps errFleetExhausted — per-item errors ride the slice.
func (d *peerDispatcher) dispatchGroup(ctx context.Context, peer *peerClient, group []shard.SubProblem) ([]shard.SubResult, []error, error) {
	sm := metrics.Shard()
	exclude := map[*peerClient]bool{}
	backoff := d.srv.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		res, itemErrs, err := d.solveGroupHedged(ctx, peer, group)
		if err == nil {
			return res, itemErrs, nil
		}
		exclude[peer] = true
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("%w: %v", errFleetExhausted, err)
		}
		if !d.takeBudget() {
			return nil, nil, fmt.Errorf("%w: retry budget spent after %q", errFleetExhausted, err)
		}
		next := d.srv.fleet.pickLoaded(exclude, nil)
		if next == nil {
			return nil, nil, fmt.Errorf("%w: no peer left to retry after %q", errFleetExhausted, err)
		}
		sm.PeerRetries.Inc()
		d.srv.clk.Sleep(ctx, d.srv.jitterAround(backoff))
		if backoff < backoffCap {
			backoff *= 2
			if backoff > backoffCap {
				backoff = backoffCap
			}
		}
		peer = next
	}
}

// groupOutcome is one solveGroup completion racing through the hedge
// arbitration.
type groupOutcome struct {
	res      []shard.SubResult
	itemErrs []error
	err      error
	hedged   bool
}

// solveGroupHedged runs the group on peer with a hedge: when the
// dispatch outlives the fleet's latency quantile (see peerPool
// .hedgeDelay; the serve.peer.hedge failpoint forces it to zero), a
// duplicate launches on a second peer under the same round budget, the
// first error-free outcome wins and the loser's context is cancelled —
// the work-re-stealing path. A plain failure is returned immediately
// for the retry loop; it never waits out the hedge timer.
func (d *peerDispatcher) solveGroupHedged(ctx context.Context, peer *peerClient, group []shard.SubProblem) ([]shard.SubResult, []error, error) {
	sm := metrics.Shard()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outCh := make(chan groupOutcome, 2)
	go func() {
		res, itemErrs, err := d.solveGroup(cctx, peer, group)
		outCh <- groupOutcome{res, itemErrs, err, false}
	}()

	hedgeCh := make(chan bool, 1)
	go func() {
		delay := d.srv.fleet.hedgeDelay()
		if siteHedge.Fire() {
			delay = 0
		}
		if delay > 0 {
			d.srv.clk.Sleep(cctx, delay)
		}
		if cctx.Err() != nil || !d.takeBudget() {
			hedgeCh <- false
			return
		}
		second := d.srv.fleet.pickLoaded(map[*peerClient]bool{peer: true}, nil)
		if second == nil {
			d.budget.Add(1) // nothing launched, return the unit
			hedgeCh <- false
			return
		}
		sm.PeerHedges.Inc()
		hedgeCh <- true
		res, itemErrs, err := d.solveGroup(cctx, second, group)
		outCh <- groupOutcome{res, itemErrs, err, true}
	}()

	outstanding := 1
	hedgeKnown, hedgeLaunched := false, false
	var lastErr error
	for {
		select {
		case out := <-outCh:
			outstanding--
			if out.err == nil {
				cancel()
				if !hedgeKnown {
					hedgeLaunched = <-hedgeCh
					hedgeKnown = true
				}
				if out.hedged {
					sm.PeerHedgesWon.Inc()
				} else if hedgeLaunched {
					sm.PeerHedgesLost.Inc()
				}
				return out.res, out.itemErrs, nil
			}
			lastErr = out.err
			if !hedgeKnown {
				// The primary failed outright: stop a hedge that has not
				// launched yet — the retry loop handles failures, the hedge
				// only covers stragglers.
				cancel()
				hedgeLaunched = <-hedgeCh
				hedgeKnown = true
				if hedgeLaunched {
					outstanding++
				}
			}
			if outstanding == 0 {
				return nil, nil, lastErr
			}
		case hedgeLaunched = <-hedgeCh:
			hedgeKnown = true
			if hedgeLaunched {
				outstanding++
			}
		}
	}
}

// solveGroup runs one peer's group as a single /v1/solve/batch round
// trip: failpoint-instrumented, outcome fed back into the peer's
// lifecycle and the fleet latency distribution. The group error covers
// transport-level trouble; per-item errors (a rejected or corrupt item
// inside a 200 batch) ride the slice and do not touch the lifecycle.
func (d *peerDispatcher) solveGroup(ctx context.Context, peer *peerClient, group []shard.SubProblem) ([]shard.SubResult, []error, error) {
	sm := metrics.Shard()
	if siteDispatch.Fire() {
		peer.noteFailure(sm)
		return nil, nil, fmt.Errorf("fault: injected shard.dispatch failure (round %d, %d shards)", group[0].Round, len(group))
	}
	corrupt := false
	if sc, fired := siteFleetDispatch.FireKeySpec(int64(peer.idx)); fired {
		switch sc.Mode {
		case fault.ModeDelay:
			d.srv.clk.Sleep(ctx, sc.Delay)
		case fault.ModeCorrupt:
			corrupt = true
		default: // drop
			peer.noteFailure(sm)
			return nil, nil, fmt.Errorf("fault: injected serve.peer.dispatch drop (peer %d)", peer.idx)
		}
	}
	// The wire deadline is the REMAINING outer budget capped by the
	// per-shard timeout, and it travels in the body (timeout_ms) too:
	// a peer never burns pool slots on a sub-solve the coordinator has
	// already abandoned client-side.
	timeout := d.srv.cfg.ShardTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	breq := SolveBatchRequest{Items: make([]SolveRequest, len(group))}
	for i, sub := range group {
		breq.Items[i] = d.subRequest(sub, timeout.Milliseconds())
	}
	body, err := json.Marshal(breq)
	if err != nil {
		return nil, nil, err
	}

	peer.acquire()
	defer peer.release()
	sm.PeerBatches.Inc()
	sm.PeerDispatch.Add(int64(len(group)))

	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(pctx, http.MethodPost, peer.url+"/v1/solve/batch", bytes.NewReader(body))
	if err != nil {
		peer.noteFailure(sm)
		return nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	started := time.Now()
	hres, err := d.srv.fleet.client.Do(hreq)
	if err != nil {
		// A coordinator-side cancellation (hedge lost the race, outer
		// deadline) is not the peer's fault — only blame it when the
		// group context is still live.
		if ctx.Err() == nil {
			peer.noteFailure(sm)
		}
		return nil, nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		peer.noteFailure(sm)
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 512))
		return nil, nil, fmt.Errorf("peer status %d: %s", hres.StatusCode, bytes.TrimSpace(msg))
	}
	var bresp SolveBatchResponse
	if err := json.NewDecoder(io.LimitReader(hres.Body, 64<<20)).Decode(&bresp); err != nil {
		if ctx.Err() == nil {
			peer.noteFailure(sm)
		}
		return nil, nil, fmt.Errorf("peer response: %w", err)
	}
	if len(bresp.Items) != len(group) {
		peer.noteFailure(sm)
		return nil, nil, fmt.Errorf("peer answered %d items for %d", len(bresp.Items), len(group))
	}
	latency := time.Since(started)
	peer.noteSuccess(latency, sm)
	d.srv.fleet.observeLatency(latency)

	results := make([]shard.SubResult, len(group))
	itemErrs := make([]error, len(group))
	for i, item := range bresp.Items {
		if item.Error != "" {
			itemErrs[i] = fmt.Errorf("peer item %d: %s", i, item.Error)
			continue
		}
		if item.Response == nil {
			itemErrs[i] = fmt.Errorf("peer item %d: empty", i)
			continue
		}
		spins := item.Response.Spins
		if corrupt && len(spins) > 0 {
			// Corrupt-response injection: mangle a spin so the validation
			// below must catch it — the sub-solve degrades to the local
			// fallback, never into the global state.
			spins = append([]int8(nil), spins...)
			spins[0] = 0
		}
		if err := validSpins(spins, group[i].N); err != nil {
			itemErrs[i] = fmt.Errorf("peer item %d: %v", i, err)
			continue
		}
		results[i] = shard.SubResult{
			Spins:      spins,
			Energy:     item.Response.Energy,
			Iterations: item.Response.Iterations,
			Quantized:  item.Response.Quantized,
			BitPacked:  item.Response.BitPacked,
		}
	}
	return results, itemErrs, nil
}

// subRequest translates one SubProblem onto the solve wire format with
// the original request's solver knobs and the schedule-derived seed.
func (d *peerDispatcher) subRequest(sub shard.SubProblem, timeoutMS int64) SolveRequest {
	if timeoutMS < 1 {
		timeoutMS = 1
	}
	preq := SolveRequest{
		N:           sub.N,
		Couplings:   make([]Coupling, len(sub.Couplings)),
		Biases:      sub.Bias,
		Variant:     d.req.Variant,
		Steps:       d.req.Steps,
		Dt:          d.req.Dt,
		Seed:        sub.Seed,
		Replicas:    d.req.Replicas,
		DynamicStop: d.req.DynamicStop,
		F:           d.req.F,
		S:           d.req.S,
		Epsilon:     d.req.Epsilon,
		Rescue:      d.req.Rescue,
		Quant:       d.req.Quant,
		TimeoutMS:   timeoutMS,
	}
	for i, t := range sub.Couplings {
		preq.Couplings[i] = Coupling{I: t.I, J: t.J, V: t.V}
	}
	return preq
}

// validSpins is the coordinator-side copy of the shard layer's spin
// validation: length and ±1 entries, so a corrupt peer answer degrades
// to the local fallback here instead of reaching the exchange guard.
func validSpins(spins []int8, n int) error {
	if len(spins) != n {
		return fmt.Errorf("sub-result has %d spins, want %d", len(spins), n)
	}
	for i, s := range spins {
		if s != 1 && s != -1 {
			return fmt.Errorf("sub-result spin %d is %d, want ±1", i, s)
		}
	}
	return nil
}

// jitterAround draws one jittered duration uniform in [d/2, 3d/2] from
// the server's seeded jitter source (same shape as retryDelay, for an
// arbitrary base).
func (s *Server) jitterAround(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return d/2 + time.Duration(s.jitter.Int63n(int64(d)+1))
}

// shardTimeoutDefault is the per-shard peer deadline when the config
// names none: generous against a loaded peer, small against the outer
// request timeouts a coordinator-mode client will use.
const shardTimeoutDefault = 10 * time.Second

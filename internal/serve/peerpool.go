package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/metrics"
)

// siteProbe fails or delays a fleet health probe when armed, modelling a
// peer whose /readyz is unreachable or slow. Keyed scenarios key on the
// peer's index in the configured fleet, so a chaos test can sicken one
// member deterministically while the rest stay green.
var siteProbe = fault.NewSite("serve.peer.probe")

// peerState is the fleet-membership lifecycle of one peer:
//
//	healthy ──failure──▶ suspect ──failures──▶ quarantined
//	   ▲                    │                      │
//	   └────── success ─────┘◀──── probe/dispatch success (readmission)
//
// Healthy peers take new work first; suspect peers (one recent failure)
// are eligible only when no healthy peer is free; quarantined peers take
// no dispatches at all until a probe or a hedged success readmits them.
// A probe readmission is on probation: the peer is healthy again but
// stays one failure from quarantine until a dispatch succeeds, since a
// green /readyz does not show that /v1/solve/batch works.
type peerState int

const (
	peerHealthy peerState = iota
	peerSuspect
	peerQuarantined
)

func (s peerState) String() string {
	switch s {
	case peerSuspect:
		return "suspect"
	case peerQuarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// quarantineAfter is the consecutive-failure count (dispatch or probe)
// that moves a suspect peer into quarantine.
const quarantineAfter = 3

// ewmaAlpha weights the newest observation in the per-peer latency and
// error-score EWMAs: high enough to react to a peer going slow within a
// few sub-solves, low enough that one outlier does not reorder the
// fleet.
const ewmaAlpha = 0.3

// peerClient is one fleet member: the daemon's base URL and the
// mutex-guarded lifecycle/score state the pool's placement decisions
// read. The lifecycle is the peer's only health state machine: a
// quarantined peer takes no dispatches (the role an open circuit breaker
// would play), and the first dispatch after a probe readmits it is its
// half-open test.
type peerClient struct {
	url string
	// idx is the peer's position in the configured fleet — the stable
	// key the serve.peer.* failpoints use to sicken one member.
	idx int

	mu    sync.Mutex
	state peerState
	// consecFails counts failures since the last success; a healthy peer
	// with consecFails > 0 is on probation after a probe readmission.
	consecFails int
	inflight    int
	// ewmaLatencyMS and errScore are the in-band quality signals: an
	// exponentially weighted moving average of sub-solve latency and of
	// the failure indicator (1 fail / 0 success).
	ewmaLatencyMS float64
	errScore      float64
	// Lifetime accounting for the /healthz fleet payload.
	probes       int64
	probeFails   int64
	readmissions int64
	dispatches   int64
	failures     int64
}

// acquire/release track in-flight dispatches for least-loaded placement.
func (p *peerClient) acquire() {
	p.mu.Lock()
	p.inflight++
	p.dispatches++
	p.mu.Unlock()
}

func (p *peerClient) release() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
}

// noteSuccess records a completed dispatch: the peer is (re)admitted to
// the healthy set and its quality scores absorb the observation.
func (p *peerClient) noteSuccess(latency time.Duration, sm *metrics.Sharding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == peerQuarantined {
		p.readmissions++
		sm.PeerReadmitted.Inc()
	}
	p.state = peerHealthy
	p.consecFails = 0
	ms := float64(latency) / float64(time.Millisecond)
	if p.ewmaLatencyMS == 0 {
		p.ewmaLatencyMS = ms
	} else {
		p.ewmaLatencyMS += ewmaAlpha * (ms - p.ewmaLatencyMS)
	}
	p.errScore *= 1 - ewmaAlpha
}

// noteFailure records a failed dispatch: healthy demotes to suspect, a
// streak of quarantineAfter failures quarantines.
func (p *peerClient) noteFailure(sm *metrics.Sharding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	p.consecFails++
	p.errScore += ewmaAlpha * (1 - p.errScore)
	switch {
	case p.consecFails >= quarantineAfter && p.state != peerQuarantined:
		p.state = peerQuarantined
		sm.PeerQuarantined.Inc()
	case p.state == peerHealthy:
		p.state = peerSuspect
	}
}

// noteProbeSuccess records a green /readyz: a suspect peer is
// rehabilitated, and a quarantined one readmitted on probation — healthy,
// but quarantineAfter-1 failures deep, so one failed dispatch
// re-quarantines it and only a dispatch success (noteSuccess) clears the
// streak; later probes leave the probation alone. Probe latency
// deliberately does not enter the dispatch-latency EWMA — a probe is not
// a sub-solve.
func (p *peerClient) noteProbeSuccess(sm *metrics.Sharding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes++
	switch p.state {
	case peerQuarantined:
		p.readmissions++
		sm.PeerReadmitted.Inc()
		p.state = peerHealthy
		p.consecFails = quarantineAfter - 1
	case peerSuspect:
		p.state = peerHealthy
		p.consecFails = 0
	}
}

// noteProbeFailure records a failed /readyz, walking the same demotion
// ladder as dispatch failures.
func (p *peerClient) noteProbeFailure(sm *metrics.Sharding) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes++
	p.probeFails++
	p.consecFails++
	sm.PeerProbeFails.Inc()
	switch {
	case p.consecFails >= quarantineAfter && p.state != peerQuarantined:
		p.state = peerQuarantined
		sm.PeerQuarantined.Inc()
	case p.state == peerHealthy:
		p.state = peerSuspect
	}
}

// snapshot copies the placement-relevant state in one lock hold.
func (p *peerClient) snapshot() (state peerState, inflight int, ewmaMS float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state, p.inflight, p.ewmaLatencyMS
}

// PeerHealth is one fleet member's entry in the /healthz payload.
type PeerHealth struct {
	State         string  `json:"state"` // "healthy", "suspect", "quarantined"
	InFlight      int     `json:"in_flight"`
	EwmaLatencyMS float64 `json:"ewma_latency_ms"`
	ErrorScore    float64 `json:"error_score"`
	Probes        int64   `json:"probes"`
	ProbeFailures int64   `json:"probe_failures"`
	Readmissions  int64   `json:"readmissions"`
	Dispatches    int64   `json:"dispatches"`
	Failures      int64   `json:"failures"`
}

func (p *peerClient) health() PeerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PeerHealth{
		State:         p.state.String(),
		InFlight:      p.inflight,
		EwmaLatencyMS: p.ewmaLatencyMS,
		ErrorScore:    p.errScore,
		Probes:        p.probes,
		ProbeFailures: p.probeFails,
		Readmissions:  p.readmissions,
		Dispatches:    p.dispatches,
		Failures:      p.failures,
	}
}

// peerPool is the fleet manager: placement, health probing and the
// hedge-threshold estimate over the configured peers. The peers slice is
// shared with Server.peers (tests reach the members through it) and is
// immutable after construction — membership changes are state changes on
// the members, never slice mutations.
type peerPool struct {
	peers         []*peerClient
	clk           Clock
	client        *http.Client
	probeInterval time.Duration
	hedgeQuantile float64
	shardTimeout  time.Duration
	logf          func(format string, args ...any)

	// latHist collects successful sub-solve batch latencies (milliseconds,
	// HDR-shaped buckets from 1ms to ~16s) — the fleet-wide distribution
	// the hedge threshold is quoted from.
	latHist *metrics.Histogram

	// jitter randomizes the probe interval (±20%) so a fleet of
	// coordinators does not synchronize its probe bursts; seeded from
	// Config.JitterSeed for reproducible tests.
	jitterMu sync.Mutex
	jitter   *rand.Rand
}

func newPeerPool(peers []*peerClient, cfg Config) *peerPool {
	return &peerPool{
		peers:         peers,
		clk:           cfg.Clock,
		client:        &http.Client{},
		probeInterval: cfg.PeerProbeInterval,
		hedgeQuantile: cfg.PeerHedgeQuantile,
		shardTimeout:  cfg.ShardTimeout,
		logf:          cfg.Logf,
		latHist:       metrics.NewHistogram(metrics.HDRBounds(1, 14, 4)),
		jitter:        rand.New(rand.NewSource(cfg.JitterSeed ^ 0x70656572)),
	}
}

// pick returns the dispatch target: the least-loaded healthy peer, or —
// only when no healthy peer exists — the least-loaded suspect one
// (giving a wobbling peer its rehabilitation traffic instead of
// abandoning the fleet). Ties break on EWMA latency, then on index for
// determinism. Quarantined and excluded peers never come back; nil means
// the healthy set is exhausted and the caller must fall back locally.
func (pl *peerPool) pick(exclude map[*peerClient]bool) *peerClient {
	return pl.pickLoaded(exclude, nil)
}

// pickLoaded is pick with an extra per-peer load map folded into the
// in-flight count — the coordinator passes the assignments it has made
// this round but not yet dispatched, so one round's sub-solves spread
// across the fleet instead of all landing on the currently idlest peer.
func (pl *peerPool) pickLoaded(exclude map[*peerClient]bool, extra map[*peerClient]int) *peerClient {
	var best *peerClient
	bestLoad, bestLat := 0, 0.0
	consider := func(want peerState) {
		for _, p := range pl.peers {
			if exclude[p] {
				continue
			}
			state, load, lat := p.snapshot()
			load += extra[p]
			if state != want {
				continue
			}
			if best == nil || load < bestLoad || (load == bestLoad && lat < bestLat) {
				best, bestLoad, bestLat = p, load, lat
			}
		}
	}
	consider(peerHealthy)
	if best == nil {
		consider(peerSuspect)
	}
	return best
}

// observeLatency feeds one successful sub-solve latency into the fleet
// distribution.
func (pl *peerPool) observeLatency(d time.Duration) {
	pl.latHist.Observe(float64(d) / float64(time.Millisecond))
}

// hedgeMinObservations is how many latency samples the hedge threshold
// needs before it trusts the quantile; below it the hedge timer uses the
// conservative fallback (half the shard timeout).
const hedgeMinObservations = 8

// hedgeDelay is how long a dispatch may run before a hedged duplicate
// launches: the fleet's PeerHedgeQuantile (default p95) sub-solve
// latency, clamped to [1ms, ShardTimeout]. A negative quantile disables
// hedging entirely (the timer never fires before the shard deadline).
func (pl *peerPool) hedgeDelay() time.Duration {
	if pl.hedgeQuantile < 0 {
		return pl.shardTimeout
	}
	snap := pl.latHist.Snapshot()
	if snap.Total() < hedgeMinObservations {
		return pl.shardTimeout / 2
	}
	d := time.Duration(snap.Quantile(pl.hedgeQuantile) * float64(time.Millisecond))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > pl.shardTimeout {
		d = pl.shardTimeout
	}
	return d
}

// probeAll runs one synchronous probe sweep over the whole fleet in
// index order. Deterministic by construction — the virtual-time tests
// call it directly to step the lifecycle without a background goroutine.
func (pl *peerPool) probeAll(ctx context.Context) {
	sm := metrics.Shard()
	for i, p := range pl.peers {
		if ctx.Err() != nil {
			return
		}
		sm.PeerProbes.Inc()
		if sc, fired := siteProbe.FireKeySpec(int64(i)); fired {
			if sc.Mode == fault.ModeDelay {
				pl.clk.Sleep(ctx, sc.Delay)
			} else {
				p.noteProbeFailure(sm)
				continue
			}
		}
		if pl.probeOne(ctx, p) {
			p.noteProbeSuccess(sm)
		} else {
			p.noteProbeFailure(sm)
		}
	}
}

// probeOne issues one /readyz GET with a deadline well under the probe
// interval, so a hung peer costs one timeout, not a stalled sweep.
func (pl *peerPool) probeOne(ctx context.Context, p *peerClient) bool {
	timeout := pl.probeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, p.url+"/readyz", nil)
	if err != nil {
		return false
	}
	res, err := pl.client.Do(req)
	if err != nil {
		return false
	}
	res.Body.Close()
	return res.StatusCode == http.StatusOK
}

// probeLoop runs probe sweeps at the jittered interval until ctx is
// done. Started by Server.StartPeerProbes.
func (pl *peerPool) probeLoop(ctx context.Context) {
	for {
		pl.clk.Sleep(ctx, pl.jitteredInterval())
		if ctx.Err() != nil {
			return
		}
		pl.probeAll(ctx)
	}
}

// jitteredInterval draws the next probe sleep uniformly from
// [0.8, 1.2]×probeInterval.
func (pl *peerPool) jitteredInterval() time.Duration {
	pl.jitterMu.Lock()
	f := 0.8 + 0.4*pl.jitter.Float64()
	pl.jitterMu.Unlock()
	return time.Duration(float64(pl.probeInterval) * f)
}

// fleetHealth builds the per-peer /healthz payload.
func (pl *peerPool) fleetHealth() map[string]PeerHealth {
	if len(pl.peers) == 0 {
		return nil
	}
	out := make(map[string]PeerHealth, len(pl.peers))
	for _, p := range pl.peers {
		out[p.url] = p.health()
	}
	return out
}

// NormalizePeers validates and canonicalizes a -peers list at startup:
// malformed URLs and non-http schemes are hard errors (a bad peer must
// fail boot, not the first dispatch), duplicates collapse after
// trailing-slash and default-port normalization, and a peer that names
// the daemon's own listen address is rejected — a coordinator
// dispatching sub-solves to itself would deadlock its own worker pool.
// The self check is heuristic by design (no DNS): it catches the same
// port on localhost/loopback/the literal listen host.
func NormalizePeers(peers []string, listenAddr string) ([]string, error) {
	listenHost, listenPort, _ := net.SplitHostPort(listenAddr)
	seen := make(map[string]bool, len(peers))
	out := make([]string, 0, len(peers))
	for _, raw := range peers {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %v", raw, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("peer %q: scheme must be http or https", raw)
		}
		if u.Host == "" {
			return nil, fmt.Errorf("peer %q: missing host", raw)
		}
		if u.RawQuery != "" || u.Fragment != "" || (u.Path != "" && u.Path != "/") {
			return nil, fmt.Errorf("peer %q: must be a bare base URL (scheme://host[:port])", raw)
		}
		host := u.Hostname()
		port := u.Port()
		if port == "" {
			if u.Scheme == "https" {
				port = "443"
			} else {
				port = "80"
			}
		}
		if listenPort != "" && port == listenPort && sameHost(host, listenHost) {
			return nil, fmt.Errorf("peer %q is the daemon's own listen address %q (self-dispatch loop)", raw, listenAddr)
		}
		canon := u.Scheme + "://" + net.JoinHostPort(host, port)
		if seen[canon] {
			continue
		}
		seen[canon] = true
		out = append(out, strings.TrimRight(raw, "/"))
	}
	return out, nil
}

// sameHost reports whether a peer host plausibly names the listen host:
// an exact match, or — when the daemon listens on all interfaces or on a
// loopback address — any loopback spelling.
func sameHost(peerHost, listenHost string) bool {
	if strings.EqualFold(peerHost, listenHost) {
		return true
	}
	loop := func(h string) bool {
		if strings.EqualFold(h, "localhost") {
			return true
		}
		ip := net.ParseIP(h)
		return ip != nil && ip.IsLoopback()
	}
	// Empty listen host = all interfaces: any local spelling is self.
	if listenHost == "" {
		return loop(peerHost)
	}
	return loop(peerHost) && loop(listenHost)
}

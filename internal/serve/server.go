package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"isinglut"
	"isinglut/internal/fault"
	"isinglut/internal/metrics"
)

// siteDecompose fails the /v1/decompose solver job when armed, modelling
// a persistent primary-path outage scoped to one endpoint: the loadtest
// degraded-traffic class arms it to force the decompose breaker open and
// exercise the DALTA fallback without disturbing /v1/solve traffic.
var siteDecompose = fault.NewSite("serve.decompose")

// errInjectedOutage is what siteDecompose's firing reports upward.
var errInjectedOutage = errors.New("fault: injected serve.decompose outage")

// Config sizes the service. The zero value is usable: every field has a
// production-minded default applied by New.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// Workers bounds concurrent solver jobs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting beyond the executing ones; a full
	// queue sheds new work with 429 (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; 0 keeps the
	// default (256), negative disables caching.
	CacheSize int
	// DefaultTimeout bounds a request that names no timeout_ms
	// (default 30s); MaxTimeout clamps requested timeouts (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout is the SIGTERM grace budget: in-flight solves are
	// cancelled (returning verified best-so-far results) once it elapses
	// (default 10s).
	DrainTimeout time.Duration
	// MaxInputs bounds accepted function sizes; a 2^n-entry table is the
	// unit of work, so this is the service's cost ceiling (default 16).
	MaxInputs int
	// MaxSpins bounds accepted raw Ising problem sizes (default 4096).
	MaxSpins int
	// MaxSteps bounds /v1/solve iteration requests (default 1e9) and
	// MaxReplicas the replica count (default 4096): both multiply the
	// per-request work, so unbounded values would let one request pin a
	// worker far beyond any timeout's patience.
	MaxSteps    int
	MaxReplicas int
	// Retries is how many times a failed or panicked solver job is
	// re-attempted before the request is declared failed (default 1;
	// negative disables retries). RetryBackoff is the base for the
	// jittered sleep between attempts (default 50ms).
	Retries      int
	RetryBackoff time.Duration
	// BreakerThreshold consecutive solver failures open the
	// /v1/decompose or /v1/solve circuit breaker (default 5; negative
	// disables the breakers). While open, /v1/decompose serves the DALTA
	// fallback directly and /v1/solve fails fast with 503; after
	// BreakerCooldown (default 5s) a single probe request is let through.
	// Peers have no breaker: their fleet lifecycle quarantines them.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Peers lists peer daemon base URLs (e.g. "http://10.0.0.2:8080")
	// for coordinator mode: a sharded /v1/solve request ("shard" > 0)
	// dispatches its sub-solves across them over the same /v1/solve wire
	// format, with a per-peer health lifecycle (healthy, suspect,
	// quarantined; probes readmit) and bit-identical local fallback.
	// Empty keeps every sub-solve in-process.
	Peers []string
	// ShardTimeout is the per-shard peer deadline in coordinator mode
	// (default 10s): a straggling peer fails that one sub-solve over to
	// the local fallback instead of stalling the whole exchange round.
	ShardTimeout time.Duration
	// PeerProbeInterval paces the background /readyz fleet probes
	// (default 2s, jittered ±20%); negative disables the probe loop
	// (dispatch outcomes still drive the lifecycle).
	PeerProbeInterval time.Duration
	// PeerHedgeQuantile is the fleet latency quantile past which a
	// straggling sub-solve dispatch launches a hedged duplicate on a
	// second peer (default 0.95); negative disables hedging.
	PeerHedgeQuantile float64
	// PeerRetryBudget bounds peer re-dispatches per exchange round across
	// all shards (default 3); when it is spent, failed dispatches degrade
	// straight to the local fallback. Negative means no retries.
	PeerRetryBudget int
	// Logf, when non-nil, receives one line per lifecycle event (startup,
	// drain, shutdown). Request logging is intentionally absent — the
	// metrics layer carries the aggregate story.
	Logf func(format string, args ...any)
	// Clock supplies the serving stack's time-based behavior: breaker
	// cooldown timing and retry-backoff sleeps. Nil uses the real clock;
	// deterministic test harnesses inject a virtual one.
	Clock Clock
	// JitterSeed seeds the retry-backoff jitter source. 0 seeds from the
	// clock at startup (production); a fixed non-zero seed makes the
	// jitter sequence — and with it a loadtest e2e run — reproducible.
	JitterSeed int64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxInputs <= 0 {
		c.MaxInputs = 16
	}
	if c.MaxSpins <= 0 {
		c.MaxSpins = 4096
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1_000_000_000
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 4096
	}
	if c.Retries == 0 {
		c.Retries = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = shardTimeoutDefault
	}
	if c.PeerProbeInterval == 0 {
		c.PeerProbeInterval = 2 * time.Second
	}
	if c.PeerHedgeQuantile == 0 {
		c.PeerHedgeQuantile = 0.95
	}
	if c.PeerRetryBudget == 0 {
		c.PeerRetryBudget = 3
	}
	if c.PeerRetryBudget < 0 {
		c.PeerRetryBudget = 0
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = c.Clock.Now().UnixNano()
	}
	return c
}

// Server is the decomposition-as-a-service daemon: HTTP/JSON handlers
// over the public isinglut API, fronted by a bounded worker pool, an LRU
// result cache and a graceful-drain lifecycle. Construct with New; serve
// with Run (full lifecycle incl. signals) or mount Handler in a test or
// an existing mux.
type Server struct {
	cfg   Config
	pool  *pool
	cache *lruCache
	mux   *http.ServeMux
	start time.Time
	clk   Clock

	// jitter is the seeded retry-backoff source (Config.JitterSeed);
	// rand.Rand is not concurrency-safe, hence the mutex.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	draining atomic.Bool
	// hardCtx is cancelled DrainTimeout after drain begins; every
	// in-flight solve context is tied to it, so a drain deadline turns
	// outstanding work into best-so-far responses instead of losing it.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	decomposeMet *metrics.Service
	solveMet     *metrics.Service

	decomposeBreaker *breaker
	solveBreaker     *breaker

	// peers are the coordinator-mode sub-solve targets (Config.Peers);
	// fleet is the pool managing their lifecycle, placement and hedging
	// (nil without peers).
	peers []*peerClient
	fleet *peerPool
}

// New builds a Server from the config (zero values take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		pool:         newPool(cfg.Workers, cfg.QueueDepth),
		cache:        newLRUCache(cfg.CacheSize),
		mux:          http.NewServeMux(),
		start:        time.Now(),
		clk:          cfg.Clock,
		jitter:       rand.New(rand.NewSource(cfg.JitterSeed)),
		decomposeMet: metrics.ForService("serve.decompose"),
		solveMet:     metrics.ForService("serve.solve"),

		decomposeBreaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock.Now),
		solveBreaker:     newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock.Now),
	}
	for i, url := range cfg.Peers {
		s.peers = append(s.peers, &peerClient{url: url, idx: i})
	}
	if len(s.peers) > 0 {
		s.fleet = newPeerPool(s.peers, cfg)
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/decompose", s.handleDecompose)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	return s
}

// Handler returns the service's HTTP handler (also useful under
// httptest or an outer mux).
func (s *Server) Handler() http.Handler { return s.mux }

// StartPeerProbes launches the background fleet-probe loop (no-op
// without peers or with a negative PeerProbeInterval). Run calls it;
// test harnesses that mount Handler directly call it themselves — or
// skip it and drive s.fleet.probeAll for virtual-time determinism.
func (s *Server) StartPeerProbes(ctx context.Context) {
	if s.fleet == nil || s.cfg.PeerProbeInterval < 0 {
		return
	}
	go s.fleet.probeLoop(ctx)
}

// ProbePeersOnce runs one synchronous fleet probe sweep (no-op without
// peers). The topology harness and the deterministic tests step the peer
// lifecycle with it instead of waiting out the background interval.
func (s *Server) ProbePeersOnce(ctx context.Context) {
	if s.fleet != nil {
		s.fleet.probeAll(ctx)
	}
}

// Run serves on cfg.Addr until ctx is cancelled or a SIGTERM/SIGINT
// arrives, then drains: admission stops, in-flight requests get
// DrainTimeout to finish (their solver contexts are cancelled at the
// deadline so they return verified best-so-far results), and the listener
// closes. ready, when non-nil, receives the bound address once the
// listener is up (tests use it to avoid port races).
func (s *Server) Run(ctx context.Context, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	s.cfg.Logf("adecompd: listening on %s (workers=%d queue=%d cache=%d)",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueDepth, s.cfg.CacheSize)

	httpSrv := &http.Server{Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	probeCtx, probeCancel := context.WithCancel(ctx)
	defer probeCancel()
	s.StartPeerProbes(probeCtx)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		s.cfg.Logf("adecompd: %v received, draining (budget %s)", sig, s.cfg.DrainTimeout)
	case <-ctx.Done():
		s.cfg.Logf("adecompd: context done, draining (budget %s)", s.cfg.DrainTimeout)
	case err := <-errCh:
		return err // listener failed before any shutdown request
	}
	return s.drainAndShutdown(httpSrv)
}

// drainAndShutdown executes the graceful-drain sequence. Separate from
// Run so tests can drive it without real signals too.
func (s *Server) drainAndShutdown(httpSrv *http.Server) error {
	s.draining.Store(true) // readyz flips to 503, new submissions 503
	s.pool.drain()         // queue closed; accepted work keeps running
	// Arm the hard deadline: when the budget elapses, every in-flight
	// solve context cancels and the solvers return best-so-far.
	timer := time.AfterFunc(s.cfg.DrainTimeout, s.hardCancel)
	defer timer.Stop()

	// Shutdown stops the listener and waits for in-flight handlers; its
	// own context gets a little slack beyond the solver deadline so the
	// cancelled solves can still serialize their responses.
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+5*time.Second)
	defer cancel()
	err := httpSrv.Shutdown(shCtx)
	s.pool.wait()
	s.cfg.Logf("adecompd: drained, bye")
	return err
}

// solveContext derives one request's solver context: the HTTP request
// context (client disconnect), the per-request deadline, and the drain
// hard-deadline all interrupt it; the solvers then return verified
// best-so-far results per the cancellation contract.
func (s *Server) solveContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// admit runs work through the bounded pool, translating pool pressure to
// HTTP semantics: 503 while draining, 429 + Retry-After when saturated.
// It returns ok=false when the request was rejected (and answered).
// jobErr surfaces a panic that escaped the job's own recovery and was
// caught at the pool boundary — the worker survived, and the caller
// turns the crash into a structured failure for this one request.
func (s *Server) admit(w http.ResponseWriter, met *metrics.Service, started time.Time, work func()) (ok bool, jobErr error) {
	if s.draining.Load() {
		met.Drained.Inc()
		writeError(w, met, started, http.StatusServiceUnavailable, "server draining")
		return false, nil
	}
	t, err := s.pool.submit(work, met.QueueWait.Observe)
	switch err {
	case nil:
	case errSaturated:
		met.Shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, met, started, http.StatusTooManyRequests, "worker pool saturated, retry later")
		return false, nil
	default: // errDraining
		met.Drained.Inc()
		writeError(w, met, started, http.StatusServiceUnavailable, "server draining")
		return false, nil
	}
	<-t.done
	if t.panicked != nil {
		met.Panics.Inc()
		s.cfg.Logf("adecompd: solver job panicked: %v", t.panicked)
		return true, &panicError{val: t.panicked}
	}
	return true, nil
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	met := s.decomposeMet
	met.Requests.Inc()

	var req DecomposeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, met, started, http.StatusBadRequest, "timeout_ms must be non-negative")
		return
	}
	f, n, err := req.buildFunction(s.cfg.MaxInputs)
	if err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := req.resolveOptions(n)
	if err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}

	key := decomposeKey(f, opts)
	if hit, ok := s.cache.Get(key); ok {
		met.CacheHits.Inc()
		resp := hit.(DecomposeResponse)
		resp.Cached = true
		writeJSON(w, met, started, http.StatusOK, resp)
		return
	}
	met.CacheMisses.Inc()

	if !s.decomposeBreaker.allow() {
		met.BreakerOpen.Inc()
		s.cfg.Logf("adecompd: decompose breaker open, serving DALTA fallback")
		s.decomposeFallback(w, r, met, started, &req, f, n, opts, "circuit breaker open")
		return
	}

	var (
		res    *isinglut.Result
		runErr error
	)
	ok, jobErr := s.admit(w, met, started, func() {
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		runErr = s.withRetries(ctx, met, func() error {
			if siteDecompose.Fire() {
				return errInjectedOutage
			}
			var err error
			res, err = isinglut.DecomposeContext(ctx, f, opts)
			return err
		})
	})
	if !ok {
		return
	}
	if jobErr != nil {
		runErr = jobErr
	}
	if runErr != nil {
		s.decomposeBreaker.failure()
		s.cfg.Logf("adecompd: decompose failed (%v), serving DALTA fallback", runErr)
		s.decomposeFallback(w, r, met, started, &req, f, n, opts, runErr.Error())
		return
	}
	s.decomposeBreaker.success()

	resp := decomposeResponse(req.Benchmark, n, f.NumOutputs(), res)
	// Only uninterrupted runs enter the cache: a deadline-truncated result
	// is valid but not the configuration's answer, and must not shadow it.
	if resp.StopReason == "converged" {
		s.cache.Put(key, resp)
	}
	writeJSON(w, met, started, http.StatusOK, resp)
}

// decomposeResponse maps a decomposition result onto the wire form.
func decomposeResponse(benchmark string, n, m int, res *isinglut.Result) DecomposeResponse {
	resp := DecomposeResponse{
		Benchmark:        benchmark,
		N:                n,
		M:                m,
		MED:              res.MED,
		ER:               res.ER,
		WorstED:          res.WorstED,
		LUTBits:          res.Design.TotalBits(),
		FlatBits:         res.Design.FlatBits(),
		CompressionRatio: res.Design.CompressionRatio(),
		CoreSolves:       res.CoreSolves,
		ElapsedMS:        float64(res.Elapsed) / float64(time.Millisecond),
		StopReason:       res.StopReason,
	}
	for _, c := range res.Components {
		if c != nil {
			resp.Components = append(resp.Components, Component{
				K: c.K, MaskA: c.Partition.MaskA(), MaskB: c.Partition.MaskB(),
			})
		}
	}
	return resp
}

// decomposeFallback answers /v1/decompose with the DALTA heuristic when
// the Ising solve path is unavailable: the caller still gets a valid
// (if typically worse) decomposition, flagged "degraded" so it can
// decide whether to retry later. It runs in the handler goroutine, not
// the pool — the fallback must stay reachable when the pool itself is
// the failing component — behind its own recover boundary. Degraded
// responses are never cached: they must not shadow the configuration's
// real answer once the solver recovers.
func (s *Server) decomposeFallback(w http.ResponseWriter, r *http.Request, met *metrics.Service, started time.Time, req *DecomposeRequest, f *isinglut.Function, n int, opts isinglut.Options, reason string) {
	fbOpts := opts
	fbOpts.Method = isinglut.MethodDALTA
	var res *isinglut.Result
	err := attempt(func() error {
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		var e error
		res, e = isinglut.DecomposeContext(ctx, f, fbOpts)
		return e
	})
	if err != nil {
		writeError(w, met, started, http.StatusInternalServerError,
			fmt.Sprintf("solve failed (%s) and DALTA fallback failed: %v", reason, err))
		return
	}
	met.Degraded.Inc()
	resp := decomposeResponse(req.Benchmark, n, f.NumOutputs(), res)
	resp.Degraded = true
	resp.DegradedReason = reason
	writeJSON(w, met, started, http.StatusOK, resp)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	met := s.solveMet
	met.Requests.Inc()

	var req SolveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}
	sbOpts, err := s.solveOptions(&req)
	if err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}

	key := req.solveKey()
	if hit, ok := s.cache.Get(key); ok {
		met.CacheHits.Inc()
		resp := hit.(SolveResponse)
		resp.Cached = true
		writeJSON(w, met, started, http.StatusOK, resp)
		return
	}
	met.CacheMisses.Inc()

	if !s.solveBreaker.allow() {
		met.BreakerOpen.Inc()
		writeError(w, met, started, http.StatusServiceUnavailable,
			"solve circuit breaker open after repeated solver failures, retry later")
		return
	}

	prob := req.problem()
	var (
		res           isinglut.IsingResult
		runErr        error
		degradedPeers bool
	)
	ok, jobErr := s.admit(w, met, started, func() {
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		runErr = s.withRetries(ctx, met, func() error {
			var err error
			if req.Shard > 0 && len(s.peers) > 0 {
				// Coordinator mode: sub-solves fan out to the peer daemons,
				// fleet-managed with bit-identical local fallback, so the
				// answer matches the single-node sharded solve exactly.
				disp := s.shardDispatcher(&req, sbOpts)
				res, err = isinglut.SolveIsingShardedContext(ctx, prob, sbOpts, disp)
				if disp.degraded.Load() {
					degradedPeers = true
				}
			} else {
				res, err = isinglut.SolveIsingContext(ctx, prob, sbOpts)
			}
			if err != nil {
				return err
			}
			// A diverged run has energy +Inf, which JSON cannot encode; the
			// run is an error at this boundary (a retry helps when the cause
			// was transient, e.g. an injected fault).
			if res.StopReason == "diverged" {
				return fmt.Errorf("solver %s: no finite-energy result (try rescue, a smaller dt, or more replicas)", res.StopReason)
			}
			return nil
		})
	})
	if !ok {
		return
	}
	if jobErr != nil {
		runErr = jobErr
	}
	if runErr != nil {
		s.solveBreaker.failure()
		writeError(w, met, started, http.StatusInternalServerError, runErr.Error())
		return
	}
	s.solveBreaker.success()

	spins := make([]int8, len(res.Spins))
	copy(spins, res.Spins) // res.Spins may alias solver workspace memory
	resp := SolveResponse{
		Spins:       spins,
		Energy:      res.Energy,
		Iterations:  res.Iterations,
		Replicas:    res.Replicas,
		EarlyStops:  res.EarlyStops,
		StopReason:  res.StopReason,
		ElapsedMS:   float64(time.Since(started)) / float64(time.Millisecond),
		Rescued:     res.Rescued,
		Quantized:   res.Quantized,
		BitPacked:   res.BitPacked,
		Shards:      res.Shards,
		ShardRounds: res.ExchangeRounds,
	}
	if degradedPeers {
		resp.Degraded = true
		resp.DegradedReason = "degraded_peers"
	}
	// Quantized results never enter the cache: the slot is shared with the
	// exact request form (Quant is excluded from the key), and an
	// approximate result must not shadow the exact answer. A quant request
	// whose solve fell back to the float engine (res.Quantized false) is
	// the exact answer and caches normally. Degraded coordinator results
	// stay out too, mirroring the decompose fallback's rule.
	if (resp.StopReason == "converged" || resp.StopReason == "max-iters") && !res.Quantized && !resp.Degraded {
		s.cache.Put(key, resp)
	}
	writeJSON(w, met, started, http.StatusOK, resp)
}

// handleSolveBatch answers the coordinator's batched sub-solve dispatch:
// every item runs through the same validation, pool, retry and solver
// layers as /v1/solve, concurrently (the pool bounds actual
// parallelism), and fails independently — item i of the response always
// answers item i of the request, carrying either a result or that
// item's error. Batch results are never cached: sub-problems are
// round-specific clamped fragments no other request will ever ask for.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	met := s.solveMet
	met.Requests.Inc()

	var breq SolveBatchRequest
	if err := decodeJSON(r, &breq); err != nil {
		writeError(w, met, started, http.StatusBadRequest, err.Error())
		return
	}
	if len(breq.Items) == 0 {
		writeError(w, met, started, http.StatusBadRequest, "batch needs at least one item")
		return
	}
	if len(breq.Items) > maxBatchItems {
		writeError(w, met, started, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(breq.Items), maxBatchItems))
		return
	}
	if s.draining.Load() {
		met.Drained.Inc()
		writeError(w, met, started, http.StatusServiceUnavailable, "server draining")
		return
	}

	resp := SolveBatchResponse{Items: make([]SolveBatchItem, len(breq.Items))}
	var wg sync.WaitGroup
	for i := range breq.Items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp.Items[i] = s.runBatchItem(r, &breq.Items[i])
		}(i)
	}
	wg.Wait()
	writeJSON(w, met, started, http.StatusOK, resp)
}

// runBatchItem executes one batch entry end to end. Pool saturation is
// an item error (the coordinator falls that sub-solve back locally),
// not a batch-wide 429 — the batch-mates that did get slots still count.
func (s *Server) runBatchItem(r *http.Request, req *SolveRequest) SolveBatchItem {
	met := s.solveMet
	prob, sbOpts, err := s.buildSolve(req)
	if err != nil {
		return SolveBatchItem{Error: err.Error()}
	}
	started := time.Now()
	var (
		res    isinglut.IsingResult
		runErr error
	)
	t, err := s.pool.submit(func() {
		ctx, cancel := s.solveContext(r, req.TimeoutMS)
		defer cancel()
		runErr = s.withRetries(ctx, met, func() error {
			var err error
			res, err = isinglut.SolveIsingContext(ctx, prob, sbOpts)
			if err != nil {
				return err
			}
			if res.StopReason == "diverged" {
				return fmt.Errorf("solver %s: no finite-energy result", res.StopReason)
			}
			return nil
		})
	}, met.QueueWait.Observe)
	switch err {
	case nil:
	case errSaturated:
		met.Shed.Inc()
		return SolveBatchItem{Error: "worker pool saturated"}
	default:
		met.Drained.Inc()
		return SolveBatchItem{Error: "server draining"}
	}
	<-t.done
	if t.panicked != nil {
		met.Panics.Inc()
		return SolveBatchItem{Error: fmt.Sprintf("solver job panicked: %v", t.panicked)}
	}
	if runErr != nil {
		return SolveBatchItem{Error: runErr.Error()}
	}
	spins := make([]int8, len(res.Spins))
	copy(spins, res.Spins)
	return SolveBatchItem{Response: &SolveResponse{
		Spins:      spins,
		Energy:     res.Energy,
		Iterations: res.Iterations,
		Replicas:   res.Replicas,
		EarlyStops: res.EarlyStops,
		StopReason: res.StopReason,
		ElapsedMS:  float64(time.Since(started)) / float64(time.Millisecond),
		Rescued:    res.Rescued,
		Quantized:  res.Quantized,
		BitPacked:  res.BitPacked,
	}}
}

// buildSolve validates the wire problem and maps it onto the public
// Ising API: solveOptions, then the problem.
func (s *Server) buildSolve(req *SolveRequest) (*isinglut.IsingProblem, isinglut.SBOptions, error) {
	opts, err := s.solveOptions(req)
	if err != nil {
		return nil, opts, err
	}
	return req.problem(), opts, nil
}

// problem builds a request's Ising problem; solveOptions must have
// accepted the request.
func (req *SolveRequest) problem() *isinglut.IsingProblem {
	p := isinglut.NewIsingProblem(req.N)
	for _, c := range req.Couplings {
		p.SetCoupling(c.I, c.J, c.V)
	}
	for i, b := range req.Biases {
		p.SetBias(i, b)
	}
	return p
}

// solveOptions validates the wire problem and maps its options onto the
// public Ising API, without building the n×n problem, so /v1/solve can
// answer a cache hit without one. Validation is exhaustive by design:
// every numeric field is range- and finiteness-checked here so that no
// request body can reach a solver panic (the sb parameter checks) or
// poison the dynamics with a NaN/Inf — malformed input is the client's
// error (400), never a 500.
func (s *Server) solveOptions(req *SolveRequest) (isinglut.SBOptions, error) {
	var opts isinglut.SBOptions
	if req.N <= 1 {
		return opts, fmt.Errorf("n must be at least 2, got %d", req.N)
	}
	if req.N > s.cfg.MaxSpins {
		return opts, fmt.Errorf("n=%d exceeds the server limit of %d spins", req.N, s.cfg.MaxSpins)
	}
	if len(req.Biases) != 0 && len(req.Biases) != req.N {
		return opts, fmt.Errorf("biases has %d entries for n=%d", len(req.Biases), req.N)
	}
	if req.TimeoutMS < 0 {
		return opts, fmt.Errorf("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	if req.Steps < 0 {
		return opts, fmt.Errorf("steps must be non-negative, got %d", req.Steps)
	}
	if req.Steps > s.cfg.MaxSteps {
		return opts, fmt.Errorf("steps=%d exceeds the server limit of %d", req.Steps, s.cfg.MaxSteps)
	}
	if math.IsNaN(req.Dt) || math.IsInf(req.Dt, 0) || req.Dt < 0 {
		return opts, fmt.Errorf("dt must be finite and non-negative, got %g", req.Dt)
	}
	if req.Replicas < 0 {
		return opts, fmt.Errorf("replicas must be non-negative, got %d", req.Replicas)
	}
	if req.Replicas > s.cfg.MaxReplicas {
		return opts, fmt.Errorf("replicas=%d exceeds the server limit of %d", req.Replicas, s.cfg.MaxReplicas)
	}
	if req.Workers < 0 {
		return opts, fmt.Errorf("workers must be non-negative, got %d", req.Workers)
	}
	if req.DynamicStop {
		if req.F < 0 || req.S < 0 {
			return opts, fmt.Errorf("f and s must be non-negative, got f=%d s=%d", req.F, req.S)
		}
		if math.IsNaN(req.Epsilon) || math.IsInf(req.Epsilon, 0) || req.Epsilon < 0 {
			return opts, fmt.Errorf("epsilon must be finite and non-negative, got %g", req.Epsilon)
		}
	}
	for _, c := range req.Couplings {
		if c.I < 0 || c.I >= req.N || c.J < 0 || c.J >= req.N || c.I == c.J {
			return opts, fmt.Errorf("coupling (%d,%d) out of range for n=%d", c.I, c.J, req.N)
		}
		if math.IsNaN(c.V) || math.IsInf(c.V, 0) {
			return opts, fmt.Errorf("coupling (%d,%d) value must be finite, got %g", c.I, c.J, c.V)
		}
	}
	for i, b := range req.Biases {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return opts, fmt.Errorf("bias %d must be finite, got %g", i, b)
		}
	}
	switch req.Variant {
	case "", "bsb":
		opts.Variant = isinglut.BallisticSB
	case "asb":
		opts.Variant = isinglut.AdiabaticSB
		if req.Dt == 0 {
			opts.Dt = 0.5 // aSB's stable step; bare Steps keep the bSB default
		}
	case "dsb":
		opts.Variant = isinglut.DiscreteSB
	default:
		return opts, fmt.Errorf("unknown variant %q (want bsb, asb or dsb)", req.Variant)
	}
	if req.Quant && opts.Variant != isinglut.DiscreteSB {
		return opts, fmt.Errorf("quant requires variant \"dsb\", got %q", req.Variant)
	}
	opts.Steps = req.Steps
	if req.Dt > 0 {
		opts.Dt = req.Dt
	}
	opts.Seed = req.Seed
	opts.Replicas = req.Replicas
	opts.Workers = req.Workers
	opts.DynamicStop = req.DynamicStop
	opts.F, opts.S, opts.Epsilon = req.F, req.S, req.Epsilon
	opts.Rescue = req.Rescue
	opts.Quantize = req.Quant
	if req.Shard < 0 {
		return opts, fmt.Errorf("shard must be non-negative, got %d", req.Shard)
	}
	if req.ShardRounds < 0 {
		return opts, fmt.Errorf("shard_rounds must be non-negative, got %d", req.ShardRounds)
	}
	if req.ShardRounds > 0 && req.Shard == 0 {
		return opts, fmt.Errorf("shard_rounds needs shard > 0")
	}
	opts.MaxShard = req.Shard
	opts.ShardRounds = req.ShardRounds
	return opts, nil
}

// handleHealth is pure liveness: it answers 200 as long as the process
// can serve HTTP at all, draining or not. Restart-on-liveness-failure
// orchestration must not kill a draining process that is still finishing
// in-flight work — that is what readiness (/readyz) signals.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	h := Health{
		Status:       status,
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Workers:      s.cfg.Workers,
		QueueDepth:   s.cfg.QueueDepth,
		Queued:       s.pool.queued(),
		InFlight:     s.pool.running(),
		CacheEntries: s.cache.Len(),
		Breakers: map[string]string{
			"decompose": s.decomposeBreaker.currentState().String(),
			"solve":     s.solveBreaker.currentState().String(),
		},
	}
	if s.fleet != nil {
		h.Peers = s.fleet.fleetHealth()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(h)
}

// handleReady is the readiness probe: 200 while the server accepts new
// work, 503 from the moment drain begins (load balancers stop routing
// to it while the in-flight work finishes under the drain budget).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	status, code := "ready", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(Readiness{Status: status})
}

// decodeJSON parses the request body strictly: unknown fields are
// rejected so a typoed option can never silently fall back to a default,
// and bodies are capped at 64 MiB (a 16-input, 16-output table is ~6 MiB
// of JSON; the cap leaves headroom without inviting abuse).
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, met *metrics.Service, started time.Time, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	met.ObserveHandled(time.Since(started), code)
}

func writeError(w http.ResponseWriter, met *metrics.Service, started time.Time, code int, msg string) {
	writeJSON(w, met, started, code, errorResponse{Error: msg})
}

// MinRetryAfterSeconds and MaxRetryAfterSeconds clamp the advisory
// backoff clients get with a 429 (see retryAfterSeconds).
const (
	MinRetryAfterSeconds = 1
	MaxRetryAfterSeconds = 60
)

// coldStartServiceTime stands in for the mean service time before the
// pool has completed any work: a shed this early says nothing about
// backlog drain speed, so the estimate stays conservative.
const coldStartServiceTime = 100 * time.Millisecond

// retryAfterSeconds derives the 429 Retry-After hint from the live
// backlog: with backlog tasks ahead (queued + executing + the retrying
// request itself) and the pool clearing one task per meanExec/workers on
// average, the backlog drains in about backlog*meanExec/workers. A fixed
// hint lies under sustained saturation — clients come back into the same
// full queue — whereas this estimate grows with the backlog, spreading
// the retry storm to when capacity actually frees up.
func retryAfterSeconds(backlog, workers int, meanExec time.Duration) int {
	if meanExec <= 0 {
		meanExec = coldStartServiceTime
	}
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(backlog) * meanExec / time.Duration(workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < MinRetryAfterSeconds {
		return MinRetryAfterSeconds
	}
	if secs > MaxRetryAfterSeconds {
		return MaxRetryAfterSeconds
	}
	return secs
}

func (s *Server) retryAfterSeconds() int {
	backlog := s.pool.queued() + s.pool.running() + 1
	return retryAfterSeconds(backlog, s.cfg.Workers, s.pool.meanExec())
}

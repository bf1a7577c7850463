// Command adecompd serves the approximate-decomposition stack over
// HTTP/JSON: a long-running daemon wrapping the same solver pipeline as
// the adecomp CLI behind a bounded worker pool, an LRU result cache and
// graceful drain.
//
// Usage:
//
//	adecompd -addr :8080 -workers 8 -queue 64 -cache 256
//
// Endpoints:
//
//	POST /v1/decompose  benchmark-or-truth-table in; partition, error
//	                    report and LUT design out
//	POST /v1/solve      raw Ising ground-state search (bSB/aSB/dSB)
//	GET  /healthz       pure liveness + queue/cache/breaker occupancy
//	GET  /readyz        readiness; 503 from the moment drain begins
//	GET  /debug/vars    expvar, incl. isinglut.metrics (the solver,
//	                    service and shard sets)
//
// Overload sheds with 429 + Retry-After once the queue is full. A
// request's timeout_ms (clamped to -max-timeout) interrupts its solve at
// the deadline and returns the verified best-so-far result with
// stop_reason "deadline". On SIGTERM/SIGINT the daemon stops accepting
// (/readyz flips to 503), gives in-flight work -drain to finish (then
// cancels it into best-so-far responses) and exits cleanly.
//
// With -peers, the daemon is a shard coordinator fronting a
// health-gated peer fleet: /v1/solve requests carrying "shard" > 0 are
// decomposed and each exchange round's sub-solves batched per peer onto
// the peers' /v1/solve/batch endpoints, placed least-loaded across the
// healthy set. Background /readyz probes (-peer-probe-interval) and
// dispatch outcomes walk each member through healthy → suspect →
// quarantined → readmitted; failed dispatches retry with capped
// jittered backoff under a per-round -peer-retry-budget, stragglers
// past the fleet's -peer-hedge-quantile latency hedge to a second peer
// (first finite answer wins), and only when the budget or the fleet is
// exhausted does the bit-identical local fallback serve the round,
// stamping the response degraded ("degraded_peers"). Peer loss degrades
// placement, never answers. The -peers list is validated at startup
// (malformed URLs, duplicates and the daemon's own listen address are
// rejected); fleet state is reported on /healthz.
//
// Failed or panicked solver jobs are retried (-retries, -retry-backoff)
// behind per-endpoint circuit breakers (-breaker-threshold,
// -breaker-cooldown); when the Ising path stays down, /v1/decompose
// degrades to the DALTA heuristic and marks the response "degraded".
//
// For chaos drills and load tests, repeatable -fault flags arm
// internal/fault failpoints at startup (grammar
// 'site=after:N,times:N,prob:P,seed:S,keys:a+b'):
//
//	adecompd -fault 'serve.decompose=times:-1'   # Ising path hard-down
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"isinglut/internal/fault"
	"isinglut/internal/serve"
)

// faultSpecs collects repeatable -fault flags.
type faultSpecs []string

func (f *faultSpecs) String() string { return fmt.Sprint([]string(*f)) }

func (f *faultSpecs) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// retryBudget maps the -peer-retry-budget flag onto serve.Config
// semantics (where 0 means "use the default"): an explicit 0 becomes
// the config's "no retries" value.
func retryBudget(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent solver jobs (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "queued jobs beyond the executing ones before 429s")
		cache      = flag.Int("cache", 256, "LRU result-cache entries (-1 disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request solver budget")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "upper clamp on requested timeout_ms")
		drain      = flag.Duration("drain", 10*time.Second, "SIGTERM drain budget for in-flight work")
		maxInputs  = flag.Int("max-inputs", 16, "largest accepted function input count")
		maxSpins   = flag.Int("max-spins", 4096, "largest accepted raw Ising problem")

		maxSteps     = flag.Int("max-steps", 1_000_000_000, "largest accepted per-request SB step count")
		maxReplicas  = flag.Int("max-replicas", 4096, "largest accepted per-request replica count")
		retries      = flag.Int("retries", 1, "re-attempts for a failed or panicked solver job (-1 disables)")
		retryBackoff = flag.Duration("retry-backoff", 50*time.Millisecond, "base jittered sleep between solver re-attempts")
		brkThreshold = flag.Int("breaker-threshold", 5, "consecutive solver failures before an endpoint's circuit breaker opens (-1 disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker duration before a half-open probe")
		peerList     = flag.String("peers", "", "comma-separated peer daemon base URLs; sharded solves (shard > 0) dispatch sub-solves to peers over /v1/solve/batch, quarantining failing peers and falling back locally")
		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "per-sub-solve deadline when dispatching to peers")
		peerProbe    = flag.Duration("peer-probe-interval", 2*time.Second, "background /readyz fleet-probe interval, jittered ±20% (negative disables the probe loop)")
		peerHedgeQ   = flag.Float64("peer-hedge-quantile", 0.95, "fleet latency quantile past which a straggling dispatch hedges to a second peer (negative disables hedging)")
		peerBudget   = flag.Int("peer-retry-budget", 3, "peer re-dispatches (retries + hedges) per exchange round across all shards; 0 degrades straight to the local fallback")

		faults faultSpecs
	)
	flag.Var(&faults, "fault",
		"arm a failpoint at startup, e.g. 'serve.decompose=times:-1' (repeatable; for chaos drills and load tests)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "adecompd: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	var peers []string
	if *peerList != "" {
		var err error
		peers, err = serve.NormalizePeers(strings.Split(*peerList, ","), *addr)
		if err != nil {
			logger.Fatalf("adecompd: -peers: %v", err)
		}
	}
	for _, spec := range faults {
		site, sc, err := fault.ParseSpec(spec)
		if err != nil {
			logger.Fatalf("adecompd: -fault %q: %v", spec, err)
		}
		if err := fault.Arm(site, sc); err != nil {
			logger.Fatalf("adecompd: -fault %q: %v", spec, err)
		}
		logger.Printf("adecompd: armed failpoint %s (%+v)", site, sc)
	}
	srv := serve.New(serve.Config{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
		MaxInputs:      *maxInputs,
		MaxSpins:       *maxSpins,

		MaxSteps:          *maxSteps,
		MaxReplicas:       *maxReplicas,
		Retries:           *retries,
		RetryBackoff:      *retryBackoff,
		BreakerThreshold:  *brkThreshold,
		BreakerCooldown:   *brkCooldown,
		Peers:             peers,
		ShardTimeout:      *shardTimeout,
		PeerProbeInterval: *peerProbe,
		PeerHedgeQuantile: *peerHedgeQ,
		PeerRetryBudget:   retryBudget(*peerBudget),
		Logf:              logger.Printf,
	})
	if len(peers) > 0 {
		logger.Printf("adecompd: coordinator mode, %d peer(s): %s", len(peers), strings.Join(peers, ", "))
	}
	if err := srv.Run(context.Background(), nil); err != nil {
		logger.Fatalf("adecompd: %v", err)
	}
}

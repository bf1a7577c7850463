// Package shard is the search-space decomposition layer: it solves Ising
// instances too large for one SB solve by splitting the coupling graph
// into fixed-size subproblems, solving each on the existing batch engine
// with the boundary spins clamped to the current global state, and
// iterating exchange rounds until the global energy stabilizes — the
// scheme of "Parallelizable Search-Space Decomposition for Large-Scale
// Combinatorial Optimization Problems Using Ising Machines" (arXiv
// 2602.23038) and the FPGA decomposition solver of arXiv 2602.15985.
//
// Within a round every shard is solved independently against a snapshot
// of the global spins (Jacobi style), so sub-solves run concurrently —
// across local workers or across peer daemons via a Dispatcher — without
// the result depending on scheduling. Proposals are then applied
// sequentially in shard order behind an accept-if-improves energy guard,
// which makes the global energy monotone across rounds and the whole
// solve deterministic for a fixed seed, regardless of worker count.
package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
	"isinglut/internal/sb"
)

// met instruments the exchange layer alongside the other solvers;
// sharding-specific counters (rounds, exchanges, peer traffic) live on
// metrics.Shard().
var met = metrics.ForSolver("shard")

// Defaults for the zero Config fields.
const (
	// DefaultMaxShard is the subproblem size cap: large enough that the
	// SB lane engine runs at full efficiency, small enough that a
	// sub-solve stays interactive.
	DefaultMaxShard = 256
	// DefaultRounds bounds the exchange rounds; both decomposition papers
	// report convergence within ~10 rounds on their benchmarks.
	DefaultRounds = 12
	// DefaultPatience is how many consecutive rounds without an accepted
	// exchange count as convergence.
	DefaultPatience = 2
)

// Config parameterizes one shard-and-exchange solve. The zero value is
// usable: every field has a default.
type Config struct {
	// MaxShard caps the subproblem size (default DefaultMaxShard).
	MaxShard int
	// Rounds bounds the exchange rounds (default DefaultRounds).
	Rounds int
	// Patience is the dry-round count that declares convergence
	// (default DefaultPatience).
	Patience int
	// Workers bounds concurrent sub-solves per round (default
	// GOMAXPROCS). The result is identical for every worker count.
	Workers int
	// Seed drives the initial global spins and every sub-solve seed.
	Seed int64
	// Replicas is the per-sub-solve replica count of the LocalDispatcher
	// (ignored when Dispatch is set).
	Replicas int
	// Base is the per-subproblem SB parameterization; zero fields take
	// the sb defaults. Base.Seed is overwritten per (round, shard).
	Base sb.Params
	// Restarts is how many times a converged search may re-seed the
	// global spins and keep going (best state kept across restarts),
	// within the same Rounds budget. Boundary-clamped exchange is a
	// local search; restarts are its standard escape from the basin the
	// initial state committed it to. Default 0: stop at first
	// convergence.
	Restarts int
	// Dispatch runs the sub-solves; nil uses the in-process
	// LocalDispatcher. Size-1 shards are solved analytically in the
	// exchange loop and never reach the dispatcher.
	Dispatch Dispatcher
	// OnRound, when non-nil, is called after each completed round with
	// the round index and the global energy (progress reporting; tests
	// use it to cancel mid-solve).
	OnRound func(round int, energy float64)
}

// Result reports a shard-and-exchange solve.
type Result struct {
	// Spins is the best global state observed; Energy its Eq. 1 energy
	// and Objective that plus the problem offset.
	Spins     []int8
	Energy    float64
	Objective float64
	// Rounds is the number of exchange rounds executed; Shards the
	// partition size and LargestShard its biggest member count.
	Rounds       int
	Shards       int
	LargestShard int
	// Accepted counts proposals exchanged into the global state across
	// all rounds; SubSolves the dispatched subproblems and SubErrors the
	// sub-solves that failed (their shard kept its spins that round).
	Accepted  int
	SubSolves int
	SubErrors int
	// Restarts counts the convergence re-seeds actually taken
	// (Config.Restarts bounds them).
	Restarts int
	// Iterations sums the Euler steps across all sub-solves.
	Iterations int
	// Quantized reports that every successful sub-solve ran on the
	// fixed-point kernels (Config.Base.Quantize accepted everywhere).
	Quantized bool
	// BitPacked reports that every successful sub-solve ran on the
	// bit-packed popcount kernels (the packing dispatch accepted every
	// shard's codes — small or sparse shards stay on the scalar quantized
	// kernels, clearing it).
	BitPacked bool
	// Stopped reports why the solve ended: StopConverged (Patience dry
	// rounds), StopMaxIters (round budget), or StopCancelled/StopDeadline
	// (context fired — Spins still holds the best state so far).
	Stopped metrics.StopReason
}

// shardInfo is one shard's precomputed structure: its sorted members,
// the intra-shard couplings in local coordinates (I < J, each pair
// once), and per-member boundary arcs to outside neighbors.
type shardInfo struct {
	members  []int
	triplets []ising.Triplet
	boundary [][]arc
}

// Solve runs the shard-and-exchange decomposition on the problem. It
// never fails on solver trouble — failed sub-solves degrade to kept
// spins — and returns an error only for a malformed configuration.
func Solve(ctx context.Context, p *ising.Problem, cfg Config) (Result, error) {
	start := time.Now()
	n := p.N()
	maxShard := cfg.MaxShard
	if maxShard <= 0 {
		maxShard = DefaultMaxShard
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	patience := cfg.Patience
	if patience <= 0 {
		patience = DefaultPatience
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	disp := cfg.Dispatch
	if disp == nil {
		disp = &LocalDispatcher{Base: cfg.Base, Replicas: cfg.Replicas}
	}
	// A BatchDispatcher takes the whole round's sub-solves in one call
	// (the serve-layer coordinator coalesces same-peer work into one
	// round trip); plain Dispatchers keep the per-shard goroutine fan-out.
	batchDisp, _ := disp.(BatchDispatcher)

	shards := buildShards(p, maxShard)
	if workers > len(shards) {
		workers = len(shards)
	}

	res := Result{Shards: len(shards), Quantized: true, BitPacked: true}
	for _, in := range shards {
		if len(in.members) > res.LargestShard {
			res.LargestShard = len(in.members)
		}
	}

	// Deterministic seeded initial state: random ±1 breaks the symmetry
	// that an all-up start leaves on unbiased instances. Restarts draw
	// the next states from the same sequence, so the whole schedule stays
	// a pure function of the seed.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6c62272e07bb0142))
	spins := make([]int8, n)
	reseed := func() {
		for i := range spins {
			if rng.Int63()&1 == 0 {
				spins[i] = 1
			} else {
				spins[i] = -1
			}
		}
	}
	reseed()
	xs := make([]float64, n)
	scratch := make([]float64, n)
	energy := p.EnergySpinsInto(spins, xs, scratch)
	best := make([]int8, n)
	copy(best, spins)
	bestE := energy

	sm := metrics.Shard()
	snapshot := make([]int8, n)
	proposals := make([][]int8, len(shards))
	subIters := make([]int, len(shards))
	subQuant := make([]bool, len(shards))
	subPacked := make([]bool, len(shards))
	subErrs := make([]error, len(shards))
	oldBuf := make([]int8, res.LargestShard)
	dry := 0

	for round := 0; round < rounds; round++ {
		if ctx.Err() != nil {
			res.Stopped = metrics.ReasonFromContext(ctx)
			break
		}
		roundStart := time.Now()
		copy(snapshot, spins)

		// Jacobi sweep: every shard solves against the same round-start
		// snapshot, so the proposals — and with them the whole solve —
		// do not depend on scheduling. Size-1 shards have a closed-form
		// optimum under clamped boundaries and skip the dispatcher.
		var subs []SubProblem
		var subShard []int // subs[k] belongs to shards[subShard[k]]
		for si := range shards {
			proposals[si], subIters[si], subQuant[si], subErrs[si] = nil, 0, false, nil
			in := shards[si]
			if len(in.members) == 1 {
				heff := p.Bias(in.members[0])
				for _, a := range in.boundary[0] {
					heff += a.w * float64(snapshot[a.to])
				}
				s := spins[in.members[0]] // h_eff == 0: keep the current spin
				if heff > 0 {
					s = 1
				} else if heff < 0 {
					s = -1
				}
				proposals[si] = []int8{s}
				continue
			}
			sub := SubProblem{
				Round:     round,
				Index:     si,
				N:         len(in.members),
				Couplings: in.triplets,
				Bias:      make([]float64, len(in.members)),
				Seed:      subSeed(cfg.Seed, round, si),
			}
			for l, v := range in.members {
				heff := p.Bias(v)
				for _, a := range in.boundary[l] {
					heff += a.w * float64(snapshot[a.to])
				}
				sub.Bias[l] = heff
			}
			subs = append(subs, sub)
			subShard = append(subShard, si)
		}
		apply := func(si int, r SubResult, err error) {
			in := shards[si]
			if err == nil {
				err = validateSpins(r.Spins, len(in.members))
			}
			if err != nil {
				subErrs[si] = err
				return
			}
			proposals[si] = r.Spins
			subIters[si] = r.Iterations
			subQuant[si] = r.Quantized
			subPacked[si] = r.BitPacked
		}
		if batchDisp != nil && len(subs) > 0 {
			results, errs := dispatchBatch(ctx, batchDisp, subs)
			for k := range subs {
				apply(subShard[k], results[k], errs[k])
			}
		} else {
			var wg sync.WaitGroup
			sem := make(chan struct{}, workers)
			for k := range subs {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					r, err := dispatch(ctx, disp, subs[k])
					apply(subShard[k], r, err)
				}(k)
			}
			wg.Wait()
		}

		// Exchange: apply proposals sequentially in shard order behind the
		// accept-if-improves guard. Each shard's delta is evaluated against
		// the live state (which earlier acceptances this round already
		// updated), so the global energy can only go down.
		accepted := 0
		subOK := 0
		for si, in := range shards {
			if len(in.members) > 1 {
				res.SubSolves++
				sm.SubSolves.Inc()
			}
			if subErrs[si] != nil {
				res.SubErrors++
				sm.SubErrors.Inc()
				continue
			}
			subOK++
			res.Iterations += subIters[si]
			if len(in.members) > 1 && !subQuant[si] {
				res.Quantized = false
			}
			if len(in.members) > 1 && !subPacked[si] {
				res.BitPacked = false
			}
			prop := proposals[si]
			for l, v := range in.members {
				oldBuf[l] = spins[v]
			}
			oldE := localEnergy(in, p, oldBuf[:len(in.members)], spins)
			newE := localEnergy(in, p, prop, spins)
			if siteExchange.Fire() {
				// A corrupted exchange payload evaluates to +Inf, so the
				// guard below must reject it.
				newE = math.Inf(1)
			}
			if newE < oldE {
				for l, v := range in.members {
					spins[v] = prop[l]
				}
				energy += newE - oldE
				accepted++
				res.Accepted++
				sm.Accepted.Inc()
			} else {
				sm.Rejected.Inc()
			}
		}
		// Re-anchor the incrementally tracked energy on the exact
		// evaluation: the deltas are exact in theory, and the periodic
		// recompute keeps float drift from ever accumulating across rounds.
		energy = p.EnergySpinsInto(spins, xs, scratch)
		if energy < bestE {
			bestE = energy
			copy(best, spins)
		}
		res.Rounds++
		sm.Rounds.Inc()
		sm.RoundTime.Observe(time.Since(roundStart))
		if cfg.OnRound != nil {
			cfg.OnRound(round, energy)
		}
		if accepted == 0 {
			// A round where every sub-solve failed says nothing about
			// convergence; only genuinely dry rounds count.
			if subOK > 0 {
				dry++
				if dry >= patience {
					if res.Restarts < cfg.Restarts && round+1 < rounds {
						// Converged into a basin with restart budget left:
						// re-seed the global state and keep searching (the
						// best state so far is already banked).
						res.Restarts++
						met.Restarts.Inc()
						reseed()
						energy = p.EnergySpinsInto(spins, xs, scratch)
						dry = 0
						continue
					}
					res.Stopped = metrics.StopConverged
					break
				}
			}
		} else {
			dry = 0
		}
	}
	if res.Stopped == metrics.StopNone {
		if reason := metrics.ReasonFromContext(ctx); reason != metrics.StopNone {
			res.Stopped = reason
		} else {
			res.Stopped = metrics.StopMaxIters
		}
	}
	if res.SubSolves == 0 || res.SubSolves == res.SubErrors {
		res.Quantized = false
		res.BitPacked = false
	}

	res.Spins = best
	res.Energy = bestE
	res.Objective = bestE + p.Offset
	met.ObserveRun(time.Since(start), res.Stopped)
	met.Iterations.Add(int64(res.Iterations))
	met.ObserveEnergy(res.Energy)
	return res, nil
}

// buildShards partitions the coupling graph and precomputes each shard's
// local structure: sorted members, intra-shard triplets in local (I < J)
// coordinates, and per-member boundary arcs.
func buildShards(p *ising.Problem, maxShard int) []*shardInfo {
	g := buildGraph(p.Coup)
	parts := partitionGraph(g, maxShard)
	n := g.n
	loc := make([]int, n)     // global index -> local index within its shard
	shardOf := make([]int, n) // global index -> shard index
	for si, members := range parts {
		for l, v := range members {
			loc[v] = l
			shardOf[v] = si
		}
	}
	shards := make([]*shardInfo, len(parts))
	for si, members := range parts {
		in := &shardInfo{members: members, boundary: make([][]arc, len(members))}
		for l, v := range members {
			for _, a := range g.adj[v] {
				if shardOf[a.to] == si {
					if v < a.to { // each intra pair once, in local coords
						in.triplets = append(in.triplets, ising.Triplet{I: l, J: loc[a.to], V: a.w})
					}
				} else {
					in.boundary[l] = append(in.boundary[l], a)
				}
			}
		}
		shards[si] = in
	}
	return shards
}

// localEnergy evaluates the shard's contribution to the global Eq. 1
// energy for local spins sigma with the rest of the system clamped to
// global: the bias and boundary terms at full weight plus each intra
// pair once. Swapping a shard's spins changes the global energy by
// exactly the difference of two of these evaluations.
func localEnergy(in *shardInfo, p *ising.Problem, sigma []int8, global []int8) float64 {
	e := 0.0
	for l, v := range in.members {
		heff := p.Bias(v)
		for _, a := range in.boundary[l] {
			heff += a.w * float64(global[a.to])
		}
		e -= float64(sigma[l]) * heff
	}
	for _, t := range in.triplets {
		e -= t.V * float64(sigma[t.I]) * float64(sigma[t.J])
	}
	return e
}

// subSeed derives the deterministic sub-solve seed for (round, shard):
// a golden-ratio multiple keeps distinct schedule slots from colliding
// even for adjacent base seeds (wrap-around is fine, it stays bijective
// per slot).
func subSeed(seed int64, round, idx int) int64 {
	return seed + int64(round*1_000_003+idx+1)*-0x61c8864680b583eb
}

// validateSpins rejects a malformed dispatcher result (wrong length or
// non-±1 entries) so a buggy peer can never corrupt the global state.
func validateSpins(spins []int8, n int) error {
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

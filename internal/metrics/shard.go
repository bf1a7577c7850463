package metrics

// Sharding is the shard-and-exchange solver's instrumentation set: one
// process-wide set (Shard) that internal/shard and the serve-layer
// coordinator update in flight. Like Solver, every field is a handful of
// atomic operations — a shard round records itself with a few adds, so
// the exchange loop stays allocation-free — and each field's metric tag
// is its JSON name. Top-level shard solves are counted, timed and tallied
// by stop reason in the "shard" solver set.
type Sharding struct {
	// Rounds counts the exchange rounds of every shard solve.
	Rounds Counter `metric:"rounds"`

	// SubSolves counts dispatched shard subproblem solves (local or
	// peer); SubErrors the sub-solves that failed (their shard kept its
	// current spins for that round).
	SubSolves Counter `metric:"sub_solves"`
	SubErrors Counter `metric:"sub_errors"`

	// Accepted counts shard proposals that lowered the global energy and
	// were exchanged into the global state; Rejected the proposals the
	// energy guard discarded.
	Accepted Counter `metric:"accepted"`
	Rejected Counter `metric:"rejected"`

	// PeerDispatch counts sub-solves sent to a peer daemon over
	// /v1/solve; PeerFallback the sub-solves the fleet did not serve (no
	// eligible peer, retry budget spent, network error, non-200, per-item
	// error, armed failpoint) that the local solver ran instead.
	PeerDispatch Counter `metric:"peer_dispatch"`
	PeerFallback Counter `metric:"peer_fallback"`

	// PeerBatches counts /v1/solve/batch round trips to peers (each
	// carries one or more sub-solves); PeerRetries the re-dispatches of
	// a failed peer group under the per-round retry budget.
	PeerBatches Counter `metric:"peer_batches"`
	PeerRetries Counter `metric:"peer_retries"`

	// PeerHedges counts hedged duplicate dispatches launched when a
	// shard exceeded the fleet's hedge latency threshold; PeerHedgesWon
	// the hedges whose duplicate finished first (the re-steal path),
	// PeerHedgesLost the ones where the primary still won.
	PeerHedges     Counter `metric:"peer_hedges"`
	PeerHedgesWon  Counter `metric:"peer_hedges_won"`
	PeerHedgesLost Counter `metric:"peer_hedges_lost"`

	// PeerProbes counts background /readyz health probes; PeerProbeFails
	// the probes that failed.
	PeerProbes     Counter `metric:"peer_probes"`
	PeerProbeFails Counter `metric:"peer_probe_fails"`

	// PeerQuarantined counts healthy/suspect → quarantined transitions;
	// PeerReadmitted the quarantined → healthy readmissions (probe or
	// dispatch success after quarantine).
	PeerQuarantined Counter `metric:"peer_quarantined"`
	PeerReadmitted  Counter `metric:"peer_readmitted"`

	// RoundTime accumulates per-round wall clock across all shard solves.
	RoundTime Timer `metric:"round_time_ns,mean_round_ns"`
}

var shardSet = register(kindShard, "exchange", func() *Sharding { return &Sharding{} })

// Shard returns the process-wide sharding instrumentation set. Call once
// and keep the pointer, like ForSolver.
func Shard() *Sharding { return shardSet }

package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"

	"isinglut"
)

// DecomposeOptions is the wire form of isinglut.Options. Zero fields take
// the isinglut.DefaultOptions value for the request's input count, so a
// minimal request body behaves exactly like the adecomp CLI defaults.
type DecomposeOptions struct {
	Method     string `json:"method,omitempty"`
	Mode       string `json:"mode,omitempty"` // "joint" (default) or "separate"
	Rounds     int    `json:"rounds,omitempty"`
	Partitions int    `json:"partitions,omitempty"`
	FreeSize   int    `json:"free_size,omitempty"`
	Overlap    int    `json:"overlap,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Elitism    bool   `json:"elitism,omitempty"`
}

// DecomposeRequest asks for an approximate decomposition of either a
// named benchmark (benchmark + n) or an explicit truth table
// (num_inputs + num_outputs + outputs, where outputs[x] is the output
// word of input pattern x).
type DecomposeRequest struct {
	Benchmark string `json:"benchmark,omitempty"`
	N         int    `json:"n,omitempty"`

	NumInputs  int      `json:"num_inputs,omitempty"`
	NumOutputs int      `json:"num_outputs,omitempty"`
	Outputs    []uint64 `json:"outputs,omitempty"`

	Options *DecomposeOptions `json:"options,omitempty"`
	// TimeoutMS bounds this request's solver time; the run is interrupted
	// at the deadline and the verified best-so-far result is returned with
	// stop_reason "deadline". Zero uses the server default; values above
	// the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Component is one committed per-output-bit decomposition: the input
// partition as free/bound-set bit masks.
type Component struct {
	K     int    `json:"k"`
	MaskA uint64 `json:"mask_a"`
	MaskB uint64 `json:"mask_b"`
}

// DecomposeResponse reports a decomposition: the error metrics, the
// synthesized LUT cost, and how the run ended.
type DecomposeResponse struct {
	Benchmark        string  `json:"benchmark,omitempty"`
	N                int     `json:"n"`
	M                int     `json:"m"`
	MED              float64 `json:"med"`
	ER               float64 `json:"er"`
	WorstED          uint64  `json:"worst_ed"`
	LUTBits          int     `json:"lut_bits"`
	FlatBits         int     `json:"flat_bits"`
	CompressionRatio float64 `json:"compression_ratio"`
	CoreSolves       int     `json:"core_solves"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	StopReason       string  `json:"stop_reason"`
	Cached           bool    `json:"cached"`
	// Degraded marks a response produced by the DALTA fallback heuristic
	// because the primary Ising solve path was unavailable (solver
	// failure, divergence, or an open circuit breaker — DegradedReason
	// says which). The decomposition is valid but typically worse than
	// the proposed method's; degraded responses are never cached.
	Degraded       bool        `json:"degraded,omitempty"`
	DegradedReason string      `json:"degraded_reason,omitempty"`
	Components     []Component `json:"components,omitempty"`
}

// Coupling is one symmetric Ising coupling J_ij = J_ji = v.
type Coupling struct {
	I int     `json:"i"`
	J int     `json:"j"`
	V float64 `json:"v"`
}

// SolveRequest asks for a raw Ising ground-state search with the
// simulated-bifurcation stack.
type SolveRequest struct {
	N         int        `json:"n"`
	Couplings []Coupling `json:"couplings,omitempty"`
	Biases    []float64  `json:"biases,omitempty"`

	Variant  string  `json:"variant,omitempty"` // "bsb" (default), "asb", "dsb"
	Steps    int     `json:"steps,omitempty"`
	Dt       float64 `json:"dt,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Replicas int     `json:"replicas,omitempty"`
	// Workers bounds the concurrent sub-solves of a sharded solve; it
	// does not change the answer and is excluded from the cache key.
	Workers     int     `json:"workers,omitempty"`
	DynamicStop bool    `json:"dynamic_stop,omitempty"`
	F           int     `json:"f,omitempty"`
	S           int     `json:"s,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	// Rescue enables the solver's one-shot divergence rescue: a replica
	// whose dynamics overflow is re-seeded once with a halved step
	// instead of being quarantined. Unlike Workers it can change
	// the answer (a rescued trajectory differs), so it is part of the
	// cache key.
	Rescue bool `json:"rescue,omitempty"`
	// Sparse routes the solve through the CSR sparse coupler when the
	// instance is sparse enough for it to win. Results are bit-identical
	// to the dense path, so like Workers the flag is cache-key-neutral: both
	// request forms share one cache slot.
	Sparse bool `json:"sparse,omitempty"`
	// Quant enables the int8/int16 fixed-point dSB fast path (requires
	// variant "dsb"). Quantization changes numerics within the documented
	// envelope, so quantized results are never cached; the flag is still
	// excluded from the cache key, which makes it a pure performance hint:
	// a cached exact result may be served for a quant request (strictly
	// better than what was asked for), but a quantized result can never be
	// served for an exact request.
	Quant bool `json:"quant,omitempty"`
	// BitPack layers the popcount fast path on top of quant (requires
	// variant "dsb", implies quant): the quantized codes are re-packed
	// into bit-planes and the field products run on AND+POPCNT sweeps —
	// bit-identical to the quant path, throughput only. It shares quant's
	// pinned cache semantics: bit-packed results are quantized results,
	// so they are never cached, and the flag is excluded from the cache
	// key so a bitpack request may ride an already-cached exact entry.
	BitPack bool `json:"bitpack,omitempty"`
	// Shard > 0 routes the solve through the shard-and-exchange
	// decomposition layer with subproblems of at most Shard spins — the
	// path for instances one SB solve cannot hold. When the server has
	// peers configured, sub-solves additionally fan out across them
	// (coordinator mode); the answer is bit-identical either way, so the
	// peer topology — like Workers — never splits the cache slot, while
	// Shard itself DOES change the answer and is hashed.
	Shard int `json:"shard,omitempty"`
	// ShardRounds bounds the exchange rounds of a sharded solve
	// (default 12); needs Shard > 0. Part of the cache key too.
	ShardRounds int `json:"shard_rounds,omitempty"`

	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveResponse reports a raw Ising solve.
type SolveResponse struct {
	Spins      []int8  `json:"spins"`
	Energy     float64 `json:"energy"`
	Iterations int     `json:"iterations"`
	Replicas   int     `json:"replicas"`
	EarlyStops int     `json:"early_stops"`
	StopReason string  `json:"stop_reason"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Cached     bool    `json:"cached"`
	// Rescued reports that the winning replica recovered from a detected
	// divergence via the one-shot re-seed (SolveRequest.Rescue).
	Rescued bool `json:"rescued,omitempty"`
	// Quantized reports that the solve actually ran on the fixed-point
	// kernels (SolveRequest.Quant accepted and the coupling quantized).
	Quantized bool `json:"quantized,omitempty"`
	// BitPacked reports that the solve ran on the bit-packed popcount
	// kernels (SolveRequest.BitPack accepted by the packing heuristic).
	BitPacked bool `json:"bitpacked,omitempty"`
	// Shards is the partition size of a sharded solve (0 for a direct
	// solve); ShardRounds the exchange rounds it executed.
	Shards      int `json:"shards,omitempty"`
	ShardRounds int `json:"shard_rounds,omitempty"`
	// Degraded marks a coordinator-mode response whose sub-solves had to
	// abandon the peer fleet (retry budget or healthy set exhausted) and
	// run on the local fallback instead. The answer is still bit-identical
	// to the all-healthy run — DegradedReason ("degraded_peers") flags the
	// capacity loss, not a quality loss. Degraded responses are never
	// cached, mirroring the decompose fallback's rule.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// SolveBatchRequest is the coordinator-to-peer wire format of
// /v1/solve/batch: all sub-solves destined for one peer in one exchange
// round ride a single round trip instead of one /v1/solve each.
type SolveBatchRequest struct {
	Items []SolveRequest `json:"items"`
}

// SolveBatchItem is one entry of a batch response: exactly one of
// Response or Error is set. Per-item failure is deliberate — one
// rejected sub-solve must not poison its batch-mates.
type SolveBatchItem struct {
	Response *SolveResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// SolveBatchResponse answers /v1/solve/batch, item i answering request
// item i.
type SolveBatchResponse struct {
	Items []SolveBatchItem `json:"items"`
}

// maxBatchItems caps one /v1/solve/batch body: far above any real
// exchange round's per-peer shard count, low enough that a malformed
// client cannot queue unbounded work in one request.
const maxBatchItems = 256

// Health is the /healthz payload. /healthz is pure liveness — it
// answers 200 as long as the process can serve HTTP, even while
// draining (Status says "draining"); /readyz is the endpoint that flips
// to 503 when the server should stop receiving traffic.
type Health struct {
	Status       string `json:"status"` // "ok" or "draining"
	UptimeMS     int64  `json:"uptime_ms"`
	Workers      int    `json:"workers"`
	QueueDepth   int    `json:"queue_depth"`
	Queued       int    `json:"queued"`
	InFlight     int    `json:"in_flight"`
	CacheEntries int    `json:"cache_entries"`
	// Breakers maps endpoint name to circuit-breaker state ("closed",
	// "open", "half-open").
	Breakers map[string]string `json:"breakers,omitempty"`
	// Peers maps peer base URL to its fleet lifecycle entry (coordinator
	// mode only). The legacy "peer:<url>" Breakers entries remain for
	// scrapers that predate the fleet manager.
	Peers map[string]PeerHealth `json:"peers,omitempty"`
}

// Readiness is the /readyz payload.
type Readiness struct {
	Status string `json:"status"` // "ready" or "draining"
}

// errorResponse is the JSON error envelope for non-200 statuses.
type errorResponse struct {
	Error string `json:"error"`
}

// buildFunction materializes the request's Boolean function: a named
// benchmark or an explicit truth table, never both.
func (r *DecomposeRequest) buildFunction(maxInputs int) (*isinglut.Function, int, error) {
	hasTable := r.Outputs != nil || r.NumInputs != 0 || r.NumOutputs != 0
	switch {
	case r.Benchmark != "" && hasTable:
		return nil, 0, fmt.Errorf("specify either benchmark or an explicit truth table, not both")
	case r.Benchmark != "":
		if r.N <= 0 {
			return nil, 0, fmt.Errorf("benchmark %q needs n > 0", r.Benchmark)
		}
		if r.N > maxInputs {
			return nil, 0, fmt.Errorf("n=%d exceeds the server limit of %d inputs", r.N, maxInputs)
		}
		f, err := isinglut.Benchmark(r.Benchmark, r.N)
		if err != nil {
			return nil, 0, err
		}
		return f, r.N, nil
	case hasTable:
		if r.NumInputs > maxInputs {
			return nil, 0, fmt.Errorf("num_inputs=%d exceeds the server limit of %d", r.NumInputs, maxInputs)
		}
		f, err := isinglut.FunctionFromOutputs(r.NumInputs, r.NumOutputs, r.Outputs)
		if err != nil {
			return nil, 0, err
		}
		return f, r.NumInputs, nil
	}
	return nil, 0, fmt.Errorf("request needs a benchmark or an explicit truth table")
}

// resolveOptions maps the wire options onto isinglut.Options with the
// paper defaults for n filled in.
func (r *DecomposeRequest) resolveOptions(n int) (isinglut.Options, error) {
	opts := isinglut.DefaultOptions(n)
	o := r.Options
	if o == nil {
		return opts, nil
	}
	if o.Method != "" {
		opts.Method = isinglut.Method(o.Method)
	}
	switch o.Mode {
	case "", "joint":
		opts.Mode = isinglut.Joint
	case "separate":
		opts.Mode = isinglut.Separate
	default:
		return opts, fmt.Errorf("unknown mode %q", o.Mode)
	}
	if o.Rounds > 0 {
		opts.Rounds = o.Rounds
	}
	if o.Partitions > 0 {
		opts.Partitions = o.Partitions
	}
	if o.FreeSize > 0 {
		opts.FreeSize = o.FreeSize
	}
	opts.Overlap = o.Overlap
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	opts.Workers = o.Workers
	opts.Elitism = o.Elitism
	return opts, nil
}

// decomposeKey canonically hashes (truth table, solver config) so that
// identical work — whether submitted as a benchmark name or as the same
// explicit table — maps to one cache slot. Workers and the request
// timeout are excluded: results are deterministic per seed regardless of
// parallelism, and only uninterrupted results are ever cached.
func decomposeKey(f *isinglut.Function, opts isinglut.Options) string {
	h := sha256.New()
	writeU64(h, uint64(f.NumInputs()))
	writeU64(h, uint64(f.NumOutputs()))
	for _, out := range f.Outputs() {
		writeU64(h, out)
	}
	writeString(h, string(opts.Method))
	writeU64(h, uint64(opts.Mode))
	writeU64(h, uint64(opts.Rounds))
	writeU64(h, uint64(opts.Partitions))
	writeU64(h, uint64(opts.FreeSize))
	writeU64(h, uint64(opts.Overlap))
	writeU64(h, uint64(opts.Seed))
	if opts.Elitism {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	return "d:" + hex.EncodeToString(h.Sum(nil))
}

// solveKey canonically hashes a raw Ising solve request. The couplings
// are accumulated into a canonical (i<j ordered, summed) form first, so
// equivalent bodies with reordered or split couplings share a slot.
func (r *SolveRequest) solveKey() string {
	h := sha256.New()
	writeU64(h, uint64(r.N))
	// Canonical order: the pairs 0 <= i < j < N sorted by (i, j). The
	// sort is stable, so each pair's couplings sum in input order from
	// +0; pairs that sum to zero, diagonal pairs and out-of-range indices
	// stay out of the hash.
	type term struct {
		i, j int
		v    float64
	}
	terms := make([]term, 0, len(r.Couplings))
	for _, c := range r.Couplings {
		i, j := c.I, c.J
		if i > j {
			i, j = j, i
		}
		if i >= 0 && i < j && j < r.N {
			terms = append(terms, term{i, j, c.V})
		}
	}
	slices.SortStableFunc(terms, func(a, b term) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
	for lo := 0; lo < len(terms); {
		i, j := terms[lo].i, terms[lo].j
		v := 0.0
		hi := lo
		for ; hi < len(terms) && terms[hi].i == i && terms[hi].j == j; hi++ {
			v += terms[hi].v
		}
		lo = hi
		if v != 0 {
			writeU64(h, uint64(i))
			writeU64(h, uint64(j))
			writeU64(h, math.Float64bits(v))
		}
	}
	writeU64(h, uint64(len(r.Biases)))
	for _, b := range r.Biases {
		writeU64(h, math.Float64bits(b))
	}
	// Sparse is deliberately not hashed: the CSR coupler returns
	// bit-identical results for equal seeds, so both request forms share
	// one cache slot (Workers and TimeoutMS are excluded for the same
	// reason). Quant is excluded too, but for the opposite reason:
	// quantized results are never cached (handleSolve refuses to Put
	// them), so hashing the flag would only split the slot that lets a
	// quant request ride an already-cached exact result.
	// BitPack inherits Quant's treatment wholesale: bit-packed results
	// are quantized results (never cached), and the flag stays out of the
	// key so a bitpack request rides exact entries too.
	writeString(h, r.Variant)
	writeU64(h, uint64(r.Steps))
	writeU64(h, math.Float64bits(r.Dt))
	writeU64(h, uint64(r.Seed))
	writeU64(h, uint64(r.Replicas))
	// Rescue IS hashed, unlike Sparse: a rescued trajectory legitimately
	// differs from a quarantined one, so the two request forms must not
	// share a cache slot.
	if r.Rescue {
		writeU64(h, 1)
	} else {
		writeU64(h, 0)
	}
	if r.DynamicStop {
		writeU64(h, 1)
		writeU64(h, uint64(r.F))
		writeU64(h, uint64(r.S))
		writeU64(h, math.Float64bits(r.Epsilon))
	} else {
		writeU64(h, 0)
	}
	// Shard and ShardRounds ARE hashed: the sharded solve runs a
	// different algorithm (decomposition + exchange) whose answer
	// legitimately differs from the direct solve's, and the round budget
	// changes it again. The peer topology is not hashed — coordinator
	// and single-node sharding are bit-identical by construction.
	writeU64(h, uint64(r.Shard))
	writeU64(h, uint64(r.ShardRounds))
	return "s:" + hex.EncodeToString(h.Sum(nil))
}

func writeU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func writeString(h hash.Hash, s string) {
	writeU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

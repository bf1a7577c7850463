// Package ising implements the second-order Ising model used as the
// optimization substrate (Eq. 1 of the paper):
//
//	E(sigma) = - sum_i h_i sigma_i - 1/2 sum_i sum_j J_ij sigma_i sigma_j
//
// with spins sigma_i in {-1, +1}, symmetric coupling J (J_ii = 0) and
// per-spin bias h. The package provides dense and bipartite coupling
// representations behind a common Coupler interface so that solvers
// (simulated bifurcation, simulated annealing) only need the local field
// J*x + h, plus brute-force ground-state search for small instances used
// by the test suite.
//
// The built-in couplers additionally implement BatchCoupler, the
// replica-batched field product used by the fused SB engine,
// bit-identically to per-lane Field calls. Dense and Sparse produce
// every replica lane in one traversal of the coupling structure.
package ising

import (
	"fmt"
	"math"

	"isinglut/internal/fault"
)

// siteField poisons the first output lane of a batched field product when
// armed, modelling a NaN escaping the coupling kernel into the fused
// engine's dynamics (the batched counterpart of the sb.step failpoint).
var siteField = fault.NewSite("ising.field")

// Coupler supplies the coupling structure of an Ising problem. Solvers
// interact with the couplings only through the local-field product, so
// specialized sparse structures (e.g. the bipartite core-COP coupling)
// can plug in without materializing a dense matrix.
type Coupler interface {
	// N returns the number of spins.
	N() int
	// Field writes J*x into out (length N). x holds continuous spin
	// positions (SB) or ±1 spins (SA); out must not alias x.
	Field(x, out []float64)
	// At returns J_ij. Used by tests and by energy evaluation fallbacks.
	At(i, j int) float64
	// FrobeniusNorm returns sqrt(sum_ij J_ij^2); SB uses it to scale the
	// coupling strength c0.
	FrobeniusNorm() float64
}

// BatchCoupler is an optional Coupler extension for multi-replica field
// products. A batched SB engine advances r replicas through one traversal
// of the coupling structure per step instead of r independent traversals,
// which turns the per-step cost from r memory-bound mat-vecs into a single
// matrix stream against cache-resident replica state.
//
// The FieldBatch contract:
//
//   - x and out are n×r column-major replica blocks: replica k occupies
//     the contiguous lane x[k*n : (k+1)*n], likewise for out, so any lane
//     is itself a valid Field vector.
//   - out must not alias x.
//   - Each output lane is bit-identical to Field on the corresponding
//     input lane: the per-lane accumulation order matches Field exactly,
//     so batched and unbatched solvers produce identical trajectories.
//     (Couplings are assumed finite; an Inf coupling already poisons the
//     scalar path.)
//
// Couplers that do not implement BatchCoupler still work everywhere:
// FieldBatch (the package-level function) falls back to one Field call
// per lane.
type BatchCoupler interface {
	Coupler
	// FieldBatch writes J*x_k into out's lane k for each of the r replica
	// lanes. See the interface comment for the block layout contract.
	FieldBatch(x, out []float64, r int)
}

// FieldBatch computes the local-field product for r replica lanes at
// once, dispatching to the coupler's batched kernel when it has one and
// falling back to one Field call per column otherwise — third-party
// Couplers keep working unchanged, they just don't get the single-stream
// traversal. x and out follow the BatchCoupler block layout.
func FieldBatch(c Coupler, x, out []float64, r int) {
	if bc, ok := c.(BatchCoupler); ok {
		bc.FieldBatch(x, out, r)
	} else {
		n := c.N()
		checkBatchDims(n, len(x), len(out), r)
		for k := 0; k < r; k++ {
			c.Field(x[k*n:(k+1)*n], out[k*n:(k+1)*n])
		}
	}
	if r > 0 && len(out) > 0 && siteField.Fire() {
		out[0] = math.NaN()
	}
}

// checkBatchDims validates a replica block against the n×r column-major
// layout contract shared by every FieldBatch implementation.
func checkBatchDims(n, lenX, lenOut, r int) {
	if r < 0 {
		panic(fmt.Sprintf("ising: FieldBatch with negative replica count %d", r))
	}
	if lenX < n*r || lenOut < n*r {
		panic(fmt.Sprintf("ising: FieldBatch blocks %d/%d too short for n=%d, r=%d", lenX, lenOut, n, r))
	}
}

// Problem is a complete Ising instance: couplings, biases, and an energy
// offset (the constant dropped when a COP objective is rewritten as Eq. 1;
// keeping it lets callers recover the original objective value).
type Problem struct {
	Coup   Coupler
	H      []float64 // bias per spin; nil means all-zero
	Offset float64   // E_total = E_ising + Offset maps back to the COP objective
}

// NewProblem wires a coupler and bias vector into a problem, validating
// dimensions.
func NewProblem(c Coupler, h []float64, offset float64) (*Problem, error) {
	if h != nil && len(h) != c.N() {
		return nil, fmt.Errorf("ising: bias length %d != N=%d", len(h), c.N())
	}
	return &Problem{Coup: c, H: h, Offset: offset}, nil
}

// N returns the spin count.
func (p *Problem) N() int { return p.Coup.N() }

// Bias returns h_i (0 when H is nil).
func (p *Problem) Bias(i int) float64 {
	if p.H == nil {
		return 0
	}
	return p.H[i]
}

// Energy evaluates Eq. 1 on a ±1 spin vector (Offset not included).
func (p *Problem) Energy(sigma []int8) float64 {
	n := p.N()
	return p.EnergySpinsInto(sigma, make([]float64, n), make([]float64, n))
}

// EnergySpinsInto evaluates Eq. 1 on a ±1 spin vector using caller-owned
// scratch: xs receives the float64 view of sigma and scratch the field
// product, both length N. The call performs no heap allocations, so
// solver hot loops can evaluate sampled spin states for free.
func (p *Problem) EnergySpinsInto(sigma []int8, xs, scratch []float64) float64 {
	n := p.N()
	if len(sigma) != n {
		panic(fmt.Sprintf("ising: spin vector length %d != N=%d", len(sigma), n))
	}
	if len(xs) != n || len(scratch) != n {
		panic(fmt.Sprintf("ising: scratch lengths %d/%d != N=%d", len(xs), len(scratch), n))
	}
	for i, s := range sigma {
		xs[i] = float64(s)
	}
	return p.EnergyContinuousInto(xs, scratch)
}

// EnergyContinuous evaluates Eq. 1 treating x as real-valued spins. SB
// monitors this on sign-rounded positions; the quadratic form uses the
// coupler's Field product so it costs one mat-vec.
func (p *Problem) EnergyContinuous(x []float64) float64 {
	return p.EnergyContinuousInto(x, make([]float64, p.N()))
}

// EnergyContinuousInto is EnergyContinuous with a caller-owned scratch
// buffer (length N) for the field product; it performs no heap
// allocations. Both couplers route their energy evaluations through this
// single mat-vec, so the cost is one Field call regardless of structure.
// scratch must not alias x.
func (p *Problem) EnergyContinuousInto(x, scratch []float64) float64 {
	n := p.N()
	if len(x) != n || len(scratch) != n {
		panic(fmt.Sprintf("ising: vector lengths %d/%d != N=%d", len(x), len(scratch), n))
	}
	p.Coup.Field(x, scratch)
	e := 0.0
	for i := 0; i < n; i++ {
		e -= 0.5 * scratch[i] * x[i]
		e -= p.Bias(i) * x[i]
	}
	return e
}

// ObjectiveValue maps spins back to the original COP objective:
// Energy + Offset.
func (p *Problem) ObjectiveValue(sigma []int8) float64 {
	return p.Energy(sigma) + p.Offset
}

// SignsOf rounds continuous positions to ±1 spins (0 rounds to +1,
// matching "the spin state indicated by the sign of position values").
func SignsOf(x []float64) []int8 {
	return SignsInto(x, make([]int8, len(x)))
}

// SignsInto is SignsOf writing into a caller-owned slice (len(dst) must
// equal len(x)); it performs no heap allocations and returns dst.
func SignsInto(x []float64, dst []int8) []int8 {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("ising: SignsInto dst length %d != %d", len(dst), len(x)))
	}
	for i, v := range x {
		if v < 0 {
			dst[i] = -1
		} else {
			dst[i] = 1
		}
	}
	return dst
}

// BruteForce exhaustively searches all 2^N spin assignments and returns a
// ground state and its energy. It panics for N > 24; it exists for tests
// and tiny demos.
func BruteForce(p *Problem) ([]int8, float64) {
	n := p.N()
	if n > 24 {
		panic(fmt.Sprintf("ising: BruteForce on N=%d", n))
	}
	best := make([]int8, n)
	cur := make([]int8, n)
	bestE := math.Inf(1)
	total := uint64(1) << uint(n)
	for mask := uint64(0); mask < total; mask++ {
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cur[i] = 1
			} else {
				cur[i] = -1
			}
		}
		if e := p.Energy(cur); e < bestE {
			bestE = e
			copy(best, cur)
		}
	}
	return best, bestE
}

// SpinToBinary converts sigma in {-1,+1} to the binary variable
// (sigma+1)/2 in {0,1}, the paper's linear transformation.
func SpinToBinary(s int8) int {
	if s > 0 {
		return 1
	}
	return 0
}

// BinaryToSpin converts b in {0,1} to 2b-1 in {-1,+1}.
func BinaryToSpin(b int) int8 {
	if b != 0 {
		return 1
	}
	return -1
}

package sb

import (
	"math/rand"

	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

// Workspace owns every buffer the lane engine needs. Lane state
// (positions, momenta, dSB signs, field products, rounded spins and
// their float view) is stored as n×r column-major blocks — lane l
// occupies [l*n:(l+1)*n] — so a whole block feeds ising.FieldBatch
// directly and any single lane is a valid scalar vector. Best-so-far
// spins and the per-replica outcomes are indexed by replica, not lane:
// lanes are compacted as replicas retire, replicas are not.
//
// A warm workspace makes SolveWith allocation-free, which matters because
// the DALTA harness performs thousands of core-COP solves per run; the
// allocation-regression tests pin the zero-allocs property. A Workspace
// is NOT safe for concurrent use — give each goroutine its own.
type Workspace struct {
	x, y  []float64 // oscillator lanes
	sgn   []float64 // dSB sign lanes, sign(x)
	xs    []float64 // float64 view of the rounded spins for energy evaluation
	fld   []float64 // field-product lanes
	spins []int8    // rounded spins at the current sample point
	best  []int8    // best rounded spins, replica-indexed

	reps  []replicaState // replica-indexed
	lanes []laneState    // lane-indexed, compacted with the lanes
	rng   *rand.Rand

	// caches holds the lanes' twin product caches, lane-indexed and
	// compacted with the lanes in a run that uses them.
	caches []ising.TwinCache
}

// replicaState is one replica's running outcome.
type replicaState struct {
	bestE       float64
	iters       int
	samples     int
	lastSampled int
	stopped     metrics.StopReason
	early       bool
	diverged    bool
	rescued     bool
	trace       []float64
}

// laneState is the per-lane control state that moves with a lane when
// the batch is compacted.
type laneState struct {
	replica int
	dt      float64 // damped by a divergence rescue
	window  energyWindow
}

// NewWorkspace returns a workspace pre-sized for single-replica n-spin
// problems. The workspace grows on demand, so sizing is an optimization,
// not a contract: any Workspace (including the zero value via
// new(Workspace)) works for any problem size and replica count.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.ensure(n, 1, nil)
	return ws
}

// ensure sizes every buffer for an n-spin, r-replica run, reusing
// existing capacity, and, when tw is not nil, reserves one product cache
// per lane for it.
func (ws *Workspace) ensure(n, r int, tw *ising.Twin) {
	if ws.rng == nil {
		ws.rng = rand.New(rand.NewSource(0))
	}
	nr := n * r
	if cap(ws.x) < nr {
		ws.x = make([]float64, nr)
		ws.y = make([]float64, nr)
		ws.sgn = make([]float64, nr)
		ws.xs = make([]float64, nr)
		ws.fld = make([]float64, nr)
		ws.spins = make([]int8, nr)
		ws.best = make([]int8, nr)
	}
	ws.x = ws.x[:nr]
	ws.y = ws.y[:nr]
	ws.sgn = ws.sgn[:nr]
	ws.xs = ws.xs[:nr]
	ws.fld = ws.fld[:nr]
	ws.spins = ws.spins[:nr]
	ws.best = ws.best[:nr]
	if cap(ws.reps) < r {
		ws.reps = make([]replicaState, r)
		ws.lanes = make([]laneState, r)
	}
	ws.reps = ws.reps[:r]
	ws.lanes = ws.lanes[:r]
	if tw != nil {
		if len(ws.caches) < r {
			ws.caches = append(ws.caches, make([]ising.TwinCache, r-len(ws.caches))...)
		}
		for l := range ws.caches[:r] {
			ws.caches[l].Reserve(tw)
		}
	}
}

// Package partition models input partitions w = {A, B} of the n input
// variables of a Boolean function.
//
// A is the free set (its 2^|A| assignments index the rows of the Boolean
// matrix) and B is the bound set (2^|B| assignments index the columns).
// The package provides the (row, column) <-> global-pattern bijection used
// everywhere a Boolean matrix is built, plus deterministic and seeded
// random generation of candidate partitions for the DALTA outer loop.
package partition

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
)

// MaxVars is the largest supported variable count. Rows and Cols are
// computed as 1 << |A| and 1 << |B| in int arithmetic, and several
// consumers multiply Rows()*Cols() to size the Boolean matrix, so the
// bound keeps every such product far from int overflow (and the tables
// far from any realistic memory budget). Constructors reject larger n
// instead of silently wrapping.
const MaxVars = 30

// MaxSide caps |A| and |B| individually. A side of 26 already means a
// 2^26-entry scatter table (512 MiB of uint64 per side at 26); beyond it
// 1 << len(pos) in Rows/Cols/scatterTable approaches the int32 range and
// the table allocation is guaranteed to be a bug, not a workload.
const MaxSide = 26

// Partition is an input partition of n variables into a free set A and a
// bound set B. It is immutable after construction.
//
// In the disjoint case (the paper's setting) A and B partition the
// variables. The non-disjoint extension of [10] lets A and B overlap:
// every variable belongs to at least one set and shared variables appear
// in both the row and the column index. Matrix cells whose row and column
// disagree on a shared variable correspond to no input pattern; Valid
// reports reachability and consumers treat unreachable cells as
// zero-probability don't-cares.
type Partition struct {
	n     int
	maskA uint64 // bit b set <=> variable x_{b+1} is in the free set A
	maskB uint64 // bit b set <=> variable x_{b+1} is in the bound set B
	posA  []int  // variable indices in A, ascending
	posB  []int  // variable indices in B, ascending

	// rowBits[i] is the global pattern whose A-variables spell i (bit t of
	// i goes to variable posA[t]) and whose B-variables are 0; colBits is
	// the mirror for B. Global pattern of cell (i,j) = rowBits[i]|colBits[j].
	rowBits []uint64
	colBits []uint64

	// sharedRow[i] / sharedCol[j] are the shared-variable assignments of
	// row i / column j; cell (i, j) is reachable iff they agree. Nil for
	// disjoint partitions (everything reachable).
	sharedRow []uint32
	sharedCol []uint32
}

// New builds a partition of n variables from the free-set mask. Bit b of
// maskA set means variable index b (0-based) belongs to A; all other
// variables belong to B. Both sets must be non-empty.
func New(n int, maskA uint64) (*Partition, error) {
	if n <= 0 || n > MaxVars {
		return nil, fmt.Errorf("partition: unsupported variable count %d (max %d)", n, MaxVars)
	}
	full := uint64(1)<<uint(n) - 1
	if maskA&^full != 0 {
		return nil, fmt.Errorf("partition: maskA %#x has bits beyond %d variables", maskA, n)
	}
	if maskA == 0 || maskA == full {
		return nil, fmt.Errorf("partition: both A and B must be non-empty (maskA=%#x)", maskA)
	}
	return NewOverlap(n, maskA, full&^maskA)
}

// NewOverlap builds a possibly non-disjoint partition from explicit free-
// and bound-set masks. Every variable must belong to at least one set;
// variables in both are shared (the non-disjoint extension of [10]).
func NewOverlap(n int, maskA, maskB uint64) (*Partition, error) {
	if n <= 0 || n > MaxVars {
		return nil, fmt.Errorf("partition: unsupported variable count %d (max %d)", n, MaxVars)
	}
	full := uint64(1)<<uint(n) - 1
	if maskA&^full != 0 || maskB&^full != 0 {
		return nil, fmt.Errorf("partition: masks %#x/%#x exceed %d variables", maskA, maskB, n)
	}
	if maskA == 0 || maskB == 0 {
		return nil, fmt.Errorf("partition: both A and B must be non-empty")
	}
	if maskA|maskB != full {
		return nil, fmt.Errorf("partition: masks %#x/%#x do not cover all %d variables", maskA, maskB, n)
	}
	p := &Partition{n: n, maskA: maskA, maskB: maskB}
	for b := 0; b < n; b++ {
		if maskA&(1<<uint(b)) != 0 {
			p.posA = append(p.posA, b)
		}
		if maskB&(1<<uint(b)) != 0 {
			p.posB = append(p.posB, b)
		}
	}
	// This check must run before scatterTable: a larger side would shift
	// 1 << len(pos) toward overflow and allocate gigabyte-scale tables.
	if len(p.posA) > MaxSide || len(p.posB) > MaxSide {
		return nil, fmt.Errorf("partition: side sizes %d/%d too large (max %d)", len(p.posA), len(p.posB), MaxSide)
	}
	p.rowBits = scatterTable(p.posA)
	p.colBits = scatterTable(p.posB)
	if shared := maskA & maskB; shared != 0 {
		var sharedPos []int
		for b := 0; b < n; b++ {
			if shared&(1<<uint(b)) != 0 {
				sharedPos = append(sharedPos, b)
			}
		}
		p.sharedRow = make([]uint32, len(p.rowBits))
		for i, bits := range p.rowBits {
			p.sharedRow[i] = uint32(gather(bits, sharedPos))
		}
		p.sharedCol = make([]uint32, len(p.colBits))
		for j, bits := range p.colBits {
			p.sharedCol[j] = uint32(gather(bits, sharedPos))
		}
	}
	return p, nil
}

// MustNew is New that panics on error, for literals in tests and examples.
func MustNew(n int, maskA uint64) *Partition {
	p, err := New(n, maskA)
	if err != nil {
		panic(err)
	}
	return p
}

// FromSets builds a partition from explicit 0-based variable index sets.
// The sets must be disjoint and cover exactly 0..n-1.
func FromSets(n int, a []int) (*Partition, error) {
	var mask uint64
	for _, v := range a {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("partition: variable index %d out of range [0,%d)", v, n)
		}
		if mask&(1<<uint(v)) != 0 {
			return nil, fmt.Errorf("partition: duplicate variable index %d", v)
		}
		mask |= 1 << uint(v)
	}
	return New(n, mask)
}

// scatterTable precomputes, for every local index over the given variable
// positions, the global pattern with those bits placed.
func scatterTable(pos []int) []uint64 {
	size := 1 << uint(len(pos))
	table := make([]uint64, size)
	for local := 0; local < size; local++ {
		var g uint64
		for t, p := range pos {
			if local&(1<<uint(t)) != 0 {
				g |= 1 << uint(p)
			}
		}
		table[local] = g
	}
	return table
}

// NumVars returns n.
func (p *Partition) NumVars() int { return p.n }

// FreeSize returns |A|.
func (p *Partition) FreeSize() int { return len(p.posA) }

// BoundSize returns |B|.
func (p *Partition) BoundSize() int { return len(p.posB) }

// Rows returns r = 2^|A|, the Boolean-matrix row count.
func (p *Partition) Rows() int { return 1 << uint(len(p.posA)) }

// Cols returns c = 2^|B|, the Boolean-matrix column count.
func (p *Partition) Cols() int { return 1 << uint(len(p.posB)) }

// MaskA returns the free-set bitmask.
func (p *Partition) MaskA() uint64 { return p.maskA }

// FreeVars returns the 0-based variable indices of the free set A.
func (p *Partition) FreeVars() []int { return append([]int(nil), p.posA...) }

// BoundVars returns the 0-based variable indices of the bound set B.
func (p *Partition) BoundVars() []int { return append([]int(nil), p.posB...) }

// RowOf extracts the row index (assignment of the A variables) from a
// global input pattern.
func (p *Partition) RowOf(x uint64) int {
	return gather(x, p.posA)
}

// ColOf extracts the column index (assignment of the B variables) from a
// global input pattern.
func (p *Partition) ColOf(x uint64) int {
	return gather(x, p.posB)
}

func gather(x uint64, pos []int) int {
	local := 0
	for t, b := range pos {
		if x&(1<<uint(b)) != 0 {
			local |= 1 << uint(t)
		}
	}
	return local
}

// Global returns the global input pattern of matrix cell (row i, col j).
// For non-disjoint partitions the result is meaningful only when
// Valid(i, j) holds.
func (p *Partition) Global(i, j int) uint64 {
	return p.rowBits[i] | p.colBits[j]
}

// CellBits returns, for each input variable b, the bits it sets in the
// row-major cell index i·Cols() + j of the cell that holds an input
// pattern x, which is then the OR of CellBits()[b] over the set bits b
// of x: a variable of B sets one bit of j, a variable of A one bit of i
// (above the |B| bits of j), and a shared variable one of each. Under a
// disjoint partition every entry is a single bit and the cell indices
// are a permutation of the patterns' bits.
func (p *Partition) CellBits() []uint64 {
	cell := make([]uint64, p.n)
	for s, b := range p.posB {
		cell[b] |= 1 << uint(s)
	}
	for s, b := range p.posA {
		cell[b] |= 1 << uint(len(p.posB)+s)
	}
	return cell
}

// Disjoint reports whether A and B share no variables (the paper's
// setting; Valid is then vacuously true).
func (p *Partition) Disjoint() bool { return p.sharedRow == nil }

// Overlap returns the number of shared variables.
func (p *Partition) Overlap() int {
	return len(p.posA) + len(p.posB) - p.n
}

// MaskB returns the bound-set bitmask.
func (p *Partition) MaskB() uint64 { return p.maskB }

// Valid reports whether matrix cell (i, j) corresponds to an input
// pattern: the row's and the column's shared-variable assignments agree.
// Always true for disjoint partitions.
func (p *Partition) Valid(i, j int) bool {
	if p.sharedRow == nil {
		return true
	}
	return p.sharedRow[i] == p.sharedCol[j]
}

// Equal reports whether two partitions are over the same variables with
// the same free and bound sets.
func (p *Partition) Equal(q *Partition) bool {
	return p.n == q.n && p.maskA == q.maskA && p.maskB == q.maskB
}

// String renders the partition as {A={x1,x3}, B={x2}} using the paper's
// 1-based variable names.
func (p *Partition) String() string {
	name := func(pos []int) string {
		parts := make([]string, len(pos))
		for i, b := range pos {
			parts[i] = fmt.Sprintf("x%d", b+1)
		}
		return strings.Join(parts, ",")
	}
	if p.Disjoint() {
		return fmt.Sprintf("{A={%s}, B={%s}}", name(p.posA), name(p.posB))
	}
	return fmt.Sprintf("{A={%s}, B={%s}, overlap=%d}", name(p.posA), name(p.posB), p.Overlap())
}

// RandomOverlap returns a random non-disjoint partition: A has freeSize
// variables, and overlap of them are additionally shared into B (so
// |B| = n - freeSize + overlap). overlap = 0 reduces to Random.
func RandomOverlap(n, freeSize, overlap int, rng *rand.Rand) *Partition {
	if freeSize <= 0 || freeSize >= n {
		panic(fmt.Sprintf("partition: freeSize %d must be in (0,%d)", freeSize, n))
	}
	if overlap < 0 || overlap > freeSize {
		panic(fmt.Sprintf("partition: overlap %d must be in [0,%d]", overlap, freeSize))
	}
	perm := rng.Perm(n)
	var maskA uint64
	for _, v := range perm[:freeSize] {
		maskA |= 1 << uint(v)
	}
	full := uint64(1)<<uint(n) - 1
	maskB := full &^ maskA
	// Share the first `overlap` free variables into B.
	for _, v := range perm[:overlap] {
		maskB |= 1 << uint(v)
	}
	p, err := NewOverlap(n, maskA, maskB)
	if err != nil {
		panic(err) // construction above satisfies the invariants
	}
	return p
}

// Random returns a uniformly random partition with exactly freeSize
// variables in A, drawn with rng.
func Random(n, freeSize int, rng *rand.Rand) *Partition {
	if freeSize <= 0 || freeSize >= n {
		panic(fmt.Sprintf("partition: freeSize %d must be in (0,%d)", freeSize, n))
	}
	perm := rng.Perm(n)
	var mask uint64
	for _, v := range perm[:freeSize] {
		mask |= 1 << uint(v)
	}
	return MustNew(n, mask)
}

// RandomDistinct returns up to count distinct random partitions with the
// given free-set size. If count exceeds the number of distinct partitions
// C(n, freeSize), all of them are returned (in random order).
func RandomDistinct(n, freeSize, count int, rng *rand.Rand) []*Partition {
	total := binomial(n, freeSize)
	if count >= total {
		all := Enumerate(n, freeSize)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	seen := make(map[uint64]bool, count)
	out := make([]*Partition, 0, count)
	for len(out) < count {
		p := Random(n, freeSize, rng)
		if !seen[p.maskA] {
			seen[p.maskA] = true
			out = append(out, p)
		}
	}
	return out
}

// Enumerate returns every partition with |A| = freeSize in ascending mask
// order. Intended for exhaustive small-n tests.
func Enumerate(n, freeSize int) []*Partition {
	var out []*Partition
	full := uint64(1) << uint(n)
	for mask := uint64(1); mask < full; mask++ {
		if bits.OnesCount64(mask) == freeSize {
			out = append(out, MustNew(n, mask))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].maskA < out[j].maskA })
	return out
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}

// Package truthtable represents multi-output Boolean functions as packed
// truth tables.
//
// A Table holds an n-input, m-output Boolean function G(X) = (g_1 ... g_m)
// as m single-output truth tables of 2^n bits each. Input patterns are
// indexed by the integer whose bit b (0-based) is the value of input
// x_{b+1}; outputs are indexed k = 0 .. m-1 with k = 0 the least
// significant bit of the binary encoding Bin(G(X)). This matches the
// paper's convention that component k has significance 2^{k-1} (there,
// components are 1-based).
package truthtable

import (
	"fmt"
	"math/rand"

	"isinglut/internal/bitvec"
)

// MaxInputs bounds the supported number of input bits. 2^26 entries per
// component (8 MiB packed) is far beyond the paper's n = 16.
const MaxInputs = 26

// Table is a multi-output Boolean function stored as per-component packed
// truth tables.
type Table struct {
	n    int
	m    int
	comp []*bitvec.Vector // comp[k] has 2^n bits; bit x = g_{k+1}(x)
}

// New returns an all-zero table with n inputs and m outputs.
func New(n, m int) *Table {
	if n < 0 || n > MaxInputs {
		panic(fmt.Sprintf("truthtable: unsupported input count %d", n))
	}
	if m <= 0 || m > 63 {
		panic(fmt.Sprintf("truthtable: unsupported output count %d", m))
	}
	size := 1 << uint(n)
	comp := make([]*bitvec.Vector, m)
	for k := range comp {
		comp[k] = bitvec.New(size)
	}
	return &Table{n: n, m: m, comp: comp}
}

// FromFunc builds a table by evaluating f on every input pattern. f must
// return a value whose bits beyond m-1 are ignored.
func FromFunc(n, m int, f func(x uint64) uint64) *Table {
	t := New(n, m)
	size := uint64(1) << uint(n)
	for x := uint64(0); x < size; x++ {
		t.SetOutput(x, f(x))
	}
	return t
}

// FromOutputs builds a table from its explicit output words: outputs[x]
// holds Bin(G(x)) in its low m bits (the wire format of the decomposition
// service). It rejects mismatched lengths and output words with bits set
// beyond m-1, so a malformed payload cannot silently truncate.
func FromOutputs(n, m int, outputs []uint64) (*Table, error) {
	if n < 0 || n > MaxInputs {
		return nil, fmt.Errorf("truthtable: unsupported input count %d (max %d)", n, MaxInputs)
	}
	if m <= 0 || m > 63 {
		return nil, fmt.Errorf("truthtable: unsupported output count %d", m)
	}
	size := uint64(1) << uint(n)
	if uint64(len(outputs)) != size {
		return nil, fmt.Errorf("truthtable: %d outputs for n=%d (want %d)", len(outputs), n, size)
	}
	t := New(n, m)
	limit := uint64(1)<<uint(m) - 1
	for x, out := range outputs {
		if out > limit {
			return nil, fmt.Errorf("truthtable: output %#x at pattern %d exceeds %d bits", out, x, m)
		}
		t.SetOutput(uint64(x), out)
	}
	return t, nil
}

// Outputs returns the full output-word vector: element x is Bin(G(x)).
// It is the inverse of FromOutputs and allocates a fresh slice.
func (t *Table) Outputs() []uint64 {
	out := make([]uint64, t.Size())
	var block [64]uint64
	for x := 0; x < len(out); x += 64 {
		t.OutputWords(x>>6, &block)
		copy(out[x:], block[:])
	}
	return out
}

// NumInputs returns n.
func (t *Table) NumInputs() int { return t.n }

// NumOutputs returns m.
func (t *Table) NumOutputs() int { return t.m }

// Size returns the number of input patterns, 2^n.
func (t *Table) Size() uint64 { return uint64(1) << uint(t.n) }

// Bit returns the value of component k (0-based) on input pattern x.
func (t *Table) Bit(k int, x uint64) int {
	return t.comp[k].Bit(int(x))
}

// SetBit assigns component k on input pattern x.
func (t *Table) SetBit(k int, x uint64, b bool) {
	t.comp[k].Set(int(x), b)
}

// Output returns the full m-bit output word Bin(G(x)).
func (t *Table) Output(x uint64) uint64 {
	var out uint64
	for k := 0; k < t.m; k++ {
		if t.comp[k].Get(int(x)) {
			out |= 1 << uint(k)
		}
	}
	return out
}

// SetOutput assigns all m output bits on input pattern x from the low m
// bits of out.
func (t *Table) SetOutput(x uint64, out uint64) {
	for k := 0; k < t.m; k++ {
		t.comp[k].Set(int(x), out&(1<<uint(k)) != 0)
	}
}

// Component returns the packed truth table of component k. The returned
// vector is the live storage: mutating it mutates the table.
func (t *Table) Component(k int) *bitvec.Vector {
	return t.comp[k]
}

// SetComponent replaces component k's truth table. The vector length must
// be 2^n.
func (t *Table) SetComponent(k int, v *bitvec.Vector) {
	if v.Len() != int(t.Size()) {
		panic(fmt.Sprintf("truthtable: component length %d != %d", v.Len(), t.Size()))
	}
	t.comp[k] = v
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{n: t.n, m: t.m, comp: make([]*bitvec.Vector, t.m)}
	for k := range t.comp {
		c.comp[k] = t.comp[k].Clone()
	}
	return c
}

// Equal reports whether two tables have identical shape and contents.
func (t *Table) Equal(o *Table) bool {
	if t.n != o.n || t.m != o.m {
		return false
	}
	for k := range t.comp {
		if !t.comp[k].Equal(o.comp[k]) {
			return false
		}
	}
	return true
}

// DiffCount returns the number of (pattern, component) pairs on which the
// two tables disagree. Shapes must match.
func (t *Table) DiffCount(o *Table) int {
	if t.n != o.n || t.m != o.m {
		panic("truthtable: DiffCount shape mismatch")
	}
	d := 0
	for k := range t.comp {
		d += t.comp[k].HammingDistance(o.comp[k])
	}
	return d
}

// Random fills a table with uniform random bits using rng; used by tests
// and fuzz-style property checks.
func Random(n, m int, rng *rand.Rand) *Table {
	t := New(n, m)
	size := uint64(1) << uint(n)
	for x := uint64(0); x < size; x++ {
		t.SetOutput(x, rng.Uint64())
	}
	return t
}

// String summarizes the table shape; full dumps go through Dump.
func (t *Table) String() string {
	return fmt.Sprintf("truthtable.Table(n=%d, m=%d)", t.n, t.m)
}

// Dump renders the full truth table (one line per pattern) for debugging
// small functions. It panics if n > 12 to avoid accidental huge dumps.
func (t *Table) Dump() string {
	if t.n > 12 {
		panic("truthtable: Dump on function with more than 12 inputs")
	}
	s := ""
	for x := uint64(0); x < t.Size(); x++ {
		s += fmt.Sprintf("%0*b -> %0*b\n", t.n, x, t.m, t.Output(x))
	}
	return s
}

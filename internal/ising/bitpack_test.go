package ising

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"isinglut/internal/bitvec"
	"isinglut/internal/fault"
)

// TestTranspose64 pins the bit-matrix orientation the lane-mask
// conversion relies on: after transpose, bit c of word k is the original
// bit k of word c — and applying it twice is the identity.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, orig [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	transpose64(&a)
	for k := 0; k < 64; k++ {
		for c := 0; c < 64; c++ {
			got := (a[k] >> uint(c)) & 1
			want := (orig[c] >> uint(k)) & 1
			if got != want {
				t.Fatalf("transpose bit (%d,%d): got %d want %d", k, c, got, want)
			}
		}
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 applied twice is not the identity")
	}
}

// quantCodes materializes the fixed-point codes of any Quantized layout
// as a dense int64 matrix — the layout-agnostic view the bitvec oracle
// and the plane tests build on.
func quantCodes(q *Quantized) [][]int64 {
	n := q.N()
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	switch {
	case q.d8 != nil:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m[i][j] = int64(q.d8[i*n+j])
			}
		}
	case q.d16 != nil:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m[i][j] = int64(q.d16[i*n+j])
			}
		}
	default:
		for i := 0; i < n; i++ {
			for e := q.rowPtr[i]; e < q.rowPtr[i+1]; e++ {
				if q.s8 != nil {
					m[i][q.col[e]] = int64(q.s8[e])
				} else {
					m[i][q.col[e]] = int64(q.s16[e])
				}
			}
		}
	}
	return m
}

// bitvecOracleField is an independent reference implementation of the
// bit-plane identity built on bitvec.Vector: it re-derives the planes
// from the raw codes per row and evaluates Σ_b 2^b·(2·|plane_b ∧ u| −
// |plane_b|) with AndCount/OnesCount, sharing no code with the packed
// kernels.
func bitvecOracleField(q *Quantized, sigma []float64) []float64 {
	n := q.N()
	codes := quantCodes(q)
	mask := bitvec.New(n)
	for j := 0; j < n; j++ {
		mask.Set(j, sigma[j] > 0)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		neg := bitvec.New(n)
		var planes []*bitvec.Vector
		var abs int64
		for j, c := range codes[i] {
			if c == 0 {
				continue
			}
			if c < 0 {
				neg.Set(j, true)
				c = -c
			}
			abs += c
			for b := 0; c != 0; b++ {
				if c&1 != 0 {
					for len(planes) <= b {
						planes = append(planes, bitvec.New(n))
					}
					planes[b].Set(j, true)
				}
				c >>= 1
			}
		}
		u := mask.Xor(neg)
		var pc int64
		for b, pl := range planes {
			pc += int64(pl.AndCount(u)) << uint(b)
		}
		out[i] = q.Scale() * float64(2*pc-abs)
	}
	return out
}

// int16Coupler builds a dense coupling whose RMS is small against the
// maximum, forcing the 16-bit quantization width.
func int16Coupler(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, 0.001*rng.NormFloat64())
		}
	}
	if n >= 2 {
		d.Set(0, 1, 1.0) // the outlier that stretches the dynamic range
	}
	return d
}

func assertFieldsBitIdentical(t *testing.T, got, want []float64, context string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: packed %v != quant %v", context, i, got[i], want[i])
		}
	}
}

// TestFieldPlanesMatchesQuantScalar pins the scalar popcount kernel
// bitwise-equal to Quantized.FieldSigns across widths (int8/int16),
// layouts (dense/CSR) and sizes spanning every word-boundary case; tiny
// and sparse instances the dispatch heuristic would reject are
// force-packed so the kernels themselves are still exercised there.
func TestFieldPlanesMatchesQuantScalar(t *testing.T) {
	type tc struct {
		name  string
		coup  Coupler
		force bool
	}
	var cases []tc
	for _, n := range []int{2, 7, 63, 64, 65, 127, 128, 129, 256} {
		cases = append(cases, tc{name: "dense", coup: randomDenseCoupler(n, int64(n)), force: n < 16})
	}
	cases = append(cases,
		tc{name: "int16", coup: int16Coupler(128, 3)},
		tc{name: "sparse02", coup: NewSparseFromDense(randomSparseDense(200, 0.02, 4)), force: true},
		tc{name: "sparse10", coup: NewSparseFromDense(randomSparseDense(150, 0.10, 5)), force: true},
		tc{name: "sparse30", coup: NewSparseFromDense(randomSparseDense(100, 0.30, 6))},
	)
	for _, c := range cases {
		q, ok := Quantize(c.coup)
		if !ok {
			t.Fatalf("%s/n=%d: Quantize failed", c.name, c.coup.N())
		}
		p, ok := newPlanes(q, 1, c.force)
		if !ok {
			t.Fatalf("%s/n=%d: newPlanes(force=%v) rejected", c.name, c.coup.N(), c.force)
		}
		n := c.coup.N()
		sigma := benchSigns(randomBlock(n, 1, int64(n)+9, 0))
		want := make([]float64, n)
		got := make([]float64, n)
		q.FieldSigns(sigma, want)
		p.FieldSigns(sigma, got)
		assertFieldsBitIdentical(t, got, want, c.name)
		oracle := bitvecOracleField(q, sigma)
		assertFieldsBitIdentical(t, got, oracle, c.name+"/bitvec-oracle")
	}
}

// TestFieldPlanesBatchMatchesQuantBatch pins the replica-bit-sliced batch
// kernel bitwise-equal to Quantized.FieldSignsBatch lane by lane, with the
// replica counts straddling the 64-lane slice-group boundary.
func TestFieldPlanesBatchMatchesQuantBatch(t *testing.T) {
	for _, n := range []int{64, 129, 256} {
		for _, r := range []int{1, 63, 64, 65} {
			q, ok := Quantize(randomDenseCoupler(n, int64(n)))
			if !ok {
				t.Fatalf("n=%d: Quantize failed", n)
			}
			p, ok := NewPlanes(q, r)
			if !ok {
				t.Fatalf("n=%d r=%d: NewPlanes rejected dense matrix", n, r)
			}
			sigma := benchSigns(randomBlock(n, r, int64(n*r), 0))
			want := make([]float64, n*r)
			got := make([]float64, n*r)
			q.FieldSignsBatch(sigma, want, r)
			p.FieldSignsBatch(sigma, got, r)
			assertFieldsBitIdentical(t, got, want, "dense batch")
		}
	}
	// CSR layout through the batch path (force: 5% is below the dispatch
	// cutoff), including a shrinking second call on the same scratch —
	// the fused engine's lane-retirement pattern.
	q, ok := Quantize(NewSparseFromDense(randomSparseDense(180, 0.05, 11)))
	if !ok {
		t.Fatal("Quantize failed")
	}
	p, ok := newPlanes(q, 65, true)
	if !ok {
		t.Fatal("newPlanes(force) rejected sparse matrix")
	}
	for _, r := range []int{65, 64, 17, 1} {
		n := 180
		sigma := benchSigns(randomBlock(n, r, int64(r)+77, 0))
		want := make([]float64, n*r)
		got := make([]float64, n*r)
		q.FieldSignsBatch(sigma, want, r)
		p.FieldSignsBatch(sigma, got, r)
		assertFieldsBitIdentical(t, got, want, "csr batch")
	}
}

// TestNewPlanesDispatchHeuristic pins the density × width × lanes
// dispatch at the cutoffs where the packed kernels stopped losing to the
// scalar ones (EXPERIMENTS.md): int8 dense rows pack from 23 spins at
// one lane, 32 at two or three and 36 from four on; int16 planes stop
// packing at four lanes; 20%-dense CSR rows stay scalar at one lane and
// pack batched once they span several 64-column groups, 25%-dense ones
// pack at one lane. Tiny dense instances, scattered very-sparse ones and
// a nil input always reject.
func TestNewPlanesDispatchHeuristic(t *testing.T) {
	for _, c := range []struct {
		name  string
		coup  Coupler
		lanes int
		pack  bool
	}{
		{"dense n=22", randomDenseCoupler(22, 5), 1, false},
		{"dense n=23", randomDenseCoupler(23, 5), 1, true},
		{"dense n=31", randomDenseCoupler(31, 5), 2, false},
		{"dense n=32", randomDenseCoupler(32, 5), 3, true},
		{"dense n=35", randomDenseCoupler(35, 5), 4, false},
		{"dense n=36", randomDenseCoupler(36, 5), 16, true},
		{"dense n=64", randomDenseCoupler(64, 2), 1, true},
		{"dense n=256", randomDenseCoupler(256, 1), 64, true},
		{"dense n=4", randomDenseCoupler(4, 3), 1, false},
		{"int16 n=128", int16Coupler(128, 3), 3, true},
		{"int16 n=128", int16Coupler(128, 3), 4, false},
		{"csr 20% n=256", NewSparseFromDense(randomSparseDense(256, 0.20, 6)), 1, false},
		{"csr 20% n=256", NewSparseFromDense(randomSparseDense(256, 0.20, 6)), 3, true},
		{"csr 20% n=64", NewSparseFromDense(randomSparseDense(64, 0.20, 6)), 3, false},
		{"csr 25% n=256", NewSparseFromDense(randomSparseDense(256, 0.25, 6)), 1, true},
		{"csr 2% n=256", NewSparseFromDense(randomSparseDense(256, 0.02, 4)), 64, false},
	} {
		q, ok := Quantize(c.coup)
		if !ok {
			t.Fatalf("%s: Quantize failed", c.name)
		}
		p, ok := NewPlanes(q, c.lanes)
		if ok != c.pack {
			t.Fatalf("%s at %d lanes: NewPlanes accepted=%v, want %v", c.name, c.lanes, ok, c.pack)
		}
		if _, dense := c.coup.(*Dense); ok && p.Dense() != dense {
			t.Fatalf("%s: dense plane layout %v for a %T coupler", c.name, p.Dense(), c.coup)
		}
	}
	if _, ok := NewPlanes(nil, 1); ok {
		t.Fatal("nil Quantized must reject")
	}
}

// TestPlanesBatchAllocFree pins the zero-allocation contract of the batch
// kernel after the first call warms the scratch — the fused engine calls
// it every step.
func TestPlanesBatchAllocFree(t *testing.T) {
	n, r := 128, 65
	q, ok := Quantize(randomDenseCoupler(n, 1))
	if !ok {
		t.Fatal("Quantize failed")
	}
	p, ok := NewPlanes(q, r)
	if !ok {
		t.Fatal("NewPlanes rejected dense matrix")
	}
	sigma := benchSigns(randomBlock(n, r, 2, 0))
	out := make([]float64, n*r)
	p.FieldSignsBatch(sigma, out, r)
	if allocs := testing.AllocsPerRun(10, func() {
		p.FieldSignsBatch(sigma, out, r)
	}); allocs != 0 {
		t.Fatalf("FieldSignsBatch allocates %v per call after warm-up", allocs)
	}
	p.FieldSigns(sigma, out)
	if allocs := testing.AllocsPerRun(10, func() {
		p.FieldSigns(sigma, out)
	}); allocs != 0 {
		t.Fatalf("FieldSigns allocates %v per call after warm-up", allocs)
	}
}

// TestPlanesPackFailpoint proves ising.bitpack.pack forces the packed
// path off — the engines then stay on the scalar quant kernels.
func TestPlanesPackFailpoint(t *testing.T) {
	defer fault.DisarmAll()
	q, ok := Quantize(randomDenseCoupler(128, 1))
	if !ok {
		t.Fatal("Quantize failed")
	}
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	if _, ok := NewPlanes(q, 1); ok {
		t.Fatal("armed ising.bitpack.pack must reject packing")
	}
	fault.DisarmAll()
	if _, ok := NewPlanes(q, 1); !ok {
		t.Fatal("disarmed site must pack again")
	}
}

// TestPlanesAccumFailpoint proves ising.bitpack.accum poisons the first
// packed field value — the hook the divergence quarantine tests rely on.
func TestPlanesAccumFailpoint(t *testing.T) {
	defer fault.DisarmAll()
	n, r := 64, 3
	q, ok := Quantize(randomDenseCoupler(n, 1))
	if !ok {
		t.Fatal("Quantize failed")
	}
	p, ok := NewPlanes(q, r)
	if !ok {
		t.Fatal("NewPlanes rejected dense matrix")
	}
	sigma := benchSigns(randomBlock(n, r, 2, 0))
	out := make([]float64, n*r)
	fault.MustArm("ising.bitpack.accum", fault.Scenario{Times: -1})
	p.FieldSignsBatch(sigma, out, r)
	if !math.IsNaN(out[0]) {
		t.Fatal("armed ising.bitpack.accum must poison out[0]")
	}
	p.FieldSigns(sigma, out[:n])
	if !math.IsNaN(out[0]) {
		t.Fatal("armed ising.bitpack.accum must poison the scalar kernel too")
	}
}

// FuzzFieldPlanes fuzzes the bit-plane packing and both popcount kernels
// against the scalar quantized kernels: for arbitrary (n, density, seed,
// r) the force-packed fields must be bit-identical, scalar and batch.
func FuzzFieldPlanes(f *testing.F) {
	f.Add(uint8(8), uint8(20), int64(1), uint8(4))
	f.Add(uint8(64), uint8(100), int64(2), uint8(1))
	f.Add(uint8(65), uint8(100), int64(3), uint8(65))
	f.Add(uint8(130), uint8(5), int64(99), uint8(64))
	f.Fuzz(func(t *testing.T, nRaw, densRaw uint8, seed int64, rRaw uint8) {
		n := 1 + int(nRaw)%150
		r := 1 + int(rRaw)%70
		density := float64(densRaw%101) / 100
		var c Coupler = randomSparseDense(n, density, seed)
		if density < 0.2 {
			c = NewSparseFromDense(c.(*Dense))
		}
		q, ok := Quantize(c)
		if !ok {
			t.Skip("unquantizable draw (all-zero)")
		}
		p, ok := newPlanes(q, r, true)
		if !ok {
			t.Fatalf("n=%d density=%g: force-pack rejected", n, density)
		}
		sigma := benchSigns(randomBlock(n, r, seed+1, 0))
		want := make([]float64, n*r)
		got := make([]float64, n*r)
		q.FieldSignsBatch(sigma, want, r)
		p.FieldSignsBatch(sigma, got, r)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d density=%g r=%d entry %d: packed %v != quant %v", n, density, r, i, got[i], want[i])
			}
		}
		q.FieldSigns(sigma, want[:n])
		p.FieldSigns(sigma, got[:n])
		for i := range want[:n] {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("scalar n=%d entry %d: packed %v != quant %v", n, i, got[i], want[i])
			}
		}
	})
}

// TestBenchSmokeBitpackBeatsQuant is the CI speedup gate behind the
// bit-packed kernels (the PR 9 acceptance bar): at dense n=256/r=64 the
// popcount batch sweep must beat the scalar quantized kernel by ≥2x.
// Typical measurements sit well above the bar, so scheduler noise cannot
// flake it; best-of-rounds absorbs the rest.
func TestBenchSmokeBitpackBeatsQuant(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	n, r := 256, 64
	q, ok := Quantize(randomDenseCoupler(n, 42))
	if !ok {
		t.Fatal("Quantize failed")
	}
	p, ok := NewPlanes(q, r)
	if !ok {
		t.Fatal("NewPlanes rejected dense n=256")
	}
	sigma := benchSigns(randomBlock(n, r, 1, 0))
	out := make([]float64, n*r)

	timeKernel := func(run func()) time.Duration {
		const rounds, iters = 5, 4
		best := time.Duration(math.MaxInt64)
		for round := 0; round < rounds; round++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				run()
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	quantRun := func() { q.FieldSignsBatch(sigma, out, r) }
	packRun := func() { p.FieldSignsBatch(sigma, out, r) }
	timeKernel(quantRun) // warm both paths before measuring
	timeKernel(packRun)
	quant := timeKernel(quantRun)
	packed := timeKernel(packRun)
	if float64(quant) < 2.0*float64(packed) {
		t.Fatalf("bit-packed kernel not ≥2x over quant at n=%d r=%d: quant %v vs packed %v (%.2fx)",
			n, r, quant, packed, float64(quant)/float64(packed))
	}
	t.Logf("n=%d r=%d: quant %v, bitpacked %v (%.1fx)", n, r, quant, packed, float64(quant)/float64(packed))
}

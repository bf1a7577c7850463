package ising

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cacheStep is one input change of a cached-product sequence: the
// positions it rewrites and the value each gets, or, with undo, the
// return of the positions the last change rewrote to their values from
// before it (a wall position that leaves ±1 and comes back).
type cacheStep struct {
	at   []int
	val  []float64
	undo bool
}

// mutateInputs applies step to x and returns the step that undoes it:
// the old values in reverse order, so a position step rewrites twice
// gets its first old value back.
func mutateInputs(x []float64, step cacheStep) cacheStep {
	n := len(step.at)
	back := cacheStep{at: make([]int, n), val: make([]float64, n)}
	for k, i := range step.at {
		back.at[n-1-k], back.val[n-1-k] = i, x[i]
		x[i] = step.val[k]
	}
	return back
}

// randomSteps draws a sequence of input changes for an n-spin twin
// product: each step rewrites up to four positions (none in about one
// step of six) with one of fieldSpecials or a Gaussian, the changes a
// bSB lane makes between products (walls at ±1, signed zeros) and the
// poison the kernels must carry (NaN, ±Inf), or (one step in five)
// undoes the change before it.
func randomSteps(n, count int, rng *rand.Rand) []cacheStep {
	steps := make([]cacheStep, count)
	for s := range steps {
		if s > 0 && rng.Intn(5) == 0 {
			steps[s].undo = true
			continue
		}
		k := rng.Intn(5)
		if rng.Intn(6) == 0 {
			k = 0
		}
		for ; k > 0; k-- {
			v := rng.NormFloat64()
			if rng.Intn(2) == 0 {
				v = fieldSpecials[rng.Intn(len(fieldSpecials))]
			}
			steps[s].at = append(steps[s].at, rng.Intn(n))
			steps[s].val = append(steps[s].val, v)
		}
	}
	return steps
}

// boundarySteps are the input changes at the edges of the chain
// checkpoints of a c×r twin: the first and last term of each side, every
// U term at a multiple of twinUStride and the terms next to it, every W
// term at a multiple of twinWStride and the terms next to it, and the
// first terms of the W2 half, each alone, then repeated, then undone.
// The edges run from last to first, so each resume reads checkpoints
// the sequence's first, full product stored, then from first to last,
// so each reads checkpoints a resumed product stored.
func boundarySteps(c, r int) []cacheStep {
	var at []int
	for u := 0; u < 2*r; u++ {
		if u%twinUStride <= 1 || u%twinUStride == twinUStride-1 || u == r || u == 2*r-1 {
			at = append(at, c+u)
		}
	}
	for w := 0; w < c; w++ {
		if w%twinWStride <= 1 || w%twinWStride == twinWStride-1 || w == c-1 {
			at = append(at, w)
		}
	}
	order := make([]int, 0, 2*len(at))
	for k := len(at) - 1; k >= 0; k-- {
		order = append(order, at[k])
	}
	order = append(order, at...)
	steps := make([]cacheStep, 0, 3*len(order))
	for k, i := range order {
		v := []float64{1, -1, 0.5, math.Copysign(0, -1)}[k%4]
		steps = append(steps, cacheStep{at: []int{i}, val: []float64{v}}, cacheStep{}, cacheStep{undo: true})
	}
	return steps
}

// fillSteps set every position to 0, then to 1, undo that, set every
// position to −0, and then only the second half of each side's inputs
// to 1: whole-vector changes, including inputs equal to a zeroed
// buffer's.
func fillSteps(c, r int) []cacheStep {
	fill := func(v float64, keep func(i int) bool) cacheStep {
		var st cacheStep
		for i := 0; i < c+2*r; i++ {
			if !keep(i) {
				st.at, st.val = append(st.at, i), append(st.val, v)
			}
		}
		return st
	}
	none := func(int) bool { return false }
	return []cacheStep{
		fill(0, none), fill(1, none), {undo: true}, fill(math.Copysign(0, -1), none),
		fill(1, func(i int) bool { return i < c/2 || i >= c && i < c+r }),
	}
}

// assertCachedMatchesFresh checks one cached product against Field on
// the same kernel family from term 0, bit for bit with NaN payloads
// included (both run the same rounded operations), and against the
// two-pass kernel with NaN payloads aside. got is the cached product.
func assertCachedMatchesFresh(t testing.TB, b *Twin, f twinFamily, x, got []float64, label string) {
	t.Helper()
	want := make([]float64, len(got))
	for i := range want {
		want[i] = -7
	}
	b.familyField(f)(x, want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: spin %d: cached %v (%#x) != fresh %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	assertFieldMatchesTwoPass(t, b, func(_, out []float64) { copy(out, got) }, x, label+"/two-pass")
}

// seqRef is the reference products of one input vector of a cached
// sequence: the two-pass kernel's and each host family's fresh Field,
// each from a poisoned buffer.
type seqRef struct {
	x       []float64
	twoPass []float64
	fresh   map[string][]float64
}

// seqRefs computes the references of a cached sequence's inputs and
// keeps those of the two most recently used input vectors, so a step
// that repeats its inputs or undoes the change before it (most boundary
// and fill steps) reuses them: the kernels are deterministic, so a
// reused reference equals a recomputed one.
type seqRefs struct {
	b    *Twin
	fams map[string]twinFamily
	mru  []*seqRef
}

// get returns the references of x, computing them unless x matches a
// kept vector bit for bit.
func (m *seqRefs) get(x []float64) *seqRef {
	for k, ref := range m.mru {
		if firstBitDiff(ref.x, x, false) < 0 {
			copy(m.mru[1:k+1], m.mru[:k])
			m.mru[0] = ref
			return ref
		}
	}
	var ref *seqRef
	if len(m.mru) < 2 {
		n := m.b.N()
		ref = &seqRef{x: make([]float64, n), twoPass: make([]float64, n), fresh: map[string][]float64{}}
		for name := range m.fams {
			ref.fresh[name] = make([]float64, n)
		}
		m.mru = append(m.mru, nil)
	} else {
		ref = m.mru[len(m.mru)-1]
	}
	copy(m.mru[1:], m.mru)
	m.mru[0] = ref
	copy(ref.x, x)
	poisonVec(ref.twoPass, -7)
	m.b.fieldTwoPass(x, ref.twoPass)
	for name, f := range m.fams {
		poisonVec(ref.fresh[name], -7)
		m.b.familyField(f)(x, ref.fresh[name])
	}
	return ref
}

// reset drops every kept reference: Q has changed.
func (m *seqRefs) reset() { m.mru = m.mru[:0] }

// poisonVec sets every entry of v to p, so an output a kernel leaves
// unwritten shows up as a mismatch.
func poisonVec(v []float64, p float64) {
	for i := range v {
		v[i] = p
	}
}

// firstBitDiff returns the first index at which got and want differ bit
// for bit, or -1; with nanAside any two NaNs count as equal.
func firstBitDiff(got, want []float64, nanAside bool) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(nanAside && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// runCachedSequence drives one cache per host kernel family through
// steps on twin b from x (which it mutates), checking every product
// against Field on the same family from term 0, bit for bit with NaN
// payloads included (both run the same rounded operations), and against
// the two-pass kernel with NaN payloads aside. At step rewriteAt (when
// in range) it rewrites one column of Q, which must retag the caches
// rather than resume from the old coupling. A cached product writes
// every output: out starts poisoned before each call.
func runCachedSequence(t testing.TB, b *Twin, x []float64, steps []cacheStep, rewriteAt int, rng *rand.Rand, label string) {
	t.Helper()
	fams := hostFamilies()
	caches := make(map[string]*TwinCache, len(fams))
	for name := range fams {
		caches[name] = new(TwinCache)
	}
	refs := &seqRefs{b: b, fams: fams}
	out := make([]float64, b.N())
	var back cacheStep
	for s, step := range steps {
		if s == rewriteAt {
			col := make([]float64, b.c)
			for j := range col {
				col[j] = rng.NormFloat64()
			}
			b.SetColumn(rng.Intn(b.r), col)
			refs.reset()
		}
		if step.undo {
			step = back
		}
		back = mutateInputs(x, step)
		ref := refs.get(x)
		for name, f := range fams {
			poisonVec(out, 7)
			b.fieldResume(f, x, out, caches[name])
			if i := firstBitDiff(out, ref.fresh[name], false); i >= 0 {
				t.Fatalf("%s/%s/step %d: spin %d: cached %v (%#x) != fresh %v (%#x)", label, name, s,
					i, out[i], math.Float64bits(out[i]), ref.fresh[name][i], math.Float64bits(ref.fresh[name][i]))
			}
			if i := firstBitDiff(out, ref.twoPass, true); i >= 0 {
				t.Fatalf("%s/%s/step %d/two-pass: spin %d: cached %v (%#x) != two-pass %v (%#x)", label, name, s,
					i, out[i], math.Float64bits(out[i]), ref.twoPass[i], math.Float64bits(ref.twoPass[i]))
			}
		}
	}
}

// TestTwinFieldCachedSequences pins FieldCached's resume to a fresh
// product on every host kernel family: a random sequence of input
// changes (signed zeros, walls, NaN, ±Inf, Gaussians, or none) with a
// rewrite of Q halfway, then one change at a time at every checkpoint
// edge of both sides, each followed by a call that repeats its inputs
// exactly and one that undoes the change, then whole-vector fills. It
// runs the twinShapes shapes whose U row count sits at a 32-row panel
// edge, against every W column count (so every remainder of the 64-,
// 16- and 4-column blocks), and the Fig. 4 shape; the checkpoint-edge
// pass leaves out 127…129 columns, whose remainders 63…65 columns share
// with half the checkpoints. FuzzTwinFieldCached draws other shapes.
func TestTwinFieldCachedSequences(t *testing.T) {
	panelEdge := map[int]bool{1: true, 2: true, 3: true, 31: true, 32: true, 33: true,
		63: true, 64: true, 65: true, 95: true, 96: true, 97: true, 512: true}
	for _, s := range twinShapes() {
		c, r := s[0], s[1]
		if !panelEdge[c] {
			continue
		}
		b := randomTwinCoupler(c, r, int64(7*c+r))
		rng := rand.New(rand.NewSource(int64(c*r + 3)))
		x := specialVector(b.N(), rng, 0.2)
		label := fmt.Sprintf("%dx%d", c, r)
		runCachedSequence(t, b, x, randomSteps(b.N(), 12, rng), 6, rng, label+"/random")
		if r < 127 || c == 512 {
			runCachedSequence(t, b, x, boundarySteps(c, r), -1, rng, label+"/boundary")
		}
		runCachedSequence(t, b, x, fillSteps(c, r), -1, rng, label+"/fill")
	}
}

// TestTwinFieldCachedSkipsNonFinite: a non-finite block runs the
// two-pass kernel and leaves the cache untouched, and once the block is
// finite again the cache, tagged with an older content, refills instead
// of resuming.
func TestTwinFieldCachedSkipsNonFinite(t *testing.T) {
	c, r := 70, 40
	b := randomTwinCoupler(c, r, 5)
	rng := rand.New(rand.NewSource(6))
	x := specialVector(b.N(), rng, 0.3)
	x[3] = 0
	var tc TwinCache
	out := make([]float64, b.N())
	b.FieldCached(x, out, &tc)
	gen := tc.gen
	col := make([]float64, c)
	for j := range col {
		col[j] = b.q[j*r+2]
	}
	saved := col[3]
	col[3] = math.Inf(1)
	b.SetColumn(2, col)
	b.FieldCached(x, out, &tc)
	assertFieldMatchesTwoPass(t, b, func(_, o []float64) { copy(o, out) }, x, "non-finite")
	if tc.gen != gen {
		t.Fatal("a non-finite product touched the cache")
	}
	col[3] = saved
	b.SetColumn(2, col)
	b.FieldCached(x, out, &tc)
	assertCachedMatchesFresh(t, b, hostFamily(), x, out, "finite again")
	if tc.gen != b.gen {
		t.Fatal("the cache was not retagged with the rewritten block")
	}
}

// TestTwinFieldCachedMovesBetweenTwins: one cache serving two twins of
// different shapes in turn refills on every switch.
func TestTwinFieldCachedMovesBetweenTwins(t *testing.T) {
	a, b := randomTwinCoupler(64, 33, 1), randomTwinCoupler(40, 70, 2)
	rng := rand.New(rand.NewSource(3))
	xa, xb := specialVector(a.N(), rng, 0.5), specialVector(b.N(), rng, 0.5)
	var tc TwinCache
	for round := 0; round < 3; round++ {
		for _, tw := range []struct {
			t *Twin
			x []float64
		}{{a, xa}, {b, xb}} {
			out := make([]float64, tw.t.N())
			tw.t.FieldCached(tw.x, out, &tc)
			assertCachedMatchesFresh(t, tw.t, hostFamily(), tw.x, out, fmt.Sprintf("round %d %dx%d", round, tw.t.c, tw.t.r))
		}
	}
}

// TestFieldBatchCachedMatchesFieldBatch: the lane-cached batch product
// equals FieldBatch lane by lane across a sequence of changes, and
// falls back to FieldBatch on other couplers and with nil caches.
func TestFieldBatchCachedMatchesFieldBatch(t *testing.T) {
	b := randomTwinCoupler(96, 64, 8)
	n, lanes := b.N(), 3
	rng := rand.New(rand.NewSource(9))
	x := specialVector(n*lanes, rng, 0.5)
	caches := make([]TwinCache, lanes)
	got, want := make([]float64, n*lanes), make([]float64, n*lanes)
	var back cacheStep
	for _, step := range randomSteps(n*lanes, 20, rng) {
		if step.undo {
			step = back
		}
		back = mutateInputs(x, step)
		FieldBatchCached(b, x, got, lanes, caches)
		FieldBatch(b, x, want, lanes)
		assertSameBits(t, got, want, "twin lanes")
	}
	d := b.ToDense()
	FieldBatchCached(d, x, got, lanes, caches)
	FieldBatch(d, x, want, lanes)
	assertSameBits(t, got, want, "dense")
	FieldBatchCached(b, x, got, lanes, nil)
	FieldBatch(b, x, want, lanes)
	assertSameBits(t, got, want, "nil caches")
}

// assertSameBits compares two vectors bit for bit.
func assertSameBits(t testing.TB, got, want []float64, label string) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestTwinCacheReserveAllocFree: a reserved cache serves products on its
// twin without allocating, whether the inputs change or repeat.
func TestTwinCacheReserveAllocFree(t *testing.T) {
	b := randomTwinCoupler(512, 128, 4)
	var tc TwinCache
	tc.Reserve(b)
	x := randomBlock(b.N(), 1, 5, 0.1)
	out := make([]float64, b.N())
	i := 0
	if allocs := testing.AllocsPerRun(20, func() {
		x[i%len(x)] = float64(i % 3)
		i++
		b.FieldCached(x, out, &tc)
	}); allocs != 0 {
		t.Fatalf("FieldCached allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzTwinFieldCached is FuzzBipartiteField's sequence mode: on random
// twin shapes (c mod 32 and r mod 64, 16 and 4 all reached), one cache
// per host kernel family follows a random sequence of input changes —
// ±0, ±1, NaN, ±Inf, Gaussians, or none — with Q rewritten at step
// rewrite (when below the step count), and every cached product must
// equal a fresh Field on its family bit for bit and the two-pass kernel
// with NaN payloads aside.
func FuzzTwinFieldCached(f *testing.F) {
	f.Add(uint8(3), uint8(7), int64(1), uint8(30), uint8(5), uint8(2))
	f.Add(uint8(69), uint8(40), int64(2), uint8(50), uint8(12), uint8(6))
	f.Add(uint8(96), uint8(128), int64(3), uint8(90), uint8(10), uint8(255))
	f.Add(uint8(33), uint8(65), int64(4), uint8(100), uint8(16), uint8(0))
	f.Fuzz(func(t *testing.T, cRaw, rRaw uint8, seed int64, specialPct, count, rewrite uint8) {
		c, r := 1+int(cRaw)%100, 1+int(rRaw)%130
		rng := rand.New(rand.NewSource(seed))
		b := NewTwin(c, r)
		col := make([]float64, c)
		for i := 0; i < r; i++ {
			for j := range col {
				col[j] = 0
				if rng.Intn(5) != 0 {
					col[j] = rng.NormFloat64()
				}
			}
			b.SetColumn(i, col)
		}
		x := specialVector(b.N(), rng, float64(specialPct%101)/100)
		steps := randomSteps(b.N(), 1+int(count)%24, rng)
		runCachedSequence(t, b, x, steps, int(rewrite), rng, fmt.Sprintf("%dx%d seed=%d", c, r, seed))
	})
}

// TestTwinFrobeniusExactPathMatchesChain pins FrobeniusNorm's exact
// path to the one-chain sum bit for bit: on blocks of small integers
// times 2^-18 (the uniform distribution's q at n = 16) the exact path
// must be taken, on multiples of 0.1 and on Gaussians it must decline,
// and on a block with a subnormal grain, one whose squares overflow, a
// non-finite one and an all-zero one the norm must still equal the
// chain's.
func TestTwinFrobeniusExactPathMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fill := func(c, r int, draw func() float64) *Twin {
		b := NewTwin(c, r)
		col := make([]float64, c)
		for i := 0; i < r; i++ {
			for j := range col {
				col[j] = draw()
			}
			b.SetColumn(i, col)
		}
		return b
	}
	cases := []struct {
		name  string
		b     *Twin
		exact bool
	}{
		{"uniform", fill(512, 128, func() float64 { return float64(rng.Intn(1<<16)-1<<15) * 0x1p-18 }), true},
		{"uniform-odd", fill(37, 29, func() float64 { return float64(rng.Intn(9)-4) * 0x1p-9 }), true},
		{"decimal", fill(70, 33, func() float64 { return float64(rng.Intn(41)-20) * 0.1 }), false},
		{"gaussian", fill(64, 64, rng.NormFloat64), false},
		{"subnormal", fill(8, 5, func() float64 { return float64(rng.Intn(5)) * 0x1p-1070 }), false},
		{"huge", fill(8, 5, func() float64 { return float64(rng.Intn(5)+1) * 0x1p600 }), false},
		{"zero", NewTwin(9, 4), true},
	}
	inf := fill(6, 3, rng.NormFloat64)
	col := make([]float64, 6)
	col[2] = math.Inf(-1)
	inf.SetColumn(1, col)
	cases = append(cases, struct {
		name  string
		b     *Twin
		exact bool
	}{"non-finite", inf, false})
	for _, tc := range cases {
		_, ok := tc.b.exactSquareSum()
		if ok != tc.exact {
			t.Errorf("%s: exact path taken = %v, want %v", tc.name, ok, tc.exact)
		}
		got, want := tc.b.FrobeniusNorm(), math.Sqrt(tc.b.frobeniusChain())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: FrobeniusNorm %v (%#x) != chain %v (%#x)", tc.name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

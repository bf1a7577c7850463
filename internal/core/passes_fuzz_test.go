package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isinglut/internal/bitvec"
	"isinglut/internal/decomp"
	"isinglut/internal/errmetric"
	"isinglut/internal/ising"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// FuzzDecompositionPasses pins every word-parallel pass of a
// decomposition outside the SB loop to the bit-serial loop it replaced
// (passes_ref_test.go), bit for bit: the joint-COP build (fresh and into
// a recycled COP), Formulate (fresh, into a recycled twin, and on the
// costs scaled by a power of two, which takes their grains below, and
// their masses past, the range where theorem3Bound is 0), SettingCost,
// the column and row settings' ApproxTable, Recompose, Decomposable,
// Evaluate and ComponentER. Inputs: n ≤ 12 inputs, m ≤ 63 outputs (past 53 the joint
// build takes its float loop), disjoint and overlapping partitions
// (cells no input reaches) and no, uniform or weighted distributions;
// the approximation differs from the exact table on a fuzzed share of
// its bits.
func FuzzDecompositionPasses(f *testing.F) {
	for i, m := range []uint8{1, 3, 7, 16, 40, 53, 54, 63} {
		for _, n := range []uint8{2, 5, 6, 9, 12} {
			f.Add(int64(i)*31+int64(n), n, m, uint8(i+int(n)), uint8(i%3), uint8(i+int(n))%3, uint8(40*i))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, freeRaw, overlapRaw, distRaw, flipRaw uint8) {
		n := 2 + int(nRaw)%11
		m := 1 + int(mRaw)%63
		free := 1 + int(freeRaw)%(n-1)
		rng := rand.New(rand.NewSource(seed))
		var part *partition.Partition
		if overlap := int(overlapRaw) % (free + 1); overlap == 0 {
			part = partition.Random(n, free, rng)
		} else {
			part = partition.RandomOverlap(n, free, overlap, rng)
		}
		var dist prob.Distribution
		switch distRaw % 3 {
		case 1:
			dist = prob.NewUniform(n)
		case 2:
			dist = prob.RandomWeighted(n, rng)
		}
		exact := truthtable.Random(n, m, rng)
		approx := exact.Clone()
		flip := float64(flipRaw) / 255
		for x := uint64(0); x < exact.Size(); x++ {
			for k := 0; k < m; k++ {
				if rng.Float64() < flip {
					approx.SetBit(k, x, exact.Bit(k, x) == 0)
				}
			}
		}
		label := fmt.Sprintf("n=%d m=%d %v dist=%T", n, m, part, dist)
		checkPasses(t, label, rng, part, exact, approx, dist)
	})
}

func checkPasses(t *testing.T, label string, rng *rand.Rand, part *partition.Partition, exact, approx *truthtable.Table, dist prob.Distribution) {
	t.Helper()
	m := exact.NumOutputs()
	k := rng.Intn(m)
	want := jointCOPRef(part, k, exact, approx, dist)
	sameCosts(t, label+" NewJointCOP", NewJointCOP(part, k, exact, approx, dist), want)
	// A recycled COP holds NaN in every cell until ResetJoint overwrites
	// them all.
	recycled := NewJointCOP(part, (k+1)%m, exact, exact, dist)
	for i := range recycled.Cost0 {
		recycled.Cost0[i], recycled.Cost1[i] = math.NaN(), math.NaN()
	}
	sameCosts(t, label+" ResetJoint", recycled.ResetJoint(part, k, exact, approx, dist), want)

	wantForm := formulateRef(want)
	sameFormulation(t, label+" Formulate", Formulate(want), wantForm, rng)
	coup := Formulate(jointCOPRef(part, (k+1)%m, approx, exact, dist)).Problem.Coup.(*ising.Twin)
	sameFormulation(t, label+" formulateInto", formulateInto(want, coup), wantForm, rng)

	// The same costs scaled by a power of two: grains far below and far
	// above those of the uniform distribution, subnormal costs, and costs
	// whose mass overflows.
	scale := []int{-1074, -1040, -600, 0, 30, 1000}[rng.Intn(6)]
	scaled := &COP{Part: part, R: want.R, C: want.C, Cost0: make([]float64, len(want.Cost0)), Cost1: make([]float64, len(want.Cost1))}
	for i := range want.Cost0 {
		scaled.Cost0[i] = math.Ldexp(want.Cost0[i], scale)
		scaled.Cost1[i] = math.Ldexp(want.Cost1[i], scale)
	}
	sameFormulation(t, fmt.Sprintf("%s Formulate scaled by 2^%d", label, scale), Formulate(scaled), formulateRef(scaled), rng)

	s := RandomSetting(want, rng)
	if got, w := want.SettingCost(s), settingCostRef(want, s); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("%s: SettingCost %v, reference %v", label, got, w)
	}
	if !s.ApproxTable().Equal(colTableRef(part, s.T, s.V1, s.V2)) {
		t.Fatalf("%s: ColSetting.ApproxTable differs from the reference", label)
	}
	d := s.Synthesize()
	if !d.Recompose().Equal(colTableRef(part, d.Phi, d.F0, d.F1)) {
		t.Fatalf("%s: Recompose differs from the reference", label)
	}
	rs := &decomp.RowSetting{Part: part, V: s.T, S: make([]decomp.RowType, part.Rows())}
	for i := range rs.S {
		rs.S[i] = decomp.RowType(rng.Intn(4))
	}
	if !rs.ApproxTable().Equal(rowTableRef(rs)) {
		t.Fatalf("%s: RowSetting.ApproxTable differs from the reference", label)
	}
	if part.Disjoint() {
		// One decomposable table, one that almost never is, and the
		// decomposable one with a single bit flipped.
		dec := s.ApproxTable()
		near := dec.Clone()
		near.Flip(rng.Intn(near.Len()))
		for name, tt := range map[string]*bitvec.Vector{"decomposable": dec, "random": exact.Component(k), "one flip": near} {
			if got, w := decomp.Decomposable(tt, part), decomposableRef(tt, part); got != w {
				t.Fatalf("%s: Decomposable(%s) = %v, reference %v", label, name, got, w)
			}
		}
	}

	got, w := errmetric.MustEvaluate(exact, approx, dist), evaluateRef(exact, approx, dist)
	same := math.Float64bits(got.ER) == math.Float64bits(w.ER) &&
		math.Float64bits(got.MED) == math.Float64bits(w.MED) && got.WorstED == w.WorstED
	for c := range w.BitER {
		same = same && math.Float64bits(got.BitER[c]) == math.Float64bits(w.BitER[c])
	}
	if !same {
		t.Fatalf("%s: Evaluate %+v, reference %+v", label, got, w)
	}
	for c := 0; c < m; c++ {
		if got, w := errmetric.ComponentER(exact, approx, c, dist), componentERRef(exact, approx, c, dist); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: ComponentER(%d) = %v, reference %v", label, c, got, w)
		}
	}
}

func sameCosts(t *testing.T, label string, got, want *COP) {
	t.Helper()
	if got.R != want.R || got.C != want.C || len(got.Cost0) != len(want.Cost0) || len(got.Cost1) != len(want.Cost1) {
		t.Fatalf("%s: shape %dx%d, reference %dx%d", label, got.R, got.C, want.R, want.C)
	}
	for idx := range want.Cost0 {
		if math.Float64bits(got.Cost0[idx]) != math.Float64bits(want.Cost0[idx]) ||
			math.Float64bits(got.Cost1[idx]) != math.Float64bits(want.Cost1[idx]) {
			t.Fatalf("%s: cell %d costs (%v, %v), reference (%v, %v)", label, idx,
				got.Cost0[idx], got.Cost1[idx], want.Cost0[idx], want.Cost1[idx])
		}
	}
}

// sameFormulation compares the biases, offset, Theorem-3 bounds and every
// coupling bit for bit, and the two twins' Field and FieldU products on
// a random vector, which read Q through both of its layouts.
func sameFormulation(t *testing.T, label string, got, want *Formulation, rng *rand.Rand) {
	t.Helper()
	gp, wp := got.Problem, want.Problem
	if math.Float64bits(gp.Offset) != math.Float64bits(wp.Offset) {
		t.Fatalf("%s: offset %v, reference %v", label, gp.Offset, wp.Offset)
	}
	for i := range wp.H {
		if math.Float64bits(gp.H[i]) != math.Float64bits(wp.H[i]) {
			t.Fatalf("%s: h[%d] = %v, reference %v", label, i, gp.H[i], wp.H[i])
		}
	}
	for j := range want.tBound {
		if math.Float64bits(got.tBound[j]) != math.Float64bits(want.tBound[j]) {
			t.Fatalf("%s: bound %d = %v, reference %v", label, j, got.tBound[j], want.tBound[j])
		}
	}
	n, c := wp.N(), want.COP.C
	for i := 0; i < c; i++ { // a twin couples only U (i < c) to W
		for j := c; j < n; j++ {
			if math.Float64bits(gp.Coup.At(i, j)) != math.Float64bits(wp.Coup.At(i, j)) {
				t.Fatalf("%s: J[%d][%d] = %v, reference %v", label, i, j, gp.Coup.At(i, j), wp.Coup.At(i, j))
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	gf, wf := make([]float64, n), make([]float64, n)
	gp.Coup.Field(x, gf)
	wp.Coup.Field(x, wf)
	gu, wu := make([]float64, got.COP.C), make([]float64, got.COP.C)
	gp.Coup.(*ising.Twin).FieldU(x, gu)
	wp.Coup.(*ising.Twin).FieldU(x, wu)
	for i := range wf {
		if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
			t.Fatalf("%s: field[%d] = %v, reference %v", label, i, gf[i], wf[i])
		}
	}
	for j := range wu {
		if math.Float64bits(gu[j]) != math.Float64bits(wu[j]) {
			t.Fatalf("%s: U field[%d] = %v, reference %v", label, j, gu[j], wu[j])
		}
	}
}

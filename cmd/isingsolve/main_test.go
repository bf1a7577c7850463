package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"isinglut"
	"isinglut/internal/fault"
)

func TestLoadProblemJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	data := `{
		"n": 3,
		"couplings": [
			{"i": 0, "j": 1, "value": -1.0},
			{"i": 1, "j": 2, "value": 0.5}
		],
		"biases": [0.25, 0, -0.25]
	}`
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	p, err := loadProblem(path, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 {
		t.Fatalf("N = %d", p.N())
	}
	// E(+,+,+) = -(0.25 + 0 - 0.25) - ((-1) + 0.5) = 0.5
	if got := p.Energy([]int8{1, 1, 1}); got != 0.5 {
		t.Fatalf("Energy = %g, want 0.5", got)
	}
}

func TestLoadProblemErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"badjson":  `{`,
		"zeron":    `{"n": 0}`,
		"badedge":  `{"n": 2, "couplings": [{"i": 0, "j": 2, "value": 1}]}`,
		"selfedge": `{"n": 2, "couplings": [{"i": 1, "j": 1, "value": 1}]}`,
		"badbias":  `{"n": 2, "biases": [1]}`,
	}
	for name, data := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := loadProblem(path, "", 0, 0); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loadProblem("", "", 0, 0); err == nil {
		t.Error("missing input accepted")
	}
	if _, err := loadProblem("/nonexistent/file.json", "", 0, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestDemoProblems(t *testing.T) {
	ring, err := demoProblem("ring", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ring.N() != 7 {
		t.Fatalf("ring N = %d", ring.N())
	}
	glass, err := demoProblem("spinglass", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if glass.N() != 6 {
		t.Fatalf("spinglass N = %d", glass.N())
	}
	if _, err := demoProblem("nope", 5, 0); err == nil {
		t.Error("unknown demo accepted")
	}
	if _, err := demoProblem("ring", 1, 0); err == nil {
		t.Error("tiny demo accepted")
	}
}

func TestDemoDeterministic(t *testing.T) {
	a, _ := demoProblem("spinglass", 5, 7)
	b, _ := demoProblem("spinglass", 5, 7)
	spins := []int8{1, -1, 1, -1, 1}
	if a.Energy(spins) != b.Energy(spins) {
		t.Fatal("same seed produced different demo problems")
	}
}

// quantFlagOpts are the SBOptions the -quant -solver dsb flags produce.
var quantFlagOpts = isinglut.SBOptions{Variant: isinglut.DiscreteSB, Steps: 300, Seed: 3, Quantize: true}

// TestBitpackFlagOptions checks that -quant on a dense demo spin glass
// runs the bit-plane popcount kernels, which the instance picks with no
// flag of its own, and that the result is bit-identical to the scalar
// quantized kernels the ising.bitpack.pack failpoint forces.
func TestBitpackFlagOptions(t *testing.T) {
	glass, err := demoProblem("spinglass", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := isinglut.SolveIsing(glass, quantFlagOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !packed.Quantized || !packed.BitPacked {
		t.Fatalf("-quant -solver dsb on a dense instance: quantized=%v bitpacked=%v, want both",
			packed.Quantized, packed.BitPacked)
	}
	defer fault.DisarmAll()
	fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
	scalar, err := isinglut.SolveIsing(glass, quantFlagOpts)
	fault.DisarmAll()
	if err != nil {
		t.Fatal(err)
	}
	if scalar.BitPacked || !scalar.Quantized {
		t.Fatalf("forced scalar run: quantized=%v bitpacked=%v", scalar.Quantized, scalar.BitPacked)
	}
	if math.Float64bits(packed.Energy) != math.Float64bits(scalar.Energy) {
		t.Fatalf("bit-plane energy %v differs from scalar quantized energy %v", packed.Energy, scalar.Energy)
	}
	for i := range scalar.Spins {
		if packed.Spins[i] != scalar.Spins[i] {
			t.Fatalf("bit-plane spin %d differs from the scalar quantized run", i)
		}
	}
}

// TestSparseQuantFlagOptions checks that -quant on a sparse demo ring
// runs the CSR coupler with the scalar quantized kernels, and that
// -quant with a non-dsb solver surfaces as an error.
func TestSparseQuantFlagOptions(t *testing.T) {
	ring, err := demoProblem("ring", 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := isinglut.SolveIsing(ring, quantFlagOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quantized || res.BitPacked {
		t.Fatalf("-quant on a sparse ring: quantized=%v bitpacked=%v, want the scalar kernels",
			res.Quantized, res.BitPacked)
	}
	if len(res.Spins) != 32 {
		t.Fatalf("got %d spins, want 32", len(res.Spins))
	}
	// -quant with the default bsb solver must be rejected, not ignored.
	if _, err := isinglut.SolveIsing(ring, isinglut.SBOptions{Quantize: true}); err == nil {
		t.Fatal("-quant without -solver dsb accepted")
	}
}

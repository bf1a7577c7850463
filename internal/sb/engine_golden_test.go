package sb

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"isinglut/internal/fault"
	"isinglut/internal/ising"
	"isinglut/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/engine.golden instead of comparing against it")

// goldenProblem is a biased, half-dense 40-spin instance: dense enough
// that its CSR copy passes the bit-plane heuristic, sparse enough that
// the CSR walk differs from the dense one.
func goldenProblem() *ising.Problem { return biasedHalfDense(40, 17) }

// goldenTailProblem is the same recipe at 43 spins: n mod 4 = 3, so a
// four-wide step kernel leaves a three-spin tail on every lane.
func goldenTailProblem() *ising.Problem { return biasedHalfDense(43, 23) }

// biasedHalfDense draws an n-spin instance from seed: each coupling is
// present with probability 1/2 and standard normal, each bias normal
// with standard deviation 0.3.
func biasedHalfDense(n int, seed int64) *ising.Problem {
	rng := rand.New(rand.NewSource(seed))
	d := ising.NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.5 {
				d.Set(i, j, rng.NormFloat64())
			}
		}
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = rng.NormFloat64() * 0.3
	}
	p, err := ising.NewProblem(d, h, 0)
	if err != nil {
		panic(err)
	}
	return p
}

// stateDigest is a read-only OnSample hook that hashes the bit patterns
// of x and y at every sample point. The rounded outcomes the other rows
// record are blind to drift below the rounding: the walls zero x and y,
// so a perturbation of the last bit dies out before any sign or energy
// sees it. The per-call FNV-1a digests are summed, so the total does not
// depend on the order in which the engine visits lanes.
type stateDigest struct {
	sum   uint64
	calls int
}

func (d *stateDigest) hook(iter int, x, y []float64) {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(iter))
	for _, v := range x {
		put(math.Float64bits(v))
	}
	for _, v := range y {
		put(math.Float64bits(v))
	}
	d.sum += h.Sum64()
	d.calls++
}

// steerHook is a deterministic, stateless OnSample hook: it clamps
// spins 0 and 1 to ±1 with zero momentum and flips the sign of one
// further spin chosen by the iteration, so under dSB the hook changes
// the sign vector the next step's field product reads.
func steerHook(iter int, x, y []float64) {
	for i := 0; i < 2; i++ {
		if x[i] >= 0 {
			x[i] = 1
		} else {
			x[i] = -1
		}
		y[i] = 0
	}
	k := 2 + iter%(len(x)-2)
	if x[k] >= 0 {
		x[k] = -0.5
	} else {
		x[k] = 0.5
	}
	y[k] = 0
}

// floatHash is the FNV-1a digest of a float64 slice's bit patterns.
func floatHash(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// spinDigest is the FNV-1a digest of a ±1 spin vector.
func spinDigest(spins []int8) uint64 {
	h := fnv.New64a()
	for _, s := range spins {
		h.Write([]byte{byte(s)})
	}
	return h.Sum64()
}

// engineRow runs one golden case and formats it: r = 1 through
// SolveWith, r > 1 through SolveBatch.
func engineRow(ctx context.Context, p *ising.Problem, params Params, r int) string {
	var res Result
	var st Stats
	if r == 1 {
		res = SolveWith(ctx, p, params, NewWorkspace(p.N()))
		st = Stats{
			Launched: 1, BestReplica: 0,
			Energies: []float64{res.Energy}, Iterations: []int{res.Iterations},
			Stopped: []metrics.StopReason{res.Stopped}, Diverged: []bool{res.Diverged}, Rescued: []bool{res.Rescued},
		}
	} else {
		res, st = SolveBatch(ctx, p, BatchParams{Base: params, Replicas: r})
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "best=%d launched=%d energy=%016x iters=%d samples=%d stop=%v quant=%v bitpack=%v spins=%016x trace=%d/%016x |",
		st.BestReplica, st.Launched, math.Float64bits(res.Energy), res.Iterations, res.Samples, res.Stopped,
		res.Quantized, res.BitPacked, spinDigest(res.Spins), len(res.Trace), floatHash(res.Trace))
	for k := range st.Energies {
		fmt.Fprintf(&b, " %016x/%d/%v", math.Float64bits(st.Energies[k]), st.Iterations[k], st.Stopped[k])
		if st.Diverged[k] {
			b.WriteString("/div")
		}
		if st.Rescued[k] {
			b.WriteString("/res")
		}
	}
	return b.String()
}

// TestEngineTrajectoryGolden pins the SB engine's trajectories bit for
// bit: a biased dense problem and its CSR copy under bSB, aSB, dSB,
// quantized dSB on the scalar integer kernels (the ising.bitpack.pack
// failpoint holds it off the bit-planes) and quantized dSB on the
// bit-planes the instance picks, at 1 and 3 replicas, without a stop
// and under two loose dynamic stops that retire some lanes early; then
// trace recording, a steering OnSample hook, keyed divergence with the
// rescue on (one poisoned sample, and a poison on every sample), and a
// pre-cancelled context, each at 1 and 3 replicas and at two sampling
// cadences. Every row records the
// winner's energy bits, iterations, samples, stop reason, kernel flags,
// spin and trace digests, and each replica's energy bits, iterations,
// stop reason and divergence flags. The file was generated by the
// two-engine code (scalar SolveWith, goroutine and fused batches) and
// pins the lane engine to it. The closing state rows hash every sampled
// x and y bit (stateDigest) under bSB, aSB and dSB on the 40-spin
// problem and a 43-spin one; they were generated by the scalar Go step
// loops and pin the step kernels to them. Regenerate only for an
// intended change in the dynamics:
//
//	go test ./internal/sb -run EngineTrajectoryGolden -update
//
// Each row is checked with the step body the CPU probe picks and again
// with the Go body forced.
func TestEngineTrajectoryGolden(t *testing.T) {
	t.Run("probe", checkEngineGolden)
	t.Run("go", func(t *testing.T) {
		defer forceGoStep()()
		checkEngineGolden(t)
	})
}

func checkEngineGolden(t *testing.T) {
	defer fault.DisarmAll()
	dense := goldenProblem()
	csr, err := ising.NewProblem(ising.NewSparseFromDense(dense.Coup.(*ising.Dense)), dense.H, 0)
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name string
		p    *ising.Problem
	}{{"dense", dense}, {"csr", csr}}
	variants := []struct {
		name          string
		v             Variant
		quant, scalar bool
	}{
		{"bSB", Ballistic, false, false},
		{"aSB", Adiabatic, false, false},
		{"dSB", Discrete, false, false},
		{"dSB+quant", Discrete, true, true},
		{"dSB+bitpack", Discrete, true, false},
	}
	stops := []struct {
		name string
		stop *StopCriteria
	}{
		{"nostop", nil},
		{"loose", &StopCriteria{F: 5, S: 4, Epsilon: 3e-2}},
		// Looser still, with a short burn-in: under bSB and aSB replica 0
		// retires while replica 1 keeps running, so lane 0's slot takes
		// over a running lane (and the stop check's field with it).
		{"staggered", &StopCriteria{F: 3, S: 4, Epsilon: 3e-1, MinIters: 10}},
	}
	// params builds a row's parameters; a scalar row also arms the
	// packer failpoint, which the row's fault.DisarmAll clears.
	params := func(v Variant, quant, scalar bool) Params {
		pr := DefaultParamsFor(v)
		pr.Steps = 240
		pr.Seed = 7
		pr.Quantize = quant
		if scalar {
			fault.MustArm("ising.bitpack.pack", fault.Scenario{Times: -1})
		}
		return pr
	}
	var buf bytes.Buffer
	for _, pc := range problems {
		for _, vc := range variants {
			for _, sc := range stops {
				for _, r := range []int{1, 3} {
					pr := params(vc.v, vc.quant, vc.scalar)
					pr.Stop = sc.stop
					fmt.Fprintf(&buf, "%s %s %s r=%d %s\n", pc.name, vc.name, sc.name, r,
						engineRow(context.Background(), pc.p, pr, r))
					fault.DisarmAll()
				}
			}
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		mod  func(pr *Params, r int)
		ctx  context.Context
	}{
		{"trace", func(pr *Params, _ int) { pr.RecordTrace = true }, context.Background()},
		{"steer", func(pr *Params, _ int) { pr.OnSample = steerHook }, context.Background()},
		{"rescue-once", func(pr *Params, r int) {
			pr.RescueDiverged = true
			fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{pr.Seed + int64(r-1)}})
		}, context.Background()},
		{"rescue-every", func(pr *Params, r int) {
			pr.RescueDiverged = true
			fault.MustArm("sb.diverge", fault.Scenario{Keys: []int64{pr.Seed + int64(r-1)}, Times: -1})
		}, context.Background()},
		{"precancelled", func(*Params, int) {}, cancelled},
	}
	// Sampling every 35 steps leaves both the 240-step budget and most
	// stop checks off the sampling cadence, so a retiring replica takes a
	// final sample (hook and trace included).
	for _, c := range cases {
		for _, vc := range variants {
			for _, every := range []int{15, 35} {
				for _, r := range []int{1, 3} {
					pr := params(vc.v, vc.quant, vc.scalar)
					pr.Stop = stops[1].stop
					pr.SampleEvery = every
					c.mod(&pr, r)
					fmt.Fprintf(&buf, "dense %s %s every=%d r=%d %s\n", vc.name, c.name, every, r,
						engineRow(c.ctx, dense, pr, r))
					fault.DisarmAll()
				}
			}
		}
	}

	for _, pc := range []struct {
		name string
		p    *ising.Problem
	}{{"dense", dense}, {"tail43", goldenTailProblem()}} {
		for _, vc := range variants[:3] {
			for _, sc := range []int{0, 2} {
				for _, r := range []int{1, 3} {
					var d stateDigest
					pr := params(vc.v, false, false)
					pr.Stop = stops[sc].stop
					pr.SampleEvery = 5
					pr.OnSample = d.hook
					row := engineRow(context.Background(), pc.p, pr, r)
					fmt.Fprintf(&buf, "%s %s %s state r=%d calls=%d x/y=%016x %s\n", pc.name, vc.name, stops[sc].name, r,
						d.calls, d.sum, row)
				}
			}
		}
	}

	path := filepath.Join("testdata", "engine.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/sb -run EngineTrajectoryGolden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("engine trajectories drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}

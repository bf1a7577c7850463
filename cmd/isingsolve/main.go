// Command isingsolve is a standalone Ising ground-state search tool over
// the repository's solver stack (ballistic/adiabatic/discrete simulated
// bifurcation and simulated annealing).
//
// Problems are JSON files:
//
//	{
//	  "n": 5,
//	  "couplings": [ {"i": 0, "j": 1, "value": -1.0}, ... ],
//	  "biases":    [ 0.5, 0, 0, 0, -0.5 ]
//	}
//
// encoding E(s) = -sum_i h_i s_i - 1/2 sum_ij J_ij s_i s_j. Usage:
//
//	isingsolve -in problem.json -solver bsb -steps 2000 -stop
//	isingsolve -in problem.json -replicas 8              # lock-step replica batch, best kept
//	isingsolve -demo ring -demo-n 11 -solver sa
//	isingsolve -in big.json -shard -max-shard 256        # shard-and-exchange decomposition
//
// The -demo flag generates built-in instances (ring: antiferromagnetic
// cycle; spinglass: Gaussian couplings) instead of reading a file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof/* and /debug/vars
	"os"
	"os/signal"
	"time"

	"isinglut"
	"isinglut/internal/metrics"
	"isinglut/internal/trace"
)

type problemJSON struct {
	N         int            `json:"n"`
	Couplings []couplingJSON `json:"couplings"`
	Biases    []float64      `json:"biases,omitempty"`
}

type couplingJSON struct {
	I     int     `json:"i"`
	J     int     `json:"j"`
	Value float64 `json:"value"`
}

func main() {
	var (
		in       = flag.String("in", "", "JSON problem file")
		demo     = flag.String("demo", "", "built-in instance: ring, spinglass")
		demoN    = flag.Int("demo-n", 11, "demo instance size")
		solver   = flag.String("solver", "bsb", "solver: bsb, asb, dsb, sa")
		steps    = flag.Int("steps", 2000, "SB iterations / SA sweeps")
		dt       = flag.Float64("dt", 0, "SB time step (0 = variant default)")
		seed     = flag.Int64("seed", 1, "random seed")
		replicas = flag.Int("replicas", 1, "SB replicas: independent trajectories, best kept")
		workers  = flag.Int("workers", 0, "concurrent shard sub-solves with -shard (0 = GOMAXPROCS)")
		rescue   = flag.Bool("rescue", false, "re-seed a diverged trajectory once with a halved dt instead of quarantining it")
		quant    = flag.Bool("quant", false, "int8/int16 fixed-point dSB field kernels (quantize J once, integer or bit-plane popcount accumulate); requires -solver dsb")
		shard    = flag.Bool("shard", false, "decompose the instance into coupled subproblems (shard-and-exchange) instead of solving it whole; incompatible with -tracecsv")
		maxShard = flag.Int("max-shard", 256, "largest subproblem size under -shard")
		shardRnd = flag.Int("shard-rounds", 0, "exchange rounds under -shard (0 = solver default)")
		stop     = flag.Bool("stop", false, "enable the dynamic stop criterion")
		fIter    = flag.Int("f", 20, "dynamic stop: sample every f iterations")
		sWin     = flag.Int("s", 20, "dynamic stop: variance window size")
		eps      = flag.Float64("eps", 1e-8, "dynamic stop: variance threshold")
		tStart   = flag.Float64("tstart", 2.0, "SA start temperature")
		tEnd     = flag.Float64("tend", 1e-3, "SA end temperature")
		csv      = flag.String("tracecsv", "", "write the sampled energy trace as CSV to this file (SB only)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry the solver returns its best-so-far state (0 = no limit)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar (incl. isinglut.metrics) on this address, e.g. localhost:6060")
		showMet  = flag.Bool("metrics", false, "print the metrics registry (solver, service and shard sets) to stderr on exit")
	)
	flag.Parse()

	ctx, cancel := rootContext(*timeout)
	defer cancel()
	servePprof(*pprof)
	if *showMet {
		defer metrics.Render(os.Stderr)
	}

	prob, err := loadProblem(*in, *demo, *demoN, *seed)
	if err != nil {
		fatal(err)
	}

	switch *solver {
	case "sa":
		res, err := isinglut.AnnealIsingContext(ctx, prob, *steps, *tStart, *tEnd, *seed)
		if err != nil {
			fatal(err)
		}
		report("sa", res)
	case "bsb", "asb", "dsb":
		variant := isinglut.BallisticSB
		switch *solver {
		case "asb":
			variant = isinglut.AdiabaticSB
		case "dsb":
			variant = isinglut.DiscreteSB
		}
		opts := isinglut.SBOptions{
			Variant:  variant,
			Steps:    *steps,
			Dt:       *dt,
			Seed:     *seed,
			Trace:    *csv != "",
			Replicas: *replicas,
			Workers:  *workers,
			Rescue:   *rescue,
			Quantize: *quant,
		}
		if *stop {
			opts.DynamicStop = true
			opts.F = *fIter
			opts.S = *sWin
			opts.Epsilon = *eps
		}
		if *shard {
			if *csv != "" {
				fatal(fmt.Errorf("-shard has no single trajectory to trace; drop -tracecsv"))
			}
			if *maxShard <= 0 {
				fatal(fmt.Errorf("-max-shard must be positive, got %d", *maxShard))
			}
			opts.MaxShard = *maxShard
			opts.ShardRounds = *shardRnd
		}
		res, err := isinglut.SolveIsingContext(ctx, prob, opts)
		if err != nil {
			fatal(err)
		}
		report(*solver, res)
		if *csv != "" {
			if err := writeTrace(*csv, res); err != nil {
				fatal(err)
			}
			fmt.Printf("trace      : %d samples written to %s\n", len(res.Trace), *csv)
		}
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}
}

func loadProblem(path, demo string, demoN int, seed int64) (*isinglut.IsingProblem, error) {
	if demo != "" {
		return demoProblem(demo, demoN, seed)
	}
	if path == "" {
		return nil, fmt.Errorf("need -in <file> or -demo <name>")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var pj problemJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if pj.N <= 0 {
		return nil, fmt.Errorf("%s: n must be positive", path)
	}
	p := isinglut.NewIsingProblem(pj.N)
	for _, c := range pj.Couplings {
		if c.I < 0 || c.I >= pj.N || c.J < 0 || c.J >= pj.N || c.I == c.J {
			return nil, fmt.Errorf("%s: invalid coupling (%d,%d)", path, c.I, c.J)
		}
		p.SetCoupling(c.I, c.J, c.Value)
	}
	if pj.Biases != nil {
		if len(pj.Biases) != pj.N {
			return nil, fmt.Errorf("%s: %d biases for n=%d", path, len(pj.Biases), pj.N)
		}
		for i, h := range pj.Biases {
			p.SetBias(i, h)
		}
	}
	return p, nil
}

func demoProblem(name string, n int, seed int64) (*isinglut.IsingProblem, error) {
	if n < 2 {
		return nil, fmt.Errorf("demo size %d too small", n)
	}
	p := isinglut.NewIsingProblem(n)
	switch name {
	case "ring":
		for i := 0; i < n; i++ {
			p.SetCoupling(i, (i+1)%n, -1)
		}
	case "spinglass":
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				p.SetCoupling(i, j, rng.NormFloat64())
			}
		}
	default:
		return nil, fmt.Errorf("unknown demo %q (ring, spinglass)", name)
	}
	return p, nil
}

func writeTrace(path string, res isinglut.IsingResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.New(res.SampleEvery, res.Trace).WriteCSV(f)
}

func report(solver string, res isinglut.IsingResult) {
	fmt.Printf("solver     : %s\n", solver)
	fmt.Printf("energy     : %.6f\n", res.Energy)
	fmt.Printf("iterations : %d\n", res.Iterations)
	if res.Replicas > 1 {
		fmt.Printf("replicas   : %d (%d stopped early)\n", res.Replicas, res.EarlyStops)
	}
	if res.Stopped {
		fmt.Println("stopped    : dynamic stop criterion fired")
	}
	if res.Diverged {
		fmt.Printf("diverged   : dynamics overflowed (%d replicas); best finite state reported, energy +Inf\n", res.DivergedReplicas)
	} else if res.DivergedReplicas > 0 {
		fmt.Printf("diverged   : %d replicas quarantined (winner is finite)\n", res.DivergedReplicas)
	}
	if res.Rescued {
		fmt.Println("rescued    : winner recovered from a divergence via re-seed with halved dt")
	}
	if res.Quantized {
		fmt.Println("quantized  : fixed-point field kernels (energies evaluated against exact J)")
	}
	if res.BitPacked {
		fmt.Println("bit-packed : popcount field kernels over sign/magnitude bit-planes")
	}
	if res.Shards > 0 {
		fmt.Printf("shards     : %d subproblems, %d exchange rounds\n", res.Shards, res.ExchangeRounds)
	}
	if res.StopReason != "" && res.StopReason != "converged" && res.StopReason != "max-iters" {
		fmt.Printf("stop reason: %s (best-so-far state reported)\n", res.StopReason)
	}
	fmt.Printf("spins      : ")
	for _, s := range res.Spins {
		if s > 0 {
			fmt.Print("+")
		} else {
			fmt.Print("-")
		}
	}
	fmt.Println()
}

// rootContext derives the command's context: cancelled by SIGINT, and by
// the -timeout budget when one is set.
func rootContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	if timeout <= 0 {
		return ctx, cancel
	}
	tctx, tcancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { tcancel(); cancel() }
}

// servePprof starts the diagnostics endpoint (pprof profiles plus expvar,
// where the metrics registry publishes itself as isinglut.metrics).
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "isingsolve: pprof:", err)
		}
	}()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "isingsolve:", err)
	os.Exit(1)
}

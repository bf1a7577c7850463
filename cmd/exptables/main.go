// Command exptables regenerates the paper's evaluation artifacts:
// Table 1 (separate and joint modes, n = 9) and Figure 4 (n = 16).
//
// Usage:
//
//	exptables -exp table1-joint              # quick scale (default)
//	exptables -exp fig4 -P 16 -R 3           # custom budgets
//	exptables -exp fig4 -workers 0           # parallel partitions (GOMAXPROCS)
//	exptables -exp table1-separate -paper    # the paper's full budgets
//	exptables -exp fig4 -csv out.csv         # also dump raw rows as CSV
//
// Quick scale preserves the comparisons' shape at laptop runtimes; -paper
// reproduces the published budgets (P = 1000, R = 5, 3600 s ILP cap) and
// takes CPU-days. See EXPERIMENTS.md for measured results at both scales.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves /debug/pprof/* and /debug/vars
	"os"
	"os/signal"
	"runtime"
	"time"

	"isinglut/internal/core"
	"isinglut/internal/experiments"
	"isinglut/internal/metrics"
)

func main() {
	var (
		exp      = flag.String("exp", "table1-joint", "experiment: table1-separate, table1-joint, fig4, sweep, convergence")
		paper    = flag.Bool("paper", false, "use the paper's full budgets (CPU-days)")
		p        = flag.Int("P", 0, "override candidate partitions per component per round")
		r        = flag.Int("R", 0, "override rounds")
		workers  = flag.Int("workers", 1, "candidate-partition worker pool size (0 = GOMAXPROCS); quality columns are identical across worker counts, only wall-clock varies (dalta-ilp is additionally time-capped, so its rows vary run to run regardless)")
		seed     = flag.Int64("seed", 7, "random seed")
		csvPath  = flag.String("csv", "", "also write raw rows as CSV to this file")
		baseline = flag.String("baseline", "dalta", "fig4 baseline method")
		bench    = flag.String("bench", "erf", "benchmark for sweep/convergence experiments")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry the sweep stops at the next row boundary and the completed rows are rendered (0 = no limit)")
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

	n := 9
	if *exp == "fig4" {
		n = 16
	}
	scale := experiments.QuickScale(n)
	if *paper {
		scale = experiments.PaperScale(n)
	}
	if *p > 0 {
		scale.Partitions = *p
	}
	if *r > 0 {
		scale.Rounds = *r
	}
	scale.Workers = *workers
	if *workers <= 0 {
		scale.Workers = runtime.GOMAXPROCS(0)
	}

	if *exp == "sweep" || *exp == "convergence" {
		runAux(ctx, *exp, *bench, scale.Workers, *seed)
		return
	}

	var cfg experiments.Config
	switch *exp {
	case "table1-separate":
		cfg = experiments.Table1Config(core.Separate, scale, *seed)
	case "table1-joint":
		cfg = experiments.Table1Config(core.Joint, scale, *seed)
	case "fig4":
		cfg = experiments.Fig4Config(scale, *seed)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}

	fmt.Printf("experiment %s: n=%d |A|=%d mode=%s P=%d R=%d workers=%d\n\n",
		*exp, cfg.N, cfg.FreeSize, cfg.Mode, scale.Partitions, scale.Rounds, scale.Workers)

	rows, err := experiments.Run(ctx, cfg)
	if err != nil {
		if !interrupted(err) || len(rows) == 0 {
			fatal(err)
		}
		fmt.Printf("run interrupted (%v): rendering the %d completed rows\n\n", err, len(rows))
	}

	if *exp == "fig4" {
		experiments.RenderFig4(os.Stdout, experiments.Fig4Ratios(rows, *baseline))
	} else {
		experiments.RenderTable(os.Stdout, rows)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := experiments.WriteCSV(f, rows); err != nil {
			fatal(err)
		}
		fmt.Printf("\nraw rows written to %s\n", *csvPath)
	}
}

// runAux handles the design-space experiments that do not fit the
// benchmark x method row shape.
func runAux(ctx context.Context, exp, bench string, workers int, seed int64) {
	switch exp {
	case "sweep":
		scale := experiments.QuickScale(9)
		scale.Workers = workers
		fmt.Printf("free-set sweep for %s (n=9, joint, proposed)\n\n", bench)
		rows, err := experiments.FreeSizeSweep(ctx, bench, 9, 2, 7, scale, seed)
		if err != nil && (!interrupted(err) || len(rows) == 0) {
			fatal(err)
		}
		experiments.RenderSweep(os.Stdout, rows)
		fmt.Printf("\noverlap sweep for %s (|A|=4)\n\n", bench)
		orows, err := experiments.OverlapSweep(ctx, bench, 9, 4, 2, scale, seed)
		if err != nil && (!interrupted(err) || len(orows) == 0) {
			fatal(err)
		}
		experiments.RenderSweep(os.Stdout, orows)
	case "convergence":
		fmt.Printf("bSB convergence on a %s core COP (n=9, k=4)\n\n", bench)
		results, err := experiments.Convergence(ctx, bench, 9, 4, 4, seed)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			fmt.Printf("%-8s %s\n", r.Label, r.Summary)
		}
	}
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
			fmt.Fprintln(os.Stderr, "exptables: pprof:", err)
		}
	}()
}

func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exptables:", err)
	os.Exit(1)
}

// Command perfbench is the repository's end-to-end benchmark. Each run
// measures one workload for a fixed time, checks every answer, and
// prints a table and then, as its last line, one JSON result:
//
//	go build -o perfbench . && ./perfbench --workload fig4-n16 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fig4-n16         DALTA + bSB core solves at the paper's Fig. 4 size, in-process
//	serve-decompose  /v1/decompose on an in-process daemon, open loop then closed loop
//	fleet-shard      sharded /v1/solve on a coordinator with two peer daemons
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run repeats its timed phase with spans recorded around
// every call into a layer, prints the per-layer metrics, and writes the
// spans as JSON lines under --out. A failed correctness gate makes the
// exit status non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	OutDir  string
}

// minOps is the smallest op count a timed phase holds, so the tail
// percentile always has ten samples beyond it.
const minOps = 100

var workloads = map[string]func(runConfig) (*report, error){
	"fig4-n16":        runFig4,
	"serve-decompose": runServe,
	"fleet-shard":     runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig4-n16, serve-decompose or fleet-shard")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out     = flag.String("out", ".", "directory a traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {fig4-n16|serve-decompose|fleet-shard} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1, OutDir: *out}
	steal := startSteal()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.Workload = *name
	rep.Info = append(rep.Info, metric{"host.steal_share", "ratio", steal.share(), "CPU time stolen by the hypervisor during the run; not a metric"})
	set, want := rep.EndToEnd, endToEndNames
	if cfg.Trace {
		set, want = rep.Layer, layerNames
	}
	if err := checkNames(set, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: gate failed: %s\n", *name, p)
	}
	if err := rep.print(os.Stdout, cfg.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

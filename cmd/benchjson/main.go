// Command benchjson runs the repository's field-kernel and solver-engine
// benchmarks and emits the results as machine-readable JSON, so the
// before/after numbers behind a performance PR are reproducible with one
// command instead of a hand-edited table:
//
//	go run ./cmd/benchjson -out BENCH_PR4.json
//	go run ./cmd/benchjson -bench 'FieldBatch' -benchtime 500ms
//
// The tool shells out to `go test -bench` (so the numbers are exactly
// what any contributor can reproduce) and parses the standard benchmark
// output lines into {name, ns_op, allocs_op, runs} records, plus derived
// speedup ratios for the baseline-vs-optimized kernel pairs. Serving
// numbers come from perfbench's serve-decompose workload, not from here.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
	BytesOp  int64   `json:"bytes_op"`
}

// speedup compares a baseline benchmark against its optimized
// counterpart at equal parameters.
type speedup struct {
	Case      string  `json:"case"`
	Baseline  string  `json:"baseline"`
	Optimized string  `json:"optimized"`
	Ratio     float64 `json:"ratio"` // baseline ns / optimized ns
}

type report struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	BenchTime   string        `json:"benchtime"`
	Results     []benchResult `json:"results"`
	Speedups    []speedup     `json:"speedups"`
}

func main() {
	var (
		out       = flag.String("out", "", "output file (default stdout)")
		benchRe   = flag.String("bench", "FieldBatch|FieldColumns|FieldSigns|SolveFused|CoreSolveN16|CoreSolveN9|BipartiteField|NewJointCOP|Theorem3|WallStep", "benchmark regexp passed to go test")
		benchTime = flag.String("benchtime", "300ms", "go test -benchtime value")
		pkgs      = flag.String("pkgs", "./internal/ising,./internal/sb,./internal/core,.", "comma-separated packages to benchmark")
	)
	flag.Parse()

	var results []benchResult
	for _, pkg := range strings.Split(*pkgs, ",") {
		res, err := runBench(strings.TrimSpace(pkg), *benchRe, *benchTime)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		results = append(results, res...)
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   goVersion(),
		BenchTime:   *benchTime,
		Results:     results,
		Speedups:    deriveSpeedups(results),
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d results -> %s\n", len(rep.Results), *out)
}

// runBench shells out to go test and parses the benchmark lines.
func runBench(pkg, benchRe, benchTime string) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+benchRe, "-benchtime="+benchTime, "-benchmem", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", pkg, err)
	}
	return parseBench(&buf)
}

// parseBench extracts benchmark lines of the form
//
//	BenchmarkName-8   123   456789 ns/op   7 B/op   0 allocs/op
//
// tolerating extra custom metrics (MB/s) between the standard columns.
func parseBench(r *bytes.Buffer) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		res := benchResult{Name: strings.TrimSuffix(fields[0], cpuSuffix(fields[0]))}
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		res.Runs = runs
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				res.NsOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				res.BytesOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				res.AllocsOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// cpuSuffix returns the trailing -N GOMAXPROCS marker of a benchmark
// name ("BenchmarkX/n=64-8" -> "-8"), or "" when absent.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// deriveSpeedups pairs baseline/optimized benchmarks that share a
// parameter suffix: FieldColumns vs FieldBatch (per coupler),
// dense-kernel-on-sparse-instance vs the CSR and quantized kernels, the
// float dSB batch solve vs its quantized and
// sparse counterparts, the scalar quantized kernels vs their
// bit-packed popcount versions (kernel-level and end-to-end), and the
// two-pass twin Field and its Go kernel vs the AVX2 kernel (FieldU too),
// the Theorem-3 cost sums vs the sign of the U-side field, and the Go SB
// step vs the AVX2 step.
func deriveSpeedups(results []benchResult) []speedup {
	byName := make(map[string]benchResult, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	pairs := []struct{ baseline, optimized string }{
		{"BenchmarkFieldColumnsDense", "BenchmarkFieldBatchDense"},
		{"BenchmarkFieldColumnsBipartite", "BenchmarkFieldBatchBipartite"},
		{"BenchmarkFieldBatchSparseAsDense", "BenchmarkFieldBatchSparseCSR"},
		{"BenchmarkFieldBatchDense", "BenchmarkFieldSignsQuantDense"},
		{"BenchmarkFieldBatchSparseAsDense", "BenchmarkFieldSignsQuantSparse"},
		{"BenchmarkSolveFusedDSB", "BenchmarkSolveFusedDSBQuant"},
		{"BenchmarkSolveFusedDSBSparseDense", "BenchmarkSolveFusedDSBSparseCSR"},
		{"BenchmarkSolveFusedDSBSparseDense", "BenchmarkSolveFusedDSBSparseQuant"},
		{"BenchmarkFieldSignsQuantDense", "BenchmarkFieldSignsBitpackDense"},
		{"BenchmarkFieldSignsQuantClustered", "BenchmarkFieldSignsBitpackClustered"},
		{"BenchmarkFieldBatchDense", "BenchmarkFieldSignsBitpackDense"},
		{"BenchmarkSolveFusedDSB", "BenchmarkSolveFusedDSBBitpack"},
		{"BenchmarkSolveFusedDSBQuant", "BenchmarkSolveFusedDSBBitpack"},
		{"BenchmarkBipartiteField/twopass", "BenchmarkBipartiteField/avx2"},
		{"BenchmarkBipartiteField/go", "BenchmarkBipartiteField/avx2"},
		{"BenchmarkBipartiteField/go-u", "BenchmarkBipartiteField/avx2-u"},
		{"BenchmarkTheorem3N16/costsums", "BenchmarkTheorem3N16/fieldsign"},
		{"BenchmarkWallStep/go", "BenchmarkWallStep/avx2"},
	}
	var out []speedup
	for _, r := range results {
		for _, p := range pairs {
			prefix := p.baseline + "/"
			if !strings.HasPrefix(r.Name, prefix) {
				continue
			}
			suffix := strings.TrimPrefix(r.Name, prefix)
			optName := p.optimized + "/" + suffix
			o, ok := byName[optName]
			if !ok || o.NsOp == 0 {
				continue
			}
			out = append(out, speedup{
				Case:      strings.TrimPrefix(p.baseline, "Benchmark") + "/" + suffix,
				Baseline:  r.Name,
				Optimized: optName,
				Ratio:     r.NsOp / o.NsOp,
			})
		}
	}
	return out
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

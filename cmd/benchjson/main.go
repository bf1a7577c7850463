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
// output lines into one record per benchmark: go test runs each
// benchmark sampleCount times, and the record's ns_op is the median of
// those samples, with their minimum and maximum beside it. Derived
// speedup ratios for the baseline-vs-optimized kernel pairs compare
// medians. Serving numbers come from perfbench's serve-decompose
// workload, not from here.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// sampleCount is how many times go test runs each benchmark (its -count).
const sampleCount = 5

// benchResult is one benchmark's record: its samples (one parsed
// benchmark line each) folded into the median ns/op and its range.
type benchResult struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`  // iterations, summed over the samples
	NsOp     float64 `json:"ns_op"` // the median sample
	NsMin    float64 `json:"ns_min"`
	NsMax    float64 `json:"ns_max"`
	Samples  int     `json:"samples"`
	AllocsOp int64   `json:"allocs_op"` // the largest sample
	BytesOp  int64   `json:"bytes_op"`  // the largest sample
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
	Count       int           `json:"count"`
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
		Count:       sampleCount,
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
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+benchRe, "-benchtime="+benchTime,
		"-count="+strconv.Itoa(sampleCount), "-benchmem", pkg)
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
// tolerating extra custom metrics (MB/s) between the standard columns,
// and folds the lines of each benchmark into one record, in the order
// the benchmarks first appear.
func parseBench(r *bytes.Buffer) ([]benchResult, error) {
	var names []string
	samples := map[string][]benchResult{}
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
		if _, seen := samples[res.Name]; !seen {
			names = append(names, res.Name)
		}
		samples[res.Name] = append(samples[res.Name], res)
	}
	out := make([]benchResult, 0, len(names))
	for _, name := range names {
		out = append(out, fold(samples[name]))
	}
	return out, sc.Err()
}

// fold merges one benchmark's samples into its record: ns_op is their
// median (the mean of the middle two for an even count).
func fold(samples []benchResult) benchResult {
	res := benchResult{Name: samples[0].Name, Samples: len(samples)}
	ns := make([]float64, len(samples))
	for i, s := range samples {
		ns[i] = s.NsOp
		res.Runs += s.Runs
		res.AllocsOp = max(res.AllocsOp, s.AllocsOp)
		res.BytesOp = max(res.BytesOp, s.BytesOp)
	}
	slices.Sort(ns)
	m := len(ns) / 2
	res.NsOp = ns[m]
	if len(ns)%2 == 0 {
		res.NsOp = (ns[m-1] + ns[m]) / 2
	}
	res.NsMin, res.NsMax = ns[0], ns[len(ns)-1]
	return res
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
// two-pass twin Field and its Go kernel vs the AVX2 kernel and the AVX2
// kernel vs the AVX-512 kernel (FieldU too), the Theorem-3 cost sums vs
// the sign of the U-side field, and the Go SB step vs the AVX2 step.
// Ratios compare the records' median ns/op.
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
		{"BenchmarkBipartiteField/avx2", "BenchmarkBipartiteField/avx512"},
		{"BenchmarkBipartiteField/avx2-u", "BenchmarkBipartiteField/avx512-u"},
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

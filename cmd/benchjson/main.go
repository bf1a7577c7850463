// Command benchjson runs the repository's field-kernel and solver-engine
// benchmarks and emits the results as machine-readable JSON, so the
// before/after numbers behind a performance PR are reproducible with one
// command instead of a hand-edited table:
//
//	go run ./cmd/benchjson -out BENCH_PR4.json
//	go run ./cmd/benchjson -bench 'FieldBatch' -benchtime 500ms
//	go run ./cmd/benchjson -out BENCH_new.json -compare BENCH_prev.json
//
// With -compare, benchjson also prints, for every benchmark in both the
// fresh run and the given earlier artifact, the change of the median
// ns/op and a flag when the fresh median falls outside the earlier
// run's min–max band. The comparison is a report: it never changes the
// exit status.
//
// The tool shells out to `go test -bench` (so the numbers are exactly
// what any contributor can reproduce) and parses the standard benchmark
// output lines into one record per benchmark. It makes sampleCount
// passes, each one `go test -count=1` per package, so every benchmark
// is sampled once per pass and the two sides of a speedup pair are timed
// seconds apart in every pass rather than in two separate runs of
// samples; the record's ns_op is the median of a benchmark's samples,
// with their minimum and maximum beside it. Derived speedup ratios for
// the baseline-vs-optimized kernel pairs compare medians. Serving
// numbers come from perfbench's serve-decompose workload, not from here.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// sampleCount is how many passes over the benchmarks run, one sample of
// each per pass.
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
		benchRe   = flag.String("bench", "FieldBatch|FieldColumns|FieldSigns|SolveFused|CoreSolveN16|CoreSolveFig4|CoreSolveN9|BipartiteField|TwinFieldCached|NewJointCOP|FormulateN16|Theorem3|WallStep|EvaluateN16|VerifyN16", "benchmark regexp passed to go test")
		benchTime = flag.String("benchtime", "300ms", "go test -benchtime value")
		pkgs      = flag.String("pkgs", "./internal/ising,./internal/sb,./internal/core,.", "comma-separated packages to benchmark")
		compare   = flag.String("compare", "", "earlier benchjson artifact to compare the fresh medians against (a report on stderr)")
	)
	flag.Parse()

	var prev *report
	if *compare != "" {
		var err error
		if prev, err = readReport(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	var lines bytes.Buffer
	for pass := 0; pass < sampleCount; pass++ {
		for _, pkg := range strings.Split(*pkgs, ",") {
			if err := runBench(&lines, strings.TrimSpace(pkg), *benchRe, *benchTime); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}
	}
	results, err := parseBench(&lines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   goVersion(),
		BenchTime:   *benchTime,
		Count:       sampleCount,
		Results:     results,
		Speedups:    deriveSpeedups(results),
	}
	if prev != nil {
		fmt.Fprintf(os.Stderr, "benchjson: medians against %s\n", *compare)
		writeComparison(os.Stderr, prev.Results, rep.Results)
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

// runBench shells out to go test for one sample of every matching
// benchmark in pkg and appends its output to out.
func runBench(out *bytes.Buffer, pkg, benchRe, benchTime string) error {
	cmd := exec.Command("go", "test", "-run=^$", "-bench="+benchRe, "-benchtime="+benchTime,
		"-count=1", "-benchmem", pkg)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", pkg, err)
	}
	return nil
}

// parseBench extracts benchmark lines of the form
//
//	BenchmarkName-8   123   456789 ns/op   7 B/op   0 allocs/op
//
// tolerating extra custom metrics (MB/s) between the standard columns,
// and folds the lines of each benchmark, from however many passes, into
// one record, in the order the benchmarks first appear.
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
// the sign of the U-side field and that field vs a repeated-sign hook
// call, the Go SB step vs the AVX2 step, and the twin Field vs
// FieldCached at each share of repeated terms.
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
		{"BenchmarkTwinFieldCached/field", "BenchmarkTwinFieldCached/cached"},
		{"BenchmarkTheorem3N16/fieldsign", "BenchmarkTheorem3N16/repeat"},
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

// readReport loads an earlier benchjson artifact.
func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// writeComparison prints one line per benchmark present in both prev
// and cur, in cur's order: the two medians, the relative change of the
// median, and "outside" when cur's median lies outside prev's min–max
// band (an artifact without a band, from before benchjson kept one,
// counts its median as the band). It returns the number of flagged
// benchmarks.
func writeComparison(w io.Writer, prev, cur []benchResult) int {
	byName := make(map[string]benchResult, len(prev))
	for _, r := range prev {
		byName[r.Name] = r
	}
	flagged := 0
	for _, c := range cur {
		p, ok := byName[c.Name]
		if !ok || p.NsOp == 0 {
			continue
		}
		lo, hi := p.NsMin, p.NsMax
		if lo == 0 && hi == 0 {
			lo, hi = p.NsOp, p.NsOp
		}
		mark := ""
		if c.NsOp < lo || c.NsOp > hi {
			mark = "  outside"
			flagged++
		}
		fmt.Fprintf(w, "%-60s %14.0f -> %14.0f ns/op %+7.1f%%%s\n", c.Name, p.NsOp, c.NsOp, 100*(c.NsOp/p.NsOp-1), mark)
	}
	return flagged
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

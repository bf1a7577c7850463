package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseBenchFoldsSamples: the lines of one benchmark, spread over
// the interleaved passes benchjson makes (each pass one go test -count=1
// per package, every pass with its own headers and trailer, a benchmark
// missing from a pass), fold into one record whose ns_op is the median
// sample, records keep the order in which benchmarks first appear, and
// speedup pairs compare those medians.
func TestParseBenchFoldsSamples(t *testing.T) {
	out := bytes.NewBufferString(`goos: linux
pkg: isinglut/internal/ising
BenchmarkBipartiteField/avx2/512x128-2     100    30000 ns/op   20971.62 MB/s   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    18000 ns/op   0 B/op   0 allocs/op
PASS
ok  	isinglut/internal/ising	1.234s
goos: linux
pkg: isinglut/internal/sb
BenchmarkWallStep/go/n=768-2     1000    100 ns/op   0 B/op   0 allocs/op
BenchmarkWallStep/avx2/n=768-2   1000     50 ns/op   0 B/op   0 allocs/op
PASS
ok  	isinglut/internal/sb	0.5s
goos: linux
pkg: isinglut/internal/ising
BenchmarkBipartiteField/avx2/512x128-2     100    26000 ns/op   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    21000 ns/op   0 B/op   0 allocs/op
PASS
ok  	isinglut/internal/ising	1.2s
goos: linux
pkg: isinglut/internal/sb
BenchmarkWallStep/go/n=768-2     1000    120 ns/op   0 B/op   0 allocs/op
BenchmarkWallStep/avx2/n=768-2   1000     40 ns/op   0 B/op   0 allocs/op
PASS
ok  	isinglut/internal/sb	0.5s
BenchmarkBipartiteField/avx2/512x128-2     100    24000 ns/op   0 B/op   1 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    20000 ns/op   64 B/op   0 allocs/op
PASS
BenchmarkBipartiteField/avx512/512x128-2   200    19000 ns/op   0 B/op   0 allocs/op
PASS
`)
	res, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []benchResult{
		{Name: "BenchmarkBipartiteField/avx2/512x128", Runs: 300, NsOp: 26000, NsMin: 24000, NsMax: 30000, Samples: 3, AllocsOp: 1},
		{Name: "BenchmarkBipartiteField/avx512/512x128", Runs: 800, NsOp: 19500, NsMin: 18000, NsMax: 21000, Samples: 4, BytesOp: 64},
		{Name: "BenchmarkWallStep/go/n=768", Runs: 2000, NsOp: 110, NsMin: 100, NsMax: 120, Samples: 2},
		{Name: "BenchmarkWallStep/avx2/n=768", Runs: 2000, NsOp: 45, NsMin: 40, NsMax: 50, Samples: 2},
	}
	if len(res) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(res), len(want), res)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Errorf("record %d: got %+v, want %+v", i, res[i], want[i])
		}
	}
	sp := deriveSpeedups(res)
	if len(sp) != 2 || sp[0].Ratio != 26000.0/19500 || sp[1].Ratio != 110.0/45 {
		t.Fatalf("speedups %+v, want the avx2 → avx512 and go → avx2 pairs at the median ratios", sp)
	}
}

// TestWriteComparisonFlagsOutsideBand: -compare reports every benchmark
// in both runs with its median change, flags a median outside the
// earlier min–max band (either side), leaves one inside unflagged, skips
// benchmarks missing from either run, and treats an earlier record
// without a band as a band of its median.
func TestWriteComparisonFlagsOutsideBand(t *testing.T) {
	prev := []benchResult{
		{Name: "BenchmarkA", NsOp: 100, NsMin: 90, NsMax: 120},
		{Name: "BenchmarkB", NsOp: 100, NsMin: 90, NsMax: 120},
		{Name: "BenchmarkC", NsOp: 100, NsMin: 90, NsMax: 120},
		{Name: "BenchmarkOld", NsOp: 100},
		{Name: "BenchmarkGone", NsOp: 5},
	}
	cur := []benchResult{
		{Name: "BenchmarkA", NsOp: 80},
		{Name: "BenchmarkB", NsOp: 110},
		{Name: "BenchmarkC", NsOp: 150},
		{Name: "BenchmarkOld", NsOp: 100},
		{Name: "BenchmarkNew", NsOp: 7},
	}
	var out bytes.Buffer
	if n := writeComparison(&out, prev, cur); n != 2 {
		t.Fatalf("%d flagged, want 2 (A below, C above the band):\n%s", n, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want one per shared benchmark:\n%s", len(lines), out.String())
	}
	for i, want := range []struct {
		name, delta string
		outside     bool
	}{{"BenchmarkA", "-20.0%", true}, {"BenchmarkB", "+10.0%", false}, {"BenchmarkC", "+50.0%", true}, {"BenchmarkOld", "+0.0%", false}} {
		l := lines[i]
		if !strings.HasPrefix(l, want.name+" ") || !strings.Contains(l, want.delta) || strings.HasSuffix(l, "outside") != want.outside {
			t.Errorf("line %d %q, want %s %s outside=%v", i, l, want.name, want.delta, want.outside)
		}
	}
}

package main

import (
	"bytes"
	"testing"
)

// TestParseBenchFoldsSamples: the lines of one benchmark, as go test
// -count prints them, fold into one record whose ns_op is the median
// sample, and speedup pairs compare those medians.
func TestParseBenchFoldsSamples(t *testing.T) {
	out := bytes.NewBufferString(`goos: linux
BenchmarkBipartiteField/avx2/512x128-2     100    30000 ns/op   20971.62 MB/s   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    18000 ns/op   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx2/512x128-2     100    26000 ns/op   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    21000 ns/op   0 B/op   0 allocs/op
BenchmarkBipartiteField/avx2/512x128-2     100    24000 ns/op   0 B/op   1 allocs/op
BenchmarkBipartiteField/avx512/512x128-2   200    20000 ns/op   64 B/op   0 allocs/op
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
	if len(sp) != 1 || sp[0].Ratio != 26000.0/19500 {
		t.Fatalf("speedups %+v, want one avx2 → avx512 pair at the median ratio", sp)
	}
}

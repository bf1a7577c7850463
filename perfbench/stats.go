package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above a percentile before the
// benchmark reports latency at it.
const tailBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// nearestRank returns the 1-based rank of the p-th percentile of n
// samples under the nearest-rank definition: the smallest rank with at
// least p% of the samples at or below it.
func nearestRank(p float64, n int) int {
	// Work in thousandths of a percent so 99.9% of 10000 is exactly 9990.
	k := int(math.Round(p * 1000))
	r := (k*n + 100000 - 1) / 100000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least tailBeyond samples above it, and reports how many do. With
// fewer than 2·tailBeyond samples no percentile qualifies.
func tailPercentile(n int) (p float64, beyond int, err error) {
	for _, p := range tailLadder {
		if b := n - nearestRank(p, n); b >= tailBeyond {
			return p, b, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples support no tail percentile (need %d)", n, 2*tailBeyond)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	return s[nearestRank(p, len(s))-1]
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is the timing part of a workload's end-to-end report.
type latencySummary struct {
	P50, Tail  float64 // ms
	TailPct    float64 // the percentile Tail sits at
	TailBeyond int     // samples above it
	Samples    int
}

func summarize(ms []float64) (latencySummary, error) {
	p, beyond, err := tailPercentile(len(ms))
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{
		P50:        median(ms),
		Tail:       percentile(ms, p),
		TailPct:    p,
		TailBeyond: beyond,
		Samples:    len(ms),
	}, nil
}

package main

import "testing"

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{100, 90, 10},
		{150, 90, 15},
		{199, 90, 19},
		{200, 95, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	}
	for _, c := range cases {
		p, beyond, err := tailPercentile(c.n)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if p != c.p || beyond != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
	if _, _, err := tailPercentile(19); err == nil {
		t.Error("19 samples should support no tail")
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %g, want 90", got)
	}
	above := 0
	for _, x := range xs {
		if x > percentile(xs, 90) {
			above++
		}
	}
	if above != tailBeyond {
		t.Fatalf("%d samples above p90, want %d", above, tailBeyond)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
}

func TestSummarizeReportsTailAndCount(t *testing.T) {
	ms := make([]float64, 120)
	for i := range ms {
		ms[i] = float64(i)
	}
	s, err := summarize(ms)
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != 120 || s.TailPct != 90 || s.TailBeyond != 12 || s.Tail != 107 || s.P50 != 59.5 {
		t.Fatalf("summary %+v", s)
	}
}

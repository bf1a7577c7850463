package metrics

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopNone:       "none",
		StopConverged:  "converged",
		StopMaxIters:   "max-iters",
		StopCancelled:  "cancelled",
		StopDeadline:   "deadline",
		StopReason(99): "unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("StopReason(%d).String() = %q, want %q", r, got, want)
		}
	}
	if StopConverged.Interrupted() || StopMaxIters.Interrupted() {
		t.Error("termination reasons must not report Interrupted")
	}
	if !StopCancelled.Interrupted() || !StopDeadline.Interrupted() {
		t.Error("context reasons must report Interrupted")
	}
}

func TestReasonFromContext(t *testing.T) {
	if r := ReasonFromContext(context.Background()); r != StopNone {
		t.Errorf("live context: %v, want none", r)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := ReasonFromContext(cancelled); r != StopCancelled {
		t.Errorf("cancelled context: %v, want cancelled", r)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if r := ReasonFromContext(expired); r != StopDeadline {
		t.Errorf("expired context: %v, want deadline", r)
	}
}

func TestCounterAndTimerConcurrent(t *testing.T) {
	var c Counter
	var tm Timer
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				tm.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := tm.Count(); got != 8000 {
		t.Errorf("timer count = %d, want 8000", got)
	}
	if got := tm.Total(); got != 8000*time.Microsecond {
		t.Errorf("timer total = %v, want 8ms", got)
	}
	if got := tm.Mean(); got != time.Microsecond {
		t.Errorf("timer mean = %v, want 1µs", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 4})
	for _, v := range []float64{-3, 0, 0.5, 1, 1.9, 2, 3.9, 4, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	want := []int64{3, 2, 2, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Total() != 9 || h.Count() != 9 {
		t.Errorf("total = %d/%d, want 9", snap.Total(), h.Count())
	}
	var sb strings.Builder
	snap.Render(&sb)
	if !strings.Contains(sb.String(), ">= 4") {
		t.Errorf("render missing open-ended bucket:\n%s", sb.String())
	}
}

func TestPowerOfTwoBounds(t *testing.T) {
	b := PowerOfTwoBounds(1, 4)
	want := []float64{0, 1, 2, 4}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bounds[%d] = %g, want %g", i, b[i], want[i])
		}
	}
}

// find returns the named set from a snapshot section.
func find(t *testing.T, sets []SetSnapshot, name string) SetSnapshot {
	t.Helper()
	for _, s := range sets {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("snapshot missing set %q", name)
	return SetSnapshot{}
}

// value returns the named counter or timer reading of a set snapshot, or
// the observation count of the named histogram.
func value(t *testing.T, s SetSnapshot, name string) int64 {
	t.Helper()
	for _, v := range s.Values {
		if v.Name == name {
			if v.Hist != nil {
				return v.Hist.Total()
			}
			return v.N
		}
	}
	t.Fatalf("set %q has no value %q", s.Name, name)
	return 0
}

func TestSolverSnapshotAndJSON(t *testing.T) {
	s := ForSolver("test-solver")
	if again := ForSolver("test-solver"); again != s {
		t.Fatal("ForSolver must return the same instance per name")
	}
	Reset()
	s.ObserveRun(3*time.Millisecond, StopConverged)
	s.ObserveRun(5*time.Millisecond, StopCancelled)
	s.ObserveEnergy(-12.5)
	s.Iterations.Add(400)
	s.Samples.Add(20)

	snap := find(t, Read().Solvers, "test-solver")
	want := map[string]int64{
		"runs": 2, "converged": 1, "cancelled": 1, "max_iters": 0,
		"iterations": 400, "samples": 20,
		"solve_time_ns": int64(8 * time.Millisecond), "mean_run_ns": int64(4 * time.Millisecond),
		"latency_us": 2, "energy_abs": 1,
	}
	for name, w := range want {
		if got := value(t, snap, name); got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, data)
	}
	for _, key := range []string{`{"name":"test-solver","runs":2,`, `"mean_run_ns":4000000`, `"latency_us":{"bounds":[`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("JSON missing %s: %s", key, data)
		}
	}

	var sb strings.Builder
	Render(&sb)
	if !strings.Contains(sb.String(), "test-solver ") || !strings.Contains(sb.String(), " runs=2 ") {
		t.Errorf("render missing solver row:\n%s", sb.String())
	}
}

func TestObserveAllocsFree(t *testing.T) {
	s := ForSolver("alloc-probe")
	allocs := testing.AllocsPerRun(100, func() {
		s.ObserveRun(time.Millisecond, StopMaxIters)
		s.ObserveEnergy(3.5)
		s.Iterations.Add(10)
	})
	if allocs != 0 {
		t.Errorf("hot-path observation allocates %.1f/run, want 0", allocs)
	}
}

// TestReset: Reset zeroes every set of the one registry — solvers,
// services and the shard layer, counters, timers and histograms alike.
func TestReset(t *testing.T) {
	s := ForSolver("reset-probe")
	s.ObserveRun(time.Millisecond, StopConverged)
	s.Iterations.Add(5)
	svc := ForService("reset-svc")
	svc.Requests.Inc()
	svc.ObserveHandled(time.Millisecond, 200)
	Shard().Rounds.Inc()
	Shard().RoundTime.Observe(time.Millisecond)
	Reset()
	if s.Runs.Load() != 0 || s.Iterations.Load() != 0 || s.SolveTime.Count() != 0 || s.Latency.Count() != 0 {
		t.Error("Reset left residual solver counts")
	}
	if svc.Requests.Load() != 0 || svc.OK.Load() != 0 || svc.Handle.Count() != 0 || svc.Latency.Count() != 0 {
		t.Error("Reset left residual service counts")
	}
	if Shard().Rounds.Load() != 0 || Shard().RoundTime.Count() != 0 {
		t.Error("Reset left residual shard counts")
	}
	snap := Read()
	for _, sets := range [][]SetSnapshot{snap.Solvers, snap.Services, {snap.Shard}} {
		for _, set := range sets {
			for _, v := range set.Values {
				if v.N != 0 || (v.Hist != nil && v.Hist.Total() != 0) {
					t.Errorf("after Reset, %s %s = %d", set.Name, v.Name, v.N)
				}
			}
		}
	}
}

// TestSnapshotJSONNames pins every set kind's JSON names and their order,
// which scrapers and CI's expvar greps read.
func TestSnapshotJSONNames(t *testing.T) {
	ForSolver("names-solver")
	ForService("names-service")
	snap := Read()
	want := []struct {
		set   SetSnapshot
		names string
	}{
		{find(t, snap.Solvers, "names-solver"), "runs iterations samples restarts converged max_iters cancelled deadline diverged rescues solve_time_ns mean_run_ns latency_us energy_abs"},
		{find(t, snap.Services, "names-service"), "requests ok client_error server_error shed drained cache_hits cache_misses degraded retries panics breaker_open queue_wait_ns handle_ns mean_handle_ns latency_us"},
		{snap.Shard, "rounds sub_solves sub_errors accepted rejected peer_dispatch peer_fallback peer_batches peer_retries peer_hedges peer_hedges_won peer_hedges_lost peer_probes peer_probe_fails peer_quarantined peer_readmitted round_time_ns mean_round_ns"},
	}
	for _, w := range want {
		var names []string
		for _, v := range w.set.Values {
			names = append(names, v.Name)
		}
		if got := strings.Join(names, " "); got != w.names {
			t.Errorf("set %q names:\n got %s\nwant %s", w.set.Name, got, w.names)
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatalf("registry JSON does not parse: %v", err)
	}
	if len(sections) != 3 || sections["solvers"] == nil || sections["services"] == nil || !strings.HasPrefix(string(sections["shard"]), `{"name":"exchange","rounds":`) {
		t.Fatalf("registry JSON sections: %s", data)
	}
}

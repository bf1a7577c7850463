package sb

import (
	"context"
	"math"
	"testing"
)

func TestSolveBatchAtLeastSingle(t *testing.T) {
	p := randomProblem(12, 3)
	base := DefaultParams()
	base.Steps = 400
	single := Solve(p, base)
	batch, stats := SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: 6})
	if batch.Energy > single.Energy+1e-12 {
		t.Fatalf("batch %g worse than its first replica %g", batch.Energy, single.Energy)
	}
	if math.Abs(p.Energy(batch.Spins)-batch.Energy) > 1e-9 {
		t.Fatal("batch energy does not match spins")
	}
	if stats.Replicas != 6 || len(stats.Energies) != 6 || len(stats.Iterations) != 6 {
		t.Fatalf("stats shape %+v", stats)
	}
	// Replica 0 reuses the single-run seed, so its stats entry must match.
	if stats.Energies[0] != single.Energy {
		t.Fatalf("replica 0 energy %g != single run %g", stats.Energies[0], single.Energy)
	}
	for r, e := range stats.Energies {
		if e < batch.Energy-1e-12 {
			t.Fatalf("replica %d energy %g below reported winner %g", r, e, batch.Energy)
		}
	}
	if stats.Energies[stats.BestReplica] != batch.Energy {
		t.Fatalf("BestReplica %d energy %g != winner %g",
			stats.BestReplica, stats.Energies[stats.BestReplica], batch.Energy)
	}
	if stats.TotalIterations() < 6*400 {
		t.Fatalf("total iterations %d below 6 full runs", stats.TotalIterations())
	}
}

func TestSolveBatchDeterministic(t *testing.T) {
	p := randomProblem(10, 4)
	base := DefaultParams()
	base.Steps = 300
	bp := BatchParams{Base: base, Replicas: 5}
	a, as := SolveBatch(context.Background(), p, bp)
	b, bs := SolveBatch(context.Background(), p, bp)
	if a.Energy != b.Energy || as.BestReplica != bs.BestReplica {
		t.Fatal("batch not deterministic")
	}
	for r := range as.Energies {
		if as.Energies[r] != bs.Energies[r] || as.Iterations[r] != bs.Iterations[r] {
			t.Fatalf("replica %d stats differ between runs", r)
		}
	}
	for i := range a.Spins {
		if a.Spins[i] != b.Spins[i] {
			t.Fatal("batch spins differ between runs")
		}
	}
	// And each lane is its own r = 1 solve.
	assertLanesMatchSingles(t, "deterministic", p, bp, nil)
}

func TestSolveBatchDefaults(t *testing.T) {
	p := randomProblem(8, 5)
	base := DefaultParams()
	base.Steps = 200
	res, stats := SolveBatch(context.Background(), p, BatchParams{Base: base}) // default replicas/workers
	if len(res.Spins) != 8 {
		t.Fatal("no result from default batch")
	}
	if stats.Replicas != 4 {
		t.Fatalf("default replicas %d, want 4", stats.Replicas)
	}
}

// TestSolveBatchSharedHookSerializes: one OnSample hook serves every
// lane from the engine's single goroutine, so an unsynchronized counter
// is safe (run under -race to enforce) and the hook runs exactly once per
// lane per sample point: 10 sample points at SampleEvery = 10 over 100
// steps, the last one doubling as the final sample.
func TestSolveBatchSharedHookSerializes(t *testing.T) {
	p := randomProblem(8, 6)
	base := DefaultParams()
	base.Steps = 100
	base.SampleEvery = 10
	calls := map[int]int{} // deliberately unsynchronized
	base.OnSample = func(iter int, _, _ []float64) { calls[iter]++ }
	_, stats := SolveBatch(context.Background(), p, BatchParams{Base: base, Replicas: 4})
	if len(calls) != 10 {
		t.Fatalf("hook ran at %d distinct iterations, want 10: %v", len(calls), calls)
	}
	for it := 10; it <= 100; it += 10 {
		if calls[it] != stats.Replicas {
			t.Fatalf("hook ran %d times at iteration %d, want once per lane (%d)", calls[it], it, stats.Replicas)
		}
	}
}

// TestSolveMetricsCounts: in the metrics registry an r = 1 SolveWith
// counts as one sb run and no sb.batch run; an r-replica batch counts r
// sb runs (one per lane) and one sb.batch run.
func TestSolveMetricsCounts(t *testing.T) {
	p := randomProblem(8, 12)
	params := DefaultParams()
	params.Steps = 50
	runs, batches := met.Runs.Load(), batchMet.Runs.Load()
	SolveWith(context.Background(), p, params, NewWorkspace(p.N()))
	if got, gotB := met.Runs.Load()-runs, batchMet.Runs.Load()-batches; got != 1 || gotB != 0 {
		t.Fatalf("SolveWith counted %d sb and %d sb.batch runs, want 1 and 0", got, gotB)
	}
	runs, batches = met.Runs.Load(), batchMet.Runs.Load()
	SolveBatch(context.Background(), p, BatchParams{Base: params, Replicas: 3})
	if got, gotB := met.Runs.Load()-runs, batchMet.Runs.Load()-batches; got != 3 || gotB != 1 {
		t.Fatalf("3-replica SolveBatch counted %d sb and %d sb.batch runs, want 3 and 1", got, gotB)
	}
}

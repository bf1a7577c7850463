package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"isinglut/internal/benchfn"
	"isinglut/internal/core"
	"isinglut/internal/dalta"
	"isinglut/internal/experiments"
	"isinglut/internal/lut"
	"isinglut/internal/partition"
	"isinglut/internal/prob"
	"isinglut/internal/truthtable"
)

// The fig4-n16 workload runs the DALTA outer loop over the six
// continuous Fig. 4 functions at n = 16, |A| = 7, joint mode, one caller,
// serial. All six have 16 outputs and core solves of alike cost, so the
// mix a run covers does not depend on how far it gets. The op is one
// CoreSolver.Solve on a 768-spin core COP (128×512 bipartite block).
//
// The partitions are the same for every workload seed; the seed salts
// the SB seed of every core solve. With one candidate partition per
// component, which partitions are drawn moves the MED ratio by tens of
// percent between draws, so a seed-drawn partition stream would make
// quality_ratio measure the draw instead of the solver.
var fig4Funcs = []string{"cos", "tan", "exp", "ln", "erf", "denoise"}

const (
	fig4N       = 16
	fig4Free    = 7
	fig4P       = 1
	fig4R       = 1
	fig4WarmOps = 2
	// fig4PartSeed seeds the framework seeds of the jobs (partitions).
	fig4PartSeed = 0xf164
	// fig4QualityJobs decompositions enter quality_ratio: every run holds
	// them (7·16 solves ≥ minOps), so a faster run does not change which
	// functions the ratio covers.
	fig4QualityJobs = 7
)

type fig4Env struct {
	exact  []*truthtable.Table
	solver dalta.CoreSolver
}

// fig4Setup builds the functions and the scale's proposed solver, then
// warms the solver's workspace pool with fixed solves.
func fig4Setup() (*fig4Env, error) {
	env := &fig4Env{}
	for _, name := range fig4Funcs {
		t, err := benchfn.Build(name, fig4N)
		if err != nil {
			return nil, err
		}
		env.exact = append(env.exact, t)
	}
	s, err := experiments.QuickScale(fig4N).Solver("proposed")
	if err != nil {
		return nil, err
	}
	env.solver = s
	part, err := partition.New(fig4N, 1<<fig4Free-1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fig4WarmOps; i++ {
		s.Solve(context.Background(), dalta.Request{
			Part: part, K: fig4N - 1 - i, Mode: core.Joint,
			Exact: env.exact[0], Approx: env.exact[0].Clone(), Dist: prob.NewUniform(fig4N),
			Seed: int64(i + 1),
		})
	}
	return env, nil
}

// fig4Job is one decomposition: function index and framework seed.
type fig4Job struct {
	Fn   int
	Seed int64
}

// fig4Done is a finished decomposition.
type fig4Done struct {
	fig4Job
	MED       float64
	Solves    int
	VerifyErr error
	LUTBits   int
}

// probeSolver wraps the core solver: it times every Solve and, when
// tracing, records spans around it plus BuildCOP/Formulate probes on the
// same request and the bytes each solve allocates.
type probeSolver struct {
	inner dalta.CoreSolver
	salt  int64 // mixed into every request's SB seed
	rec   *recorder
	run   int // the open dalta.Run span
	req   string

	lat   []float64
	alloc []float64
}

func (p *probeSolver) Name() string { return p.inner.Name() }

func (p *probeSolver) Solve(ctx context.Context, req dalta.Request) dalta.Result {
	req.Seed ^= p.salt
	var m0, m1 runtime.MemStats
	if p.rec != nil {
		id := p.rec.begin("core.cop", p.req, p.run)
		cop := dalta.BuildCOP(req)
		p.rec.end(id)
		id = p.rec.begin("core.formulate", p.req, p.run)
		core.Formulate(cop)
		p.rec.end(id)
		runtime.ReadMemStats(&m0)
	}
	id := p.rec.begin("core.solve", p.req, p.run)
	t0 := time.Now()
	res := p.inner.Solve(ctx, req)
	d := time.Since(t0)
	p.rec.end(id)
	if p.rec != nil {
		runtime.ReadMemStats(&m1)
		p.alloc = append(p.alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	}
	p.lat = append(p.lat, ms(d))
	return res
}

// fig4Phase runs jobs in order until the budget is spent and minOps
// solves are done (or, with replay, exactly the given jobs).
func fig4Phase(env *fig4Env, salt int64, jobs func(i int) (fig4Job, bool), rec *recorder) ([]fig4Done, *probeSolver, time.Duration, float64) {
	ps := &probeSolver{inner: env.solver, salt: salt, rec: rec}
	ctx := context.Background()
	var done []fig4Done
	gc := startGC()
	t0 := time.Now()
	for i := 0; ; i++ {
		job, ok := jobs(i)
		if !ok {
			break
		}
		exact := env.exact[job.Fn]
		ps.req = strconv.Itoa(i)
		ps.run = rec.begin("dalta.Run", ps.req, 0)
		out, err := dalta.Run(ctx, exact, dalta.Config{
			Rounds: fig4R, Partitions: fig4P, FreeSize: fig4Free, Mode: core.Joint,
			Solver: ps, Seed: job.Seed, Workers: 1,
		})
		rec.end(ps.run)
		if err != nil {
			done = append(done, fig4Done{fig4Job: job, VerifyErr: err})
			continue
		}
		id := rec.begin("dalta.Verify", ps.req, 0)
		verr := dalta.Verify(exact, out, nil)
		rec.end(id)
		id = rec.begin("lut.FromOutcome", ps.req, 0)
		design := lut.FromOutcome(out)
		rec.end(id)
		done = append(done, fig4Done{fig4Job: job, MED: out.Report.MED, Solves: out.CoreSolves, VerifyErr: verr, LUTBits: design.TotalBits()})
	}
	return done, ps, time.Since(t0), gc.share()
}

func runFig4(cfg runConfig) (*report, error) {
	env, setupS, err := measureSetup(fig4Setup, func(*fig4Env) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(fig4PartSeed))
	salt := rand.New(rand.NewSource(cfg.Seed)).Int63()
	var planned []fig4Job
	solves := 0
	start := time.Now()
	timed := func(i int) (fig4Job, bool) {
		if i > 0 && time.Since(start) >= cfg.Seconds && solves >= minOps {
			return fig4Job{}, false
		}
		j := fig4Job{Fn: i % len(fig4Funcs), Seed: rng.Int63()}
		planned = append(planned, j)
		solves += fig4N * fig4P * fig4R
		return j, true
	}
	done, ps, elapsed, _ := fig4Phase(env, salt, timed, nil)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	rep := &report{}
	for _, d := range done {
		rep.Attempted += d.Solves
		if d.VerifyErr != nil {
			rep.Failed += d.Solves
			rep.fail("%s seed %d: %v", fig4Funcs[d.Fn], d.Seed, d.VerifyErr)
		}
		if d.LUTBits <= 0 {
			rep.fail("%s seed %d: empty LUT design", fig4Funcs[d.Fn], d.Seed)
		}
	}
	lat, err := summarize(ps.lat)
	if err != nil {
		return nil, err
	}

	// Quality, outside the timed phase, over the first fig4QualityJobs
	// decompositions: the DALTA heuristic on the same partitions (the same
	// framework seed draws the same partition stream).
	var med, base float64
	for _, d := range done[:fig4QualityJobs] {
		out, err := dalta.Run(context.Background(), env.exact[d.Fn], dalta.Config{
			Rounds: fig4R, Partitions: fig4P, FreeSize: fig4Free, Mode: core.Joint,
			Solver: &dalta.Heuristic{}, Seed: d.Seed, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		med += d.MED
		base += out.Report.MED
	}
	if base <= 0 {
		return nil, fmt.Errorf("DALTA baseline MED is %g", base)
	}
	n := len(ps.lat)
	rep.EndToEnd = []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (%d warm-up solves each)", setupRepeats, fig4WarmOps)},
		{"p50_ms", "ms", lat.P50, fmt.Sprintf("core solves n=%d", n)},
		{"tail_ms", "ms", lat.Tail, fmt.Sprintf("p%g, n=%d, %d beyond", lat.TailPct, n, lat.TailBeyond)},
		{"ops_per_s", "1/s", float64(n) / elapsed.Seconds(), fmt.Sprintf("%d solves in %.2f s, %d decompositions", n, elapsed.Seconds(), len(done))},
		{"quality_ratio", "ratio", med / base, fmt.Sprintf("sum MED / sum DALTA MED, first %d decompositions", fig4QualityJobs)},
		{"mem_mb", "MiB", rss, "VmHWM at the end of the timed phase"},
	}
	rep.Info = []metric{{"error_rate", "ratio", float64(rep.Failed) / float64(rep.Attempted), fmt.Sprintf("%d of %d ops failed", rep.Failed, rep.Attempted)}}

	if !cfg.Trace {
		return rep, nil
	}
	// Traced replay of the very same jobs: spans around every layer call,
	// and the MEDs must come out bit for bit as untraced.
	rec := newRecorder()
	replay := func(i int) (fig4Job, bool) {
		if i >= len(planned) {
			return fig4Job{}, false
		}
		return planned[i], true
	}
	tdone, tps, _, tgc := fig4Phase(env, salt, replay, rec)
	for i, d := range tdone {
		rep.Attempted += d.Solves
		if d.VerifyErr != nil {
			rep.Failed += d.Solves
			rep.fail("traced %s seed %d: %v", fig4Funcs[d.Fn], d.Seed, d.VerifyErr)
		} else if d.MED != done[i].MED {
			rep.Failed += d.Solves
			rep.fail("traced %s seed %d: MED %v, untraced %v", fig4Funcs[d.Fn], d.Seed, d.MED, done[i].MED)
		}
	}
	spans := rec.snapshot()
	ix := indexSpans(spans)
	var self, verify, synth []float64
	for _, run := range ix.byName["dalta.Run"] {
		self = append(self, ms(selfTime(run, ix.byParent[run.ID])))
	}
	verify = durationsMS(ix.byName["dalta.Verify"])
	synth = durationsMS(ix.byName["lut.FromOutcome"])
	solveMS := durationsMS(ix.byName["core.solve"])
	copMS := durationsMS(ix.byName["core.cop"])
	formMS := durationsMS(ix.byName["core.formulate"])
	tl, err := summarize(solveMS)
	if err != nil {
		return nil, err
	}
	traced := median(tps.lat)
	ls := layerSet{}
	ls.set("dalta.self_ms", mean(self), fmt.Sprintf("mean over %d decompositions", len(self)))
	ls.set("dalta.core_solves", float64(len(solveMS))/float64(len(tdone)), "per decomposition")
	ls.set("dalta.verify_ms", mean(verify), "mean")
	ls.set("lut.synth_ms", mean(synth), "mean")
	ls.set("core.solve_ms", mean(solveMS), fmt.Sprintf("mean, n=%d", len(solveMS)))
	ls.set("core.solve_tail_ms", tl.Tail, fmt.Sprintf("p%g, %d beyond", tl.TailPct, tl.TailBeyond))
	ls.set("core.cop_ms", mean(copMS), "mean of BuildCOP probes")
	ls.set("core.formulate_ms", mean(formMS), "mean of Formulate probes")
	ls.set("core.search_ms", mean(solveMS)-mean(copMS)-mean(formMS), "solve - cop - formulate")
	ls.set("core.alloc_kb", mean(tps.alloc), "mean TotalAlloc delta per solve")
	ls.set("go.gc_share", tgc, "GC CPU / total CPU, traced phase")
	ls.set("trace.overhead", traced/lat.P50-1, fmt.Sprintf("traced p50 %.2f ms / untraced %.2f ms - 1", traced, lat.P50))
	rep.Layer = ls.list()
	return rep, writeSpans(rec, cfg, "fig4-n16")
}

func writeSpans(rec *recorder, cfg runConfig, workload string) error {
	path := spansPath(cfg.OutDir, workload, cfg.Seed)
	if err := rec.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

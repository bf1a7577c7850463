package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"isinglut"
	"isinglut/internal/benchfn"
	"isinglut/internal/serve"
)

// The serve-decompose workload drives /v1/decompose on one in-process
// daemon at its default configuration. Phase 1 is an open loop at a
// fixed rate about a third of capacity over two connections; phase 2 is a
// closed loop with as many clients as the daemon has workers. Bodies are
// explicit n = 9 truth tables of the six Table 1 functions with light
// P/R and a fresh seed; every fourth request repeats one that is a cache
// hit by construction.
const (
	serveN          = 9
	serveP, serveR  = 4, 2
	serveRate       = 6.0 // requests/s in phase 1
	serveConns      = 2
	serveOpenShare  = 0.75 // of --seconds spent in phase 1
	serveRepeatEach = 4
	serveRepeatGap  = 2 * time.Second
	serveCacheSize  = 256 // the daemon's default LRU capacity
	serveWarmRounds = 3   // rounds of serveConns concurrent warm-up requests
	serveLateBound  = time.Second
	serveCheckCount = 8 // fresh answers re-solved with the library per run
	jitterSeed      = 0x5eed
)

type serveEnv struct {
	tables []*isinglut.Function
	d      *daemon
	client *http.Client
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.d.close()
}

// serveSetup builds the tables, boots the daemon and warms it with fixed
// requests that open both connections and fill the daemon's pools.
func serveSetup(rec *recorder) (*serveEnv, error) {
	env := &serveEnv{client: newClient(serveConns)}
	for _, c := range benchfn.ContinuousBenchmarks() {
		t, err := isinglut.Benchmark(c.Name, serveN)
		if err != nil {
			return nil, err
		}
		env.tables = append(env.tables, t)
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = handlerSpans(rec, "serve.handler", false)
	}
	env.d = boot(ln, serve.Config{JitterSeed: jitterSeed}, wrap)
	for r := 0; r < serveWarmRounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, serveConns)
		for c := 0; c < serveConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				// Rounds 1 keeps warm-up answers out of the workload's
				// cache slots.
				body := env.body(r*serveConns+c, int64(r*serveConns+c+1), 1)
				code, b, err := post(env.client, env.d.url+"/v1/decompose", body, "warm")
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("warm-up status %d: %s", code, b)
				}
				errs[c] = err
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				env.close()
				return nil, err
			}
		}
	}
	return env, nil
}

// body encodes a request for table fn with the given seed and rounds.
func (e *serveEnv) body(fn int, seed int64, rounds int) []byte {
	t := e.tables[fn%len(e.tables)]
	b, err := json.Marshal(serve.DecomposeRequest{
		NumInputs: t.NumInputs(), NumOutputs: t.NumOutputs(), Outputs: t.Outputs(),
		Options: &serve.DecomposeOptions{Partitions: serveP, Rounds: rounds, Seed: seed},
	})
	if err != nil {
		panic(err) // plain structs always encode
	}
	return b
}

// freshSeeds hands out the per-body seeds in order from the workload
// seed, extending as the closed loop asks for more.
type freshSeeds struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seeds []int64
}

func (f *freshSeeds) get(k int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.seeds) <= k {
		f.seeds = append(f.seeds, f.rng.Int63n(1<<40)+1)
	}
	return f.seeds[k]
}

// serveRecord is one request as the client saw it.
type serveRecord struct {
	ID      string
	Deal    deal
	Phase   int
	Code    int
	Err     error
	Body    []byte
	Resp    serve.DecomposeResponse
	Latency time.Duration // phase 1: from due time; phase 2: from send
	Client  time.Duration // from send
}

type servePhases struct {
	records  []*serveRecord
	open     time.Duration // phase 1 wall time
	closed   time.Duration // phase 2 wall time
	closedOK int
	late     time.Duration
	gcShare  float64
}

// runServePhases runs phase 1 and phase 2 against env. The same seed
// deals the same request sequence, so a traced replay sends the same
// bodies.
func runServePhases(env *serveEnv, cfg runConfig) *servePhases {
	seeds := &freshSeeds{rng: rand.New(rand.NewSource(cfg.Seed))}
	mix := newMixer(serveRepeatEach, serveRepeatGap, serveCacheSize-1, rand.New(rand.NewSource(cfg.Seed^0x7e57)))
	openLen := time.Duration(float64(cfg.Seconds) * serveOpenShare)
	count := int(serveRate * openLen.Seconds())
	if count < minOps {
		count = minOps
	}
	dues := evenDues(count, serveRate)
	out := &servePhases{}
	var mu sync.Mutex
	send := func(is deal, phase int, id string) *serveRecord {
		rec := &serveRecord{ID: id, Deal: is, Phase: phase}
		body := env.body(is.Fresh, seeds.get(is.Fresh), serveR)
		t0 := time.Now()
		rec.Code, rec.Body, rec.Err = post(env.client, env.d.url+"/v1/decompose", body, id)
		rec.Client = time.Since(t0)
		if rec.Err == nil && rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body, &rec.Resp); err != nil {
				rec.Err = fmt.Errorf("decoding response: %w", err)
			}
		}
		mu.Lock()
		out.records = append(out.records, rec)
		mu.Unlock()
		return rec
	}

	gc := startGC()
	deals := make([]deal, count)
	for i, d := range dues {
		deals[i] = mix.next(d)
	}
	recs := make([]*serveRecord, count)
	start := time.Now()
	timings, late := runOpenLoop(start, dues, serveConns, func(i int) {
		recs[i] = send(deals[i], 1, "o"+strconv.Itoa(i))
	})
	for i, tm := range timings {
		recs[i].Latency = tm.latency()
	}
	out.open = time.Since(start)
	out.late = late

	// Phase 2: repeats keep targeting phase-1 requests, dealt as of the
	// end of phase 1, so the sequence does not depend on timing.
	closedLen := cfg.Seconds - openLen
	end := openLen
	if last := dues[len(dues)-1]; last > end {
		end = last
	}
	var wg sync.WaitGroup
	var n int
	start = time.Now()
	// next hands out request numbers until the phase has run closedLen
	// and sent minOps requests, so capacity is measured over enough ops.
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start) >= closedLen && n >= minOps {
			return 0, false
		}
		n++
		return n - 1, true
	}
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := next(); ok; i, ok = next() {
				r := send(mix.next(end), 2, "c"+strconv.Itoa(i))
				r.Latency = r.Client
			}
		}()
	}
	wg.Wait()
	out.closed = time.Since(start)
	out.gcShare = gc.share()
	for _, r := range out.records {
		if r.Phase == 2 && r.Err == nil && r.Code == http.StatusOK {
			out.closedOK++
		}
	}
	return out
}

// serveGates checks every response: 200, not degraded, converged; each
// repeat cached with a body identical to its original's.
func serveGates(rep *report, ph *servePhases) map[int]*serveRecord {
	fresh := map[int]*serveRecord{}
	for _, r := range ph.records {
		if r.Err == nil && r.Code == http.StatusOK && !r.Deal.Repeat {
			fresh[r.Deal.Fresh] = r
		}
	}
	for _, r := range ph.records {
		rep.Attempted++
		bad := ""
		switch {
		case r.Err != nil:
			bad = r.Err.Error()
		case r.Code != http.StatusOK:
			bad = fmt.Sprintf("status %d: %s", r.Code, bytes.TrimSpace(r.Body))
		case r.Resp.Degraded:
			bad = "degraded: " + r.Resp.DegradedReason
		case r.Resp.StopReason != "converged":
			bad = "stop reason " + r.Resp.StopReason
		case r.Deal.Repeat:
			orig, ok := fresh[r.Deal.Fresh]
			switch {
			case !r.Resp.Cached:
				bad = "repeat not served from cache"
			case !ok:
				bad = "repeat of a request that failed"
			case !bytes.Equal(bytes.Replace(r.Body, []byte(`"cached":true`), []byte(`"cached":false`), 1), orig.Body):
				bad = "cached body differs from the original answer"
			}
		}
		if bad != "" {
			rep.Failed++
			rep.fail("request %s: %s", r.ID, bad)
		}
	}
	return fresh
}

func runServe(cfg runConfig) (*report, error) {
	env, setupS, err := measureSetup(func() (*serveEnv, error) { return serveSetup(nil) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	ph := runServePhases(env, cfg)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	env.close()
	rep := &report{}
	fresh := serveGates(rep, ph)
	if ph.late > serveLateBound {
		rep.fail("open-loop generator ran %v late, past the %v bound", ph.late, serveLateBound)
	}

	var open []float64
	for _, r := range ph.records {
		if r.Phase == 1 {
			open = append(open, ms(r.Latency))
		}
	}
	lat, err := summarize(open)
	if err != nil {
		return nil, err
	}

	// Outside the timed phases: re-solve a seed-chosen sample of fresh
	// requests with the library and demand the same MED; run the DALTA
	// heuristic on every fresh request for the quality ratio.
	tables := env.tables
	seeds := &freshSeeds{rng: rand.New(rand.NewSource(cfg.Seed))}
	keys := make([]int, 0, len(fresh))
	for k := range fresh {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	pick := rand.New(rand.NewSource(cfg.Seed ^ 0xc4ec)).Perm(len(keys))
	check := map[int]bool{}
	for _, i := range pick[:min(serveCheckCount, len(pick))] {
		check[keys[i]] = true
	}
	var med, base float64
	for _, k := range keys {
		r := fresh[k]
		opts := isinglut.DefaultOptions(serveN)
		opts.Partitions, opts.Rounds, opts.Seed = serveP, serveR, seeds.get(k)
		f := tables[k%len(tables)]
		if check[k] {
			lib, err := isinglut.DecomposeContext(context.Background(), f, opts)
			if err != nil {
				return nil, err
			}
			if lib.MED != r.Resp.MED {
				rep.Failed++
				rep.fail("request %s: MED %v, library %v", r.ID, r.Resp.MED, lib.MED)
			}
		}
		opts.Method = isinglut.MethodDALTA
		dl, err := isinglut.DecomposeContext(context.Background(), f, opts)
		if err != nil {
			return nil, err
		}
		med += r.Resp.MED
		base += dl.MED
	}
	if base <= 0 {
		return nil, fmt.Errorf("DALTA baseline MED is %g", base)
	}
	rep.EndToEnd = []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (boot + %d warm-up requests)", setupRepeats, serveWarmRounds*serveConns)},
		{"p50_ms", "ms", lat.P50, fmt.Sprintf("phase 1 open loop at %g/s, n=%d, from due time", serveRate, lat.Samples)},
		{"tail_ms", "ms", lat.Tail, fmt.Sprintf("p%g, n=%d, %d beyond", lat.TailPct, lat.Samples, lat.TailBeyond)},
		{"ops_per_s", "1/s", float64(ph.closedOK) / ph.closed.Seconds(), fmt.Sprintf("phase 2 closed loop, %d clients, %d ops in %.2f s", serveConns, ph.closedOK, ph.closed.Seconds())},
		{"quality_ratio", "ratio", med / base, fmt.Sprintf("sum MED / sum DALTA MED over %d fresh requests", len(keys))},
		{"mem_mb", "MiB", rss, "VmHWM at the end of the timed phases"},
	}
	rep.Info = []metric{
		{"error_rate", "ratio", float64(rep.Failed) / float64(rep.Attempted), fmt.Sprintf("%d of %d ops failed", rep.Failed, rep.Attempted)},
		{"loadgen.late_ms", "ms", ms(ph.late), fmt.Sprintf("bound %v", serveLateBound)},
	}
	if !cfg.Trace {
		return rep, nil
	}

	// Traced replay on a fresh daemon (an empty cache), same sequence.
	rec := newRecorder()
	tenv, err := serveSetup(rec)
	if err != nil {
		return nil, err
	}
	warm := len(rec.snapshot())
	tph := runServePhases(tenv, cfg)
	tenv.close()
	serveGates(rep, tph)
	spans := rec.snapshot()[warm:]
	ix := indexSpans(spans)
	var handler, solve, overhead, hitMS, transport, topen []float64
	hits, shed, total := 0, 0, 0
	for _, r := range tph.records {
		total++
		if r.Phase == 1 {
			topen = append(topen, ms(r.Latency))
		}
		if r.Code == http.StatusTooManyRequests {
			shed++
		}
		s, ok := ix.request(r.ID, "serve.handler")
		if !ok || r.Err != nil || r.Code != http.StatusOK {
			continue
		}
		handler = append(handler, ms(s.dur()))
		transport = append(transport, ms(r.Client-s.dur()))
		if r.Resp.Cached {
			hits++
			hitMS = append(hitMS, ms(r.Client))
			continue
		}
		solve = append(solve, r.Resp.ElapsedMS)
		overhead = append(overhead, ms(s.dur())-r.Resp.ElapsedMS)
	}
	tl, err := summarize(topen)
	if err != nil {
		return nil, err
	}
	ls := layerSet{}
	ls.set("serve.handler_ms", mean(handler), fmt.Sprintf("mean, n=%d", len(handler)))
	ls.set("serve.solve_ms", mean(solve), "mean elapsed_ms of uncached answers")
	ls.set("serve.overhead_ms", mean(overhead), "handler span - elapsed_ms, uncached")
	ls.set("serve.hit_ratio", float64(hits)/float64(total), fmt.Sprintf("%d of %d", hits, total))
	ls.set("serve.hit_ms", mean(hitMS), "mean client latency of cached answers")
	ls.set("serve.shed", float64(shed), "429 responses")
	ls.set("http.transport_ms", mean(transport), "client latency - handler span")
	ls.set("go.gc_share", tph.gcShare, "GC CPU / total CPU, traced phases")
	ls.set("loadgen.late_ms", ms(tph.late), fmt.Sprintf("bound %v", serveLateBound))
	ls.set("trace.overhead", tl.P50/lat.P50-1, fmt.Sprintf("traced p50 %.2f ms / untraced %.2f ms - 1", tl.P50, lat.P50))
	rep.Layer = ls.list()
	return rep, writeSpans(rec, cfg, "serve-decompose")
}

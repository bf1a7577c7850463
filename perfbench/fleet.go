package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"isinglut"
	"isinglut/internal/serve"
)

// The fleet-shard workload runs a coordinator and two peer daemons
// in-process on loopback, one solver worker per peer, and one client in
// a closed loop. The op is a sharded /v1/solve (shard 256, default
// rounds and variant) of one of a few fixed sparse ±1 spin glasses with
// a fresh seed: it exercises the shard exchange loop, batched
// /v1/solve/batch dispatch, hedging and the peer lifecycle. The glasses
// are the same for every workload seed, which draws the solve seeds:
// glasses differ in how many exchange rounds they take, and a seed that
// drew cheaper glasses would read as a faster program.
const (
	fleetN        = 1024
	fleetDegree   = 6
	fleetGlasses  = 4
	fleetShard    = 256
	fleetWarmOps  = 4
	fleetChecks   = 5 // responses re-solved in-process per run
	fleetSASweeps = 200
	glassSeed     = 0x6a55
	warmGlassSeed = 0x3a11
)

// glass is one spin glass: its couplings, and their wire encoding.
type glass struct {
	couplings []serve.Coupling
	wire      json.RawMessage
}

// problem builds the glass the way the daemon builds a /v1/solve body,
// so energies and in-process solves compare bit for bit.
func (g *glass) problem() *isinglut.IsingProblem {
	p := isinglut.NewIsingProblem(fleetN)
	for _, c := range g.couplings {
		p.SetCoupling(c.I, c.J, c.V)
	}
	return p
}

// newGlass draws a ±1 spin glass on a random graph of average degree
// fleetDegree.
func newGlass(rng *rand.Rand) (*glass, error) {
	seen := map[[2]int]bool{}
	var cs []serve.Coupling
	for len(cs) < fleetN*fleetDegree/2 {
		i, j := rng.Intn(fleetN), rng.Intn(fleetN)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		v := 1.0
		if rng.Intn(2) == 0 {
			v = -1
		}
		cs = append(cs, serve.Coupling{I: i, J: j, V: v})
	}
	wire, err := json.Marshal(cs)
	if err != nil {
		return nil, err
	}
	return &glass{couplings: cs, wire: wire}, nil
}

// shardBody is the /v1/solve request of a sharded solve.
type shardBody struct {
	N         int             `json:"n"`
	Couplings json.RawMessage `json:"couplings"`
	Seed      int64           `json:"seed"`
	Shard     int             `json:"shard"`
}

type fleetEnv struct {
	glasses []*glass
	peers   []*daemon
	coord   *daemon
	client  *http.Client
}

func (e *fleetEnv) close() {
	e.client.CloseIdleConnections()
	if e.coord != nil {
		e.coord.close()
	}
	for _, p := range e.peers {
		p.close()
	}
}

// fleetSetup builds the run's glasses, boots the peers and the
// coordinator, and warms the fleet with fixed solves of a fixed glass:
// enough batch latencies to arm the hedge quantile, warm pools and
// keep-alive connections.
func fleetSetup(seed int64, rec *recorder, batches *batchLog) (*fleetEnv, error) {
	env := &fleetEnv{client: newClient(1)}
	rng := rand.New(rand.NewSource(glassSeed))
	for i := 0; i < fleetGlasses; i++ {
		g, err := newGlass(rng)
		if err != nil {
			return nil, err
		}
		env.glasses = append(env.glasses, g)
	}
	warm, err := newGlass(rand.New(rand.NewSource(warmGlassSeed)))
	if err != nil {
		return nil, err
	}
	if err := env.boot(seed, rec, batches); err != nil {
		env.close()
		return nil, err
	}
	for i := 0; i < fleetWarmOps; i++ {
		r := env.solve(warm, int64(i+1), "warm")
		if r.Err == nil && r.Code != http.StatusOK {
			r.Err = fmt.Errorf("warm-up status %d: %s", r.Code, r.Body)
		}
		if r.Err != nil {
			env.close()
			return nil, r.Err
		}
	}
	return env, nil
}

// boot starts the two peers, then the coordinator in front of them.
func (e *fleetEnv) boot(seed int64, rec *recorder, batches *batchLog) error {
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			return err
		}
		var wrap func(http.Handler) http.Handler
		if rec != nil {
			wrap = peerSpans(rec, batches)
		}
		d := boot(ln, serve.Config{Workers: 1, JitterSeed: seed + int64(i) + 1}, wrap)
		e.peers = append(e.peers, d)
		urls = append(urls, d.url)
	}
	ln, err := listen()
	if err != nil {
		return err
	}
	peers, err := serve.NormalizePeers(urls, ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = handlerSpans(rec, "coord", true)
	}
	e.coord = boot(ln, serve.Config{Peers: peers, JitterSeed: seed}, wrap)
	return nil
}

// fleetRecord is one sharded solve as the client saw it.
type fleetRecord struct {
	ID      string
	Glass   int
	Seed    int64
	Code    int
	Err     error
	Body    []byte
	Resp    serve.SolveResponse
	Latency time.Duration
}

func (e *fleetEnv) solve(g *glass, seed int64, id string) *fleetRecord {
	r := &fleetRecord{ID: id, Seed: seed}
	body, err := json.Marshal(shardBody{N: fleetN, Couplings: g.wire, Seed: seed, Shard: fleetShard})
	if err != nil {
		r.Err = err
		return r
	}
	t0 := time.Now()
	r.Code, r.Body, r.Err = post(e.client, e.coord.url+"/v1/solve", body, id)
	r.Latency = time.Since(t0)
	if r.Err == nil && r.Code == http.StatusOK {
		if err := json.Unmarshal(r.Body, &r.Resp); err != nil {
			r.Err = fmt.Errorf("decoding response: %w", err)
		}
	}
	return r
}

// fleetPhase runs the closed loop until the budget is spent and minOps
// solves are done. Glass and seed of op i depend only on the seed.
func fleetPhase(env *fleetEnv, cfg runConfig, ops int) ([]*fleetRecord, time.Duration, float64) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x51ed))
	var recs []*fleetRecord
	gc := startGC()
	start := time.Now()
	for i := 0; ; i++ {
		if ops > 0 && i >= ops || ops == 0 && i >= minOps && time.Since(start) >= cfg.Seconds {
			break
		}
		gi := i % len(env.glasses)
		r := env.solve(env.glasses[gi], rng.Int63n(1<<40)+1, "s"+strconv.Itoa(i))
		r.Glass = gi
		recs = append(recs, r)
	}
	return recs, time.Since(start), gc.share()
}

func fleetGates(rep *report, probs []*isinglut.IsingProblem, recs []*fleetRecord) {
	for _, r := range recs {
		rep.Attempted++
		bad := ""
		switch {
		case r.Err != nil:
			bad = r.Err.Error()
		case r.Code != http.StatusOK:
			bad = fmt.Sprintf("status %d: %s", r.Code, bytes.TrimSpace(r.Body))
		case r.Resp.Degraded:
			bad = "degraded: " + r.Resp.DegradedReason
		case len(r.Resp.Spins) != fleetN:
			bad = fmt.Sprintf("%d spins", len(r.Resp.Spins))
		default:
			if e := probs[r.Glass].Energy(r.Resp.Spins); e != r.Resp.Energy {
				bad = fmt.Sprintf("energy %v, Energy(spins) %v", r.Resp.Energy, e)
			}
		}
		if bad != "" {
			rep.Failed++
			rep.fail("solve %s: %s", r.ID, bad)
		}
	}
}

func runFleet(cfg runConfig) (*report, error) {
	env, setupS, err := measureSetup(func() (*fleetEnv, error) { return fleetSetup(cfg.Seed, nil, nil) }, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	recs, elapsed, _ := fleetPhase(env, cfg, 0)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	env.close()
	probs := make([]*isinglut.IsingProblem, len(env.glasses))
	for i, g := range env.glasses {
		probs[i] = g.problem()
	}
	rep := &report{}
	fleetGates(rep, probs, recs)
	var lat []float64
	for _, r := range recs {
		lat = append(lat, ms(r.Latency))
	}
	ls, err := summarize(lat)
	if err != nil {
		return nil, err
	}

	// Outside the timed phase: a seed-chosen sample must match the
	// in-process sharded solve bit for bit (the coordinator's contract),
	// and SA on each glass gives the quality baseline.
	pick := rand.New(rand.NewSource(cfg.Seed ^ 0xc4ec)).Perm(len(recs))
	for _, i := range pick[:min(fleetChecks, len(pick))] {
		r := recs[i]
		if r.Err != nil || r.Code != http.StatusOK {
			continue
		}
		res, err := isinglut.SolveIsingShardedContext(context.Background(), probs[r.Glass],
			isinglut.SBOptions{Variant: isinglut.BallisticSB, Seed: r.Seed, MaxShard: fleetShard}, nil)
		if err != nil {
			return nil, err
		}
		if res.Energy != r.Resp.Energy || !slices.Equal(res.Spins, r.Resp.Spins) {
			rep.Failed++
			rep.fail("solve %s: energy %v, in-process sharded solve %v", r.ID, r.Resp.Energy, res.Energy)
		}
	}
	sa := make([]float64, len(probs))
	for i, p := range probs {
		res, err := isinglut.AnnealIsing(p, fleetSASweeps, 3, 0.05, int64(i+1))
		if err != nil {
			return nil, err
		}
		sa[i] = res.Energy
	}
	var saSum, got float64
	for _, r := range recs {
		if r.Err == nil && r.Code == http.StatusOK {
			saSum += sa[r.Glass]
			got += r.Resp.Energy
		}
	}
	n := len(lat)
	rep.EndToEnd = []metric{
		{"setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (3 daemons + %d warm-up solves)", setupRepeats, fleetWarmOps)},
		{"p50_ms", "ms", ls.P50, fmt.Sprintf("sharded solves n=%d", n)},
		{"tail_ms", "ms", ls.Tail, fmt.Sprintf("p%g, n=%d, %d beyond", ls.TailPct, n, ls.TailBeyond)},
		{"ops_per_s", "1/s", float64(n) / elapsed.Seconds(), fmt.Sprintf("%d solves in %.2f s, 1 client", n, elapsed.Seconds())},
		{"quality_ratio", "ratio", saSum / got, fmt.Sprintf("sum SA energy / sum returned energy, %d solves", n)},
		{"mem_mb", "MiB", rss, "VmHWM at the end of the timed phase"},
	}
	rep.Info = []metric{{"error_rate", "ratio", float64(rep.Failed) / float64(rep.Attempted), fmt.Sprintf("%d of %d ops failed", rep.Failed, rep.Attempted)}}
	if !cfg.Trace {
		return rep, nil
	}

	// Traced replay: fresh daemons with span middleware, the same ops.
	rec := newRecorder()
	batches := &batchLog{}
	tenv, err := fleetSetup(cfg.Seed, rec, batches)
	if err != nil {
		return nil, err
	}
	warmSpans := len(rec.snapshot())
	warmItems := batches.len()
	trecs, _, tgc := fleetPhase(tenv, cfg, len(recs))
	tenv.close()
	fleetGates(rep, probs, trecs)
	for i, r := range trecs {
		if r.Err == nil && recs[i].Err == nil && r.Resp.Energy != recs[i].Resp.Energy {
			rep.Failed++
			rep.fail("traced solve %s: energy %v, untraced %v", r.ID, r.Resp.Energy, recs[i].Resp.Energy)
		}
	}
	spans := rec.snapshot()[warmSpans:]
	items := batches.since(warmItems)
	ix := indexSpans(spans)
	var self, transport, tlat, rounds, shards, iters []float64
	for _, r := range trecs {
		tlat = append(tlat, ms(r.Latency))
		c, ok := ix.request(r.ID, "coord")
		if !ok {
			continue
		}
		self = append(self, ms(selfTime(c, ix.byParent[c.ID])))
		transport = append(transport, ms(r.Latency-c.dur()))
		rounds = append(rounds, float64(r.Resp.ShardRounds))
		shards = append(shards, float64(r.Resp.Shards))
		iters = append(iters, float64(r.Resp.Iterations))
	}
	batchSpans := ix.byName["peer.batch"]
	bl, err := summarize(durationsMS(batchSpans))
	if err != nil {
		return nil, err
	}
	tl, err := summarize(tlat)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var itemMS []float64
	for _, it := range items {
		seen[it.Req+"/"+strconv.FormatInt(it.Seed, 10)] = true
		itemMS = append(itemMS, it.ElapsedMS)
	}
	solves := float64(len(trecs))
	l := layerSet{}
	l.set("coord.self_ms", mean(self), "coordinator span - union of its peer batch spans, mean")
	l.set("peer.batch_ms", mean(durationsMS(batchSpans)), fmt.Sprintf("mean, n=%d", len(batchSpans)))
	l.set("peer.batch_tail_ms", bl.Tail, fmt.Sprintf("p%g, %d beyond", bl.TailPct, bl.TailBeyond))
	l.set("peer.item_ms", mean(itemMS), "mean item elapsed_ms")
	l.set("peer.batches", float64(len(batchSpans))/solves, "per sharded solve")
	l.set("peer.items", float64(len(items))/solves, "per sharded solve")
	l.set("peer.dup_ratio", float64(len(items)-len(seen))/float64(max(len(items), 1)), "items solved again / items")
	l.set("shard.rounds", mean(rounds), "mean shard_rounds")
	l.set("shard.shards", mean(shards), "mean shards")
	l.set("shard.iters", mean(iters), "mean iterations")
	l.set("http.transport_ms", mean(transport), "client latency - coordinator span")
	l.set("go.gc_share", tgc, "GC CPU / total CPU, traced phase")
	l.set("trace.overhead", tl.P50/ls.P50-1, fmt.Sprintf("traced p50 %.2f ms / untraced %.2f ms - 1", tl.P50, ls.P50))
	rep.Layer = l.list()
	return rep, writeSpans(rec, cfg, "fleet-shard")
}

// batchItem is one sub-solve a peer answered.
type batchItem struct {
	Req       string // the coordinator request it served
	Seed      int64
	ElapsedMS float64
}

// batchLog collects the items of every traced peer batch.
type batchLog struct {
	mu    sync.Mutex
	items []batchItem
}

func (l *batchLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

func (l *batchLog) since(i int) []batchItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]batchItem(nil), l.items[i:]...)
}

// seedKey precedes each item's seed in a /v1/solve/batch body; scanning
// for it avoids decoding every coupling of the batch while the fleet is
// being timed.
var seedKey = []byte(`"seed":`)

// peerSpans records a span per /v1/solve/batch under the coordinator
// request in flight, and logs the batch's items: their seeds from the
// request body and their elapsed_ms from the response.
func peerSpans(rec *recorder, log *batchLog) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/solve/batch" {
				h.ServeHTTP(w, r)
				return
			}
			id := rec.beginNested("peer.batch")
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				rec.end(id)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			rec.end(id)

			var resp serve.SolveBatchResponse
			json.Unmarshal(cw.buf.Bytes(), &resp) // a failed batch logs no items
			var seeds []int64
			for rest := body; ; {
				k := bytes.Index(rest, seedKey)
				if k < 0 {
					break
				}
				rest = rest[k+len(seedKey):]
				end := bytes.IndexAny(rest, ",}")
				if end < 0 {
					break
				}
				s, _ := strconv.ParseInt(string(rest[:end]), 10, 64)
				seeds = append(seeds, s)
			}
			req := rec.spanReq(id)
			log.mu.Lock()
			for i, it := range resp.Items {
				bi := batchItem{Req: req}
				if i < len(seeds) {
					bi.Seed = seeds[i]
				}
				if it.Response != nil {
					bi.ElapsedMS = it.Response.ElapsedMS
				}
				log.items = append(log.items, bi)
			}
			log.mu.Unlock()
		})
	}
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

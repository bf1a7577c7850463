package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"isinglut"
	"isinglut/internal/metrics"
)

// testServer builds a Server with small, test-friendly bounds and mounts
// it under httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// quickOptions keeps decompose requests fast enough for unit tests.
func quickOptions() *DecomposeOptions {
	return &DecomposeOptions{Rounds: 1, Partitions: 2, Seed: 3}
}

// TestDecomposeBenchmarkRoundTrip: the service must produce the same
// result as calling the library directly with equal options.
func TestDecomposeBenchmarkRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 7, Options: quickOptions(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[DecomposeResponse](t, resp)

	exact, err := isinglut.Benchmark("exp", 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := isinglut.DefaultOptions(7)
	opts.Rounds, opts.Partitions, opts.Seed = 1, 2, 3
	want, err := isinglut.Decompose(exact, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.MED != want.MED || got.ER != want.ER || got.WorstED != want.WorstED {
		t.Fatalf("served errors (MED=%g ER=%g worst=%d) != library (MED=%g ER=%g worst=%d)",
			got.MED, got.ER, got.WorstED, want.MED, want.ER, want.WorstED)
	}
	if got.LUTBits != want.Design.TotalBits() || got.FlatBits != want.Design.FlatBits() {
		t.Fatalf("served LUT bits %d/%d != library %d/%d",
			got.LUTBits, got.FlatBits, want.Design.TotalBits(), want.Design.FlatBits())
	}
	if got.StopReason != "converged" {
		t.Fatalf("stop_reason %q, want converged", got.StopReason)
	}
	if got.Cached {
		t.Fatal("first request reported cached")
	}
	if got.N != 7 || got.M != exact.NumOutputs() {
		t.Fatalf("shape n=%d m=%d, want n=7 m=%d", got.N, got.M, exact.NumOutputs())
	}
	wantComponents := 0
	for _, c := range want.Components {
		if c != nil {
			wantComponents++
		}
	}
	if len(got.Components) != wantComponents {
		t.Fatalf("served %d components, library committed %d", len(got.Components), wantComponents)
	}
}

// TestDecomposeExplicitTableRoundTrip drives the truth-table wire format
// end to end, including the mask-based component report.
func TestDecomposeExplicitTableRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	f := isinglut.FunctionFromFunc(5, 3, func(x uint64) uint64 { return (x * 5) >> 2 })
	resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		NumInputs: 5, NumOutputs: 3, Outputs: f.Outputs(),
		Options: quickOptions(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[DecomposeResponse](t, resp)
	if got.N != 5 || got.M != 3 {
		t.Fatalf("shape n=%d m=%d, want 5/3", got.N, got.M)
	}
	for _, c := range got.Components {
		if c.MaskA == 0 || c.MaskA&c.MaskB != 0 {
			t.Fatalf("component %d has implausible masks A=%#x B=%#x", c.K, c.MaskA, c.MaskB)
		}
	}
}

// TestSolveRoundTrip checks the raw Ising endpoint against the library
// and validates the returned spins against the returned energy.
func TestSolveRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := SolveRequest{
		N: 8,
		Couplings: []Coupling{
			{I: 0, J: 1, V: 1}, {I: 1, J: 2, V: -1}, {I: 2, J: 3, V: 1},
			{I: 4, J: 5, V: -2}, {I: 5, J: 6, V: 1}, {I: 6, J: 7, V: -1},
			{I: 0, J: 7, V: 0.5},
		},
		Biases: []float64{0.1, 0, -0.2, 0, 0.3, 0, 0, -0.1},
		Steps:  400, Seed: 11, Replicas: 2,
	}
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[SolveResponse](t, resp)
	if len(got.Spins) != req.N {
		t.Fatalf("got %d spins, want %d", len(got.Spins), req.N)
	}
	p := isinglut.NewIsingProblem(req.N)
	for _, c := range req.Couplings {
		p.SetCoupling(c.I, c.J, c.V)
	}
	for i, b := range req.Biases {
		p.SetBias(i, b)
	}
	if e := p.Energy(got.Spins); e != got.Energy {
		t.Fatalf("served energy %g does not match served spins (%g)", got.Energy, e)
	}
	want, err := isinglut.SolveIsing(p, isinglut.SBOptions{Steps: 400, Seed: 11, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Energy {
		t.Fatalf("served energy %g != library energy %g", got.Energy, want.Energy)
	}
}

// TestCacheHitSkipsSolver: a repeated identical request must be a
// measured cache hit — the cached flag flips, the hit counter moves, and
// no additional solver run happens.
func TestCacheHitSkipsSolver(t *testing.T) {
	_, ts := testServer(t, Config{})
	met := metrics.ForService("serve.decompose")
	req := DecomposeRequest{Benchmark: "cos", N: 6, Options: quickOptions()}

	hits0, misses0 := met.CacheHits.Load(), met.CacheMisses.Load()
	first := decodeBody[DecomposeResponse](t, postJSON(t, ts.URL+"/v1/decompose", req))
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	if met.CacheMisses.Load() != misses0+1 {
		t.Fatalf("miss counter %d, want %d", met.CacheMisses.Load(), misses0+1)
	}

	daltaRuns := metrics.ForSolver("dalta").Runs.Load()
	second := decodeBody[DecomposeResponse](t, postJSON(t, ts.URL+"/v1/decompose", req))
	if !second.Cached {
		t.Fatal("repeated identical request was not served from the cache")
	}
	if met.CacheHits.Load() != hits0+1 {
		t.Fatalf("hit counter %d, want %d", met.CacheHits.Load(), hits0+1)
	}
	if got := metrics.ForSolver("dalta").Runs.Load(); got != daltaRuns {
		t.Fatalf("cache hit still ran the solver (dalta runs %d -> %d)", daltaRuns, got)
	}
	// Everything but the cached flag must match the original answer.
	second.Cached = false
	first.ElapsedMS, second.ElapsedMS = 0, 0
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached response diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestCacheKeyUnifiesBenchmarkAndExplicitTable: the cache key hashes the
// truth table itself, so the same function submitted by name or by table
// shares one entry.
func TestCacheKeyUnifiesBenchmarkAndExplicitTable(t *testing.T) {
	_, ts := testServer(t, Config{})
	byName := decodeBody[DecomposeResponse](t, postJSON(t, ts.URL+"/v1/decompose",
		DecomposeRequest{Benchmark: "tan", N: 6, Options: quickOptions()}))
	if byName.Cached {
		t.Fatal("first request reported cached")
	}
	f, err := isinglut.Benchmark("tan", 6)
	if err != nil {
		t.Fatal(err)
	}
	byTable := decodeBody[DecomposeResponse](t, postJSON(t, ts.URL+"/v1/decompose",
		DecomposeRequest{NumInputs: 6, NumOutputs: f.NumOutputs(), Outputs: f.Outputs(), Options: quickOptions()}))
	if !byTable.Cached {
		t.Fatal("explicit-table resubmission of the same function missed the cache")
	}
	if byTable.MED != byName.MED || byTable.LUTBits != byName.LUTBits {
		t.Fatalf("cache returned a different answer: %+v vs %+v", byTable, byName)
	}
}

// TestDeadlinePropagation: a tight timeout_ms must interrupt the solve
// and return the verified best-so-far result with the deadline stop
// reason — and that truncated result must NOT be cached.
func TestDeadlinePropagation(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := SolveRequest{
		N: 64, Steps: 200_000_000, Seed: 5,
		Couplings: ringCouplings(64),
		TimeoutMS: 120,
	}
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[SolveResponse](t, resp)
	if got.StopReason != "deadline" {
		t.Fatalf("stop_reason %q, want deadline", got.StopReason)
	}
	if got.Iterations >= req.Steps {
		t.Fatalf("deadline did not interrupt the run (%d iterations)", got.Iterations)
	}
	if len(got.Spins) != req.N {
		t.Fatalf("best-so-far state missing: %d spins", len(got.Spins))
	}
	// The truncated result must not shadow the full answer in the cache.
	again := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", req))
	if again.Cached {
		t.Fatal("deadline-truncated result was cached")
	}
}

// TestDecomposeDeadlineReturnsBestSoFar mirrors deadline propagation on
// the decompose path: the response is a verified partial outcome, not an
// error.
func TestDecomposeDeadlineReturnsBestSoFar(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 9,
		Options:   &DecomposeOptions{Rounds: 50, Partitions: 32, Seed: 2},
		TimeoutMS: 150,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[DecomposeResponse](t, resp)
	if got.StopReason != "deadline" {
		t.Fatalf("stop_reason %q, want deadline", got.StopReason)
	}
	if got.LUTBits <= 0 || got.FlatBits <= 0 {
		t.Fatalf("partial outcome carries no synthesized design: %+v", got)
	}
}

// TestAdmissionControlShedsWith429: with one worker and a queue of one,
// a third concurrent request must be shed with 429 + Retry-After while
// the first two are still in flight.
func TestAdmissionControlShedsWith429(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	slow := SolveRequest{
		N: 64, Steps: 500_000_000, Seed: 1,
		Couplings: ringCouplings(64),
		TimeoutMS: 5000,
	}
	type result struct {
		status int
		body   SolveResponse
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			req := slow
			req.Seed = seed // distinct cache keys
			resp := postJSON(t, ts.URL+"/v1/solve", req)
			results <- result{resp.StatusCode, decodeBody[SolveResponse](t, resp)}
		}(int64(i + 1))
	}
	// Wait until the pool is saturated: 1 running + 1 queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.running()+s.pool.queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated (running=%d queued=%d)", s.pool.running(), s.pool.queued())
		}
		time.Sleep(5 * time.Millisecond)
	}

	shed := slow
	shed.Seed = 99
	shedMet := metrics.ForService("serve.solve")
	shed0 := shedMet.Shed.Load()
	resp := postJSON(t, ts.URL+"/v1/solve", shed)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body not an error envelope: %v %q", err, e.Error)
	}
	resp.Body.Close()
	if got := shedMet.Shed.Load(); got != shed0+1 {
		t.Fatalf("shed counter %d, want %d", got, shed0+1)
	}

	// The two admitted requests still complete (their deadlines interrupt
	// them into best-so-far answers).
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request got status %d", r.status)
		}
		if len(r.body.Spins) != slow.N {
			t.Fatalf("admitted request returned %d spins", len(r.body.Spins))
		}
	}
}

// TestHealthz pins the liveness payload shape.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 3, QueueDepth: 7})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h := decodeBody[Health](t, resp)
	if h.Status != "ok" || h.Workers != 3 || h.QueueDepth != 7 {
		t.Fatalf("unexpected health: %+v", h)
	}
}

// TestExpvarExposed: the daemon's /debug/vars must include both metric
// families.
func TestExpvarExposed(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"isinglut.metrics", "isinglut.services"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/vars missing %q", want)
		}
	}
}

// TestRequestValidation pins the 400 paths: malformed JSON, unknown
// fields, contradictory and out-of-range requests.
func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxInputs: 9, MaxSpins: 32})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed", "/v1/decompose", `{`},
		{"unknown field", "/v1/decompose", `{"bench":"exp","n":9}`},
		{"no function", "/v1/decompose", `{"options":{"rounds":1}}`},
		{"both modes", "/v1/decompose", `{"benchmark":"exp","n":6,"num_inputs":3,"num_outputs":1,"outputs":[0,1,0,1,0,1,0,1]}`},
		{"n too large", "/v1/decompose", `{"benchmark":"exp","n":12}`},
		{"bad mode", "/v1/decompose", `{"benchmark":"exp","n":6,"options":{"mode":"sideways"}}`},
		{"bad benchmark", "/v1/decompose", `{"benchmark":"nope","n":6}`},
		{"outputs length", "/v1/decompose", `{"num_inputs":3,"num_outputs":1,"outputs":[0,1]}`},
		{"solve n=0", "/v1/solve", `{"n":0}`},
		{"solve too large", "/v1/solve", `{"n":64}`},
		{"bad coupling", "/v1/solve", `{"n":4,"couplings":[{"i":0,"j":9,"v":1}]}`},
		{"self coupling", "/v1/solve", `{"n":4,"couplings":[{"i":2,"j":2,"v":1}]}`},
		{"bias length", "/v1/solve", `{"n":4,"biases":[1,2]}`},
		{"bad variant", "/v1/solve", `{"n":4,"variant":"qsb"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		e := decodeBody[errorResponse](t, resp)
		if e.Error == "" {
			t.Fatalf("%s: empty error envelope", tc.name)
		}
	}
}

// ringCouplings builds a frustrated ring, a cheap problem shape whose
// size is easy to scale in tests.
func ringCouplings(n int) []Coupling {
	cs := make([]Coupling, 0, n)
	for i := 0; i < n; i++ {
		v := 1.0
		if i%3 == 0 {
			v = -1
		}
		cs = append(cs, Coupling{I: i, J: (i + 1) % n, V: v})
	}
	return cs
}

// TestSolveSparseSharesCacheSlot: the CSR coupler is bit-identical to the
// dense one, so "sparse": true is excluded from the cache key — a sparse
// request fills the slot its plain twin reads.
func TestSolveSparseSharesCacheSlot(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := SolveRequest{
		N: 12, Couplings: ringCouplings(12),
		Steps: 300, Seed: 8, Replicas: 2,
	}
	sparseReq := base
	sparseReq.Sparse = true
	first := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", sparseReq))
	if first.Cached {
		t.Fatal("first sparse request reported cached")
	}
	second := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", base))
	if !second.Cached {
		t.Fatal("plain request missed the cache slot its sparse twin filled")
	}
	if second.Energy != first.Energy {
		t.Fatalf("cached energy %g != sparse energy %g", second.Energy, first.Energy)
	}
}

// TestSolveQuantNeverCached: quantized answers carry fixed-point numerics
// and share their key with the exact request form, so they are never
// stored — but a quant request may ride an exact entry already in the
// slot (the cached answer is at least as accurate as the one requested).
func TestSolveQuantNeverCached(t *testing.T) {
	_, ts := testServer(t, Config{})
	base := SolveRequest{
		N: 10, Couplings: ringCouplings(10),
		Variant: "dsb", Steps: 300, Seed: 4, Replicas: 2,
	}
	quantReq := base
	quantReq.Quant = true

	first := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", quantReq))
	if first.Cached {
		t.Fatal("first quant request reported cached")
	}
	if !first.Quantized {
		t.Fatal("quant request did not take the fast path")
	}
	second := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", quantReq))
	if second.Cached {
		t.Fatal("quantized result was stored in the cache")
	}

	exact := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", base))
	if exact.Cached {
		t.Fatal("exact request hit a cache entry a quant solve should not have stored")
	}
	if exact.Quantized {
		t.Fatal("exact request reports Quantized")
	}
	rider := decodeBody[SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", quantReq))
	if !rider.Cached {
		t.Fatal("quant request did not ride the exact cache entry")
	}
	if rider.Quantized {
		t.Fatal("cache hit reports Quantized (the stored answer is exact)")
	}
	if rider.Energy != exact.Energy {
		t.Fatalf("ridden entry energy %g != exact energy %g", rider.Energy, exact.Energy)
	}
}

// TestSolveQuantRequiresDSB: "quant": true with a non-dsb variant is a
// request error, mirroring the library-level validation.
func TestSolveQuantRequiresDSB(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		N: 6, Couplings: ringCouplings(6), Steps: 100, Quant: true,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	e := decodeBody[errorResponse](t, resp)
	if e.Error == "" {
		t.Fatal("empty error envelope")
	}
}

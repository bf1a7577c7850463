package serve

import (
	"bytes"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestSolveRequestValidation walks every numeric knob of /v1/solve
// through its invalid range and requires a 400: malformed input is the
// client's error and must never reach the solver layer, whose parameter
// checks panic by design.
func TestSolveRequestValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxSteps: 1000, MaxReplicas: 8})
	base := func() SolveRequest {
		return SolveRequest{N: 4, Steps: 10, Couplings: ringCouplings(4)}
	}
	cases := []struct {
		name    string
		mutate  func(*SolveRequest)
		mention string
		raw     string // posted verbatim when set ({"items": …} to /v1/solve/batch)
	}{
		{"negative timeout", func(r *SolveRequest) { r.TimeoutMS = -1 }, "timeout_ms", ""},
		{"negative steps", func(r *SolveRequest) { r.Steps = -5 }, "steps", ""},
		{"steps over limit", func(r *SolveRequest) { r.Steps = 1001 }, "limit", ""},
		{"negative dt", func(r *SolveRequest) { r.Dt = -0.1 }, "dt", ""},
		{"negative replicas", func(r *SolveRequest) { r.Replicas = -1 }, "replicas", ""},
		{"replicas over limit", func(r *SolveRequest) { r.Replicas = 9 }, "limit", ""},
		{"negative workers", func(r *SolveRequest) { r.Workers = -1 }, "workers", ""},
		{"negative stop window", func(r *SolveRequest) { r.DynamicStop = true; r.S = -1 }, "s must be", ""},
		{"negative epsilon", func(r *SolveRequest) { r.DynamicStop = true; r.Epsilon = -1 }, "epsilon", ""},
		{"out-of-range coupling index", func(r *SolveRequest) {
			r.Couplings = []Coupling{{I: 0, J: 9, V: 1}}
		}, "out of range", ""},
		{"bias length mismatch", func(r *SolveRequest) { r.Biases = []float64{1} }, "biases", ""},
		// "fused", "sparse" and "bitpack" are not request fields (the
		// instance picks its kernels): the strict decoder refuses them like
		// any other unknown field.
		{"fused field", nil, "fused", `{"n":4,"steps":10,"couplings":[{"i":0,"j":1,"v":1}],"fused":true}`},
		{"sparse field", nil, "sparse", `{"n":4,"steps":10,"couplings":[{"i":0,"j":1,"v":1}],"sparse":true}`},
		{"bitpack field", nil, "bitpack", `{"n":4,"steps":10,"variant":"dsb","quant":true,"couplings":[{"i":0,"j":1,"v":1}],"bitpack":true}`},
		{"sparse batch item", nil, "sparse", `{"items":[{"n":4,"steps":10,"sparse":true}]}`},
		{"bitpack batch item", nil, "bitpack", `{"items":[{"n":4,"steps":10,"variant":"dsb","quant":true,"bitpack":true}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			if tc.raw != "" {
				path := "/v1/solve"
				if strings.HasPrefix(tc.raw, `{"items"`) {
					path += "/batch"
				}
				var err error
				resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				req := base()
				tc.mutate(&req)
				resp = postJSON(t, ts.URL+"/v1/solve", req)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if body := decodeBody[errorResponse](t, resp); !strings.Contains(body.Error, tc.mention) {
				t.Fatalf("error %q does not mention %q", body.Error, tc.mention)
			}
		})
	}
}

// TestSolveRequestOutOfRangeNumber: JSON cannot spell NaN/Inf literally,
// but an overflowing number like 1e999 is the wire-level equivalent; the
// decoder must turn it into a 400, not a 500.
func TestSolveRequestOutOfRangeNumber(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"n":4,"steps":10,"couplings":[{"i":0,"j":1,"v":1e999}]}`
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestBuildSolveRejectsNonFiniteValues drives buildSolve directly with
// the NaN/Inf payloads that cannot arrive through JSON, pinning the
// belt-and-braces layer that protects any future non-JSON ingress.
func TestBuildSolveRejectsNonFiniteValues(t *testing.T) {
	s := New(Config{})
	base := func() SolveRequest {
		return SolveRequest{N: 4, Steps: 10, Couplings: ringCouplings(4)}
	}
	cases := []struct {
		name   string
		mutate func(*SolveRequest)
	}{
		{"nan coupling", func(r *SolveRequest) { r.Couplings[0].V = math.NaN() }},
		{"inf coupling", func(r *SolveRequest) { r.Couplings[0].V = math.Inf(1) }},
		{"nan bias", func(r *SolveRequest) { r.Biases = []float64{math.NaN(), 0, 0, 0} }},
		{"nan dt", func(r *SolveRequest) { r.Dt = math.NaN() }},
		{"inf dt", func(r *SolveRequest) { r.Dt = math.Inf(1) }},
		{"nan epsilon", func(r *SolveRequest) { r.DynamicStop = true; r.Epsilon = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base()
			tc.mutate(&req)
			if _, _, err := s.buildSolve(&req); err == nil {
				t.Fatal("buildSolve accepted a non-finite value")
			}
		})
	}
}

// TestDecomposeNegativeTimeout: /v1/decompose shares the timeout_ms
// contract with /v1/solve.
func TestDecomposeNegativeTimeout(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/decompose", DecomposeRequest{
		Benchmark: "exp", N: 6, Options: quickOptions(), TimeoutMS: -1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

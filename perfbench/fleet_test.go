package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"isinglut/internal/serve"
)

// TestPeerSpansLogItemsUnderTheOpenRoot checks the peer middleware: a
// batch span nests under the coordinator request in flight, and every
// item is logged with its seed (scanned from the request body) and its
// elapsed_ms (decoded from the response).
func TestPeerSpansLogItemsUnderTheOpenRoot(t *testing.T) {
	peer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve/batch" {
			return
		}
		var req serve.SolveBatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		var resp serve.SolveBatchResponse
		for i := range req.Items {
			resp.Items = append(resp.Items, serve.SolveBatchItem{Response: &serve.SolveResponse{ElapsedMS: float64(i + 1)}})
		}
		json.NewEncoder(w).Encode(resp)
	})
	rec, log := newRecorder(), &batchLog{}
	srv := httptest.NewServer(peerSpans(rec, log)(peer))
	defer srv.Close()

	body, err := json.Marshal(serve.SolveBatchRequest{Items: []serve.SolveRequest{
		{N: 2, Couplings: []serve.Coupling{{I: 0, J: 1, V: -1}}, Seed: 41},
		{N: 3, Biases: []float64{0.5, 1, 2}, Seed: 1 << 40},
	}})
	if err != nil {
		t.Fatal(err)
	}
	root := rec.begin("coord", "s3", 0)
	rec.setCurrent(root)
	res, err := http.Post(srv.URL+"/v1/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	rec.clearCurrent(root)
	rec.end(root)

	items := log.since(0)
	want := []batchItem{{Req: "s3", Seed: 41, ElapsedMS: 1}, {Req: "s3", Seed: 1 << 40, ElapsedMS: 2}}
	if len(items) != len(want) {
		t.Fatalf("logged %d items, want %d", len(items), len(want))
	}
	for i := range want {
		if items[i] != want[i] {
			t.Errorf("item %d: %+v, want %+v", i, items[i], want[i])
		}
	}
	ix := indexSpans(rec.snapshot())
	if b := ix.byParent[root]; len(b) != 1 || b[0].Name != "peer.batch" {
		t.Errorf("root children %+v, want one peer.batch span", b)
	}

	// Other paths (the coordinator's /readyz probes) pass through unlogged.
	res, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if log.len() != 2 || len(ix.byName["peer.batch"]) != 1 {
		t.Error("a non-batch request was recorded")
	}
}

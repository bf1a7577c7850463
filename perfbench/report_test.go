package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program reports in step with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("%s: program reports unit %q, BENCHMARK.json says %q", m.Name, u, m.Unit)
		}
	}
	if strings.Join(e2e, ",") != strings.Join(endToEndNames, ",") {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEndNames)
	}
	if strings.Join(layer, ",") != strings.Join(layerNames, ",") {
		t.Errorf("per_layer %v, program reports %v", layer, layerNames)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestResultLineIsLastAndCarriesTheChosenSet(t *testing.T) {
	r := &report{Workload: "w", Attempted: 120, Failed: 0,
		EndToEnd: []metric{{Name: "p50_ms", Unit: "ms", Value: 1.5}},
		Layer:    []metric{{Name: "core.solve_ms", Unit: "ms", Value: 2.5}},
	}
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := r.print(&buf, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		want := "p50_ms"
		if traced {
			want = "core.solve_ms"
		}
		if _, ok := line.Metrics[want]; !ok || len(line.Metrics) != 1 || !line.Correct || line.Attempted != 120 {
			t.Errorf("traced=%v: result %+v", traced, line)
		}
	}
	r.fail("broken")
	var buf bytes.Buffer
	r.print(&buf, false)
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Error("a failed gate must print correct:false")
	}
}

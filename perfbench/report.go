package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported figure. Note says what it was computed from
// (sample count, percentile) for the human-readable table.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report is what one workload run produced.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	// Problems lists every correctness-gate failure.
	Problems []string
	// EndToEnd and Layer hold the metrics of BENCHMARK.json's end_to_end
	// and per_layer lists; which set is printed depends on --trace.
	EndToEnd []metric
	Layer    []metric
	// Info lines are printed with the table but not in the result line.
	Info []metric
}

func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// endToEndNames and layerNames fix the metric sets each workload reports,
// in BENCHMARK.json order. error_rate is not among them: it is zero in
// every valid run, and the result line's failed/attempted carry it.
var endToEndNames = []string{"setup_s", "p50_ms", "tail_ms", "ops_per_s", "quality_ratio", "mem_mb"}

var layerNames = []string{
	"dalta.self_ms", "dalta.core_solves", "dalta.verify_ms", "lut.synth_ms",
	"core.solve_ms", "core.solve_tail_ms", "core.cop_ms", "core.formulate_ms", "core.search_ms", "core.alloc_kb",
	"serve.handler_ms", "serve.solve_ms", "serve.overhead_ms", "serve.hit_ratio", "serve.hit_ms", "serve.shed",
	"http.transport_ms",
	"coord.self_ms", "peer.batch_ms", "peer.batch_tail_ms", "peer.item_ms", "peer.batches", "peer.items", "peer.dup_ratio",
	"shard.rounds", "shard.shards", "shard.iters",
	"go.gc_share", "loadgen.late_ms", "trace.overhead",
}

// layerUnits gives each per-layer metric's unit.
var layerUnits = map[string]string{
	"dalta.core_solves": "count", "core.alloc_kb": "KiB",
	"serve.hit_ratio": "ratio", "serve.shed": "count",
	"peer.batches": "count", "peer.items": "count", "peer.dup_ratio": "ratio",
	"shard.rounds": "count", "shard.shards": "count", "shard.iters": "count",
	"go.gc_share": "ratio", "trace.overhead": "ratio",
}

func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "ms"
}

// layerSet collects per-layer values; metrics of layers a workload does
// not run stay 0 (no time spent there, no work counted).
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, note string) {
	l[name] = metric{Name: name, Unit: layerUnit(name), Value: v, Note: note}
}

func (l layerSet) list() []metric {
	out := make([]metric, 0, len(layerNames))
	for _, n := range layerNames {
		m, ok := l[n]
		if !ok {
			m = metric{Name: n, Unit: layerUnit(n), Note: "layer not on this workload's path"}
		}
		out = append(out, m)
	}
	return out
}

// resultLine is the final JSON object of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table, then the result line last.
func (r *report) print(w io.Writer, traced bool) error {
	set := r.EndToEnd
	if traced {
		set = r.Layer
	}
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	rows := append([]metric(nil), set...)
	for _, m := range r.Info {
		if !hasMetric(set, m.Name) {
			rows = append(rows, m)
		}
	}
	for _, m := range rows {
		fmt.Fprintf(w, "  %-20s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", p)
	}
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultValue{}}
	for _, m := range set {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		line.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func hasMetric(ms []metric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// checkNames guards the metric sets against drifting from the lists.
func checkNames(got []metric, want []string) error {
	names := make([]string, len(got))
	for i, m := range got {
		names[i] = m.Name
	}
	a, b := append([]string(nil), names...), append([]string(nil), want...)
	sort.Strings(a)
	sort.Strings(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("metrics %v, want %v", names, want)
	}
	return nil
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request id shared by one op's spans
	// Start and End are offsets from the recorder's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the length of a traced run. A nil
// recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// current is the one root span other daemons' spans nest under (the
	// coordinator request in flight); 0 when none is open.
	current int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, req string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// setCurrent marks id as the open root that spans begun with
// beginNested attach to; clearCurrent(id) undoes it if still current.
// With one client in flight there is at most one such root at a time.
func (r *recorder) setCurrent(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.current = id
	r.mu.Unlock()
}

func (r *recorder) clearCurrent(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.current == id {
		r.current = 0
	}
	r.mu.Unlock()
}

// beginNested opens a span under the current root, inheriting its
// request id.
func (r *recorder) beginNested(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	parent, req := r.current, ""
	if parent != 0 {
		req = r.spans[parent-1].Req
	}
	r.mu.Unlock()
	return r.begin(name, req, parent)
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores the closed spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups closed spans by name and by parent.
type spanIndex struct {
	byName    map[string][]span
	byParent  map[int][]span
	byReqName map[string]span // "req\x00name" -> span, for one-per-request names
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, byParent: map[int][]span{}, byReqName: map[string]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
		}
		if s.Req != "" {
			ix.byReqName[s.Req+"\x00"+s.Name] = s
		}
	}
	return ix
}

func (ix spanIndex) request(req, name string) (span, bool) {
	s, ok := ix.byReqName[req+"\x00"+name]
	return s, ok
}

// selfTime is the part of the parent's interval that none of its
// children cover: the parent's duration minus the union of the
// children's intervals clipped to it.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS returns the spans' durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// spansPath names the file a traced run writes its spans to.
func spansPath(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}

// spanReq returns span id's request id.
func (r *recorder) spanReq(id int) string {
	if r == nil || id == 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Req
}

package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The kinds of instrument set: each has its section in a Snapshot, and
// Render labels each line with its set's kind.
const (
	kindSolver  = "solver"
	kindService = "service"
	kindShard   = "shard"
)

// registry holds every instrument set in registration order.
var registry struct {
	sync.Mutex
	sets []*set
}

// set is one registered instrument set: the Solver, Service or Sharding
// it was built as, and that struct's metric-tagged fields in declaration
// order, which Reset and Read walk.
type set struct {
	kind, name string
	owner      any
	list       []entry
}

// entry is one instrument of a set under its JSON name; a Timer's tag may
// add ",mean_name" to report its mean too.
type entry struct {
	name, mean string
	inst       instrument
}

// instrument is a *Counter, *Timer or *Histogram.
type instrument interface{ reset() }

// register returns the set of that kind and name, building it on first
// use.
func register[T any](kind, name string, build func() *T) *T {
	registry.Lock()
	defer registry.Unlock()
	for _, s := range registry.sets {
		if s.kind == kind && s.name == name {
			return s.owner.(*T)
		}
	}
	owner := build()
	s := &set{kind: kind, name: name, owner: owner}
	v := reflect.ValueOf(owner).Elem()
	for i := range v.NumField() {
		tag, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, mean, _ := strings.Cut(tag, ",")
		inst := v.Field(i).Addr().Interface()
		if h, ok := inst.(**Histogram); ok {
			inst = *h
		}
		s.list = append(s.list, entry{name: name, mean: mean, inst: inst.(instrument)})
	}
	registry.sets = append(registry.sets, s)
	return owner
}

// Reset zeroes every registered instrument. Intended for tests and for
// long-running processes that scrape-and-reset.
func Reset() {
	registry.Lock()
	defer registry.Unlock()
	for _, s := range registry.sets {
		for _, e := range s.list {
			e.inst.reset()
		}
	}
}

// Snapshot is a point-in-time copy of every registered set, by kind, in
// registration order.
type Snapshot struct {
	Solvers  []SetSnapshot `json:"solvers"`
	Services []SetSnapshot `json:"services"`
	Shard    SetSnapshot   `json:"shard"`
}

// SetSnapshot is a point-in-time copy of one set's instruments.
type SetSnapshot struct {
	Name   string
	Values []Value
}

// Value is one instrument's reading under its JSON name.
type Value struct {
	Name string
	// N is a counter's value, or a timer's total or mean in nanoseconds
	// (Time set).
	N    int64
	Time bool
	// Hist holds a histogram's buckets (nil for counters and timers).
	Hist *HistogramSnapshot
}

// Read copies every registered set. The result is a deep copy: callers
// may hold it, marshal it, or diff two snapshots while the instruments
// keep counting.
func Read() Snapshot {
	registry.Lock()
	defer registry.Unlock()
	snap := Snapshot{Solvers: []SetSnapshot{}, Services: []SetSnapshot{}}
	for _, s := range registry.sets {
		ss := SetSnapshot{Name: s.name}
		for _, e := range s.list {
			switch m := e.inst.(type) {
			case *Counter:
				ss.Values = append(ss.Values, Value{Name: e.name, N: m.Load()})
			case *Timer:
				ss.Values = append(ss.Values, Value{Name: e.name, N: int64(m.Total()), Time: true})
				if e.mean != "" {
					ss.Values = append(ss.Values, Value{Name: e.mean, N: int64(m.Mean()), Time: true})
				}
			case *Histogram:
				h := m.Snapshot()
				ss.Values = append(ss.Values, Value{Name: e.name, Hist: &h})
			}
		}
		switch s.kind {
		case kindSolver:
			snap.Solvers = append(snap.Solvers, ss)
		case kindService:
			snap.Services = append(snap.Services, ss)
		default:
			snap.Shard = ss
		}
	}
	return snap
}

// MarshalJSON writes the set as one object: its name, then each value
// under its JSON name.
func (s SetSnapshot) MarshalJSON() ([]byte, error) {
	b := appendJSON([]byte(`{"name":`), s.Name)
	for _, v := range s.Values {
		b = append(appendJSON(append(b, ','), v.Name), ':')
		if v.Hist != nil {
			b = appendJSON(b, v.Hist)
		} else {
			b = strconv.AppendInt(b, v.N, 10)
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends v's JSON encoding. It takes only strings and
// histogram snapshots (finite bounds, integer counts), which always
// encode.
func appendJSON(b []byte, v any) []byte {
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

// Render writes a compact human-readable summary of the registry — the
// CLIs' -metrics output: one line per set that counted or timed
// anything, with its kind, name and nonzero counters and timers.
func Render(w io.Writer) {
	snap := Read()
	for _, s := range snap.Solvers {
		s.render(w, kindSolver)
	}
	for _, s := range snap.Services {
		s.render(w, kindService)
	}
	snap.Shard.render(w, kindShard)
}

func (s SetSnapshot) render(w io.Writer, kind string) {
	var line strings.Builder
	for _, v := range s.Values {
		switch {
		case v.Hist != nil || v.N == 0:
		case v.Time:
			fmt.Fprintf(&line, " %s=%s", strings.TrimSuffix(v.Name, "_ns"), time.Duration(v.N).Round(time.Microsecond))
		default:
			fmt.Fprintf(&line, " %s=%d", v.Name, v.N)
		}
	}
	if line.Len() > 0 {
		fmt.Fprintf(w, "%-7s %-17s%s\n", kind, s.Name, line.String())
	}
}

// The registry is published as the expvar "isinglut.metrics", so any
// binary in the module that serves HTTP (the daemon, or the CLIs under
// their -pprof flag) exposes it on /debug/vars with zero wiring.
func init() {
	expvar.Publish("isinglut.metrics", expvar.Func(func() any { return Read() }))
}

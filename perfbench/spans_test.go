package main

import (
	"testing"
	"time"
)

func iv(start, end int) span {
	return span{Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping count once", []span{iv(10, 40), iv(20, 50), iv(45, 60)}, 50},
		{"nested inside another child", []span{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to the parent", []span{iv(-20, 10), iv(95, 130)}, 85},
		{"outside the parent", []span{iv(120, 130)}, 100},
		{"unsorted", []span{iv(60, 70), iv(0, 10), iv(5, 15)}, 75},
	}
	for _, c := range cases {
		got := selfTime(parent, c.children)
		if got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestNestedSpansParentToTheOpenRoot(t *testing.T) {
	r := newRecorder()
	if id := r.beginNested("peer.batch"); r.snapshotOf(id).Parent != 0 {
		t.Fatal("span begun with no root open got a parent")
	}
	root := r.begin("coord", "req-7", 0)
	r.setCurrent(root)
	a := r.beginNested("peer.batch")
	b := r.beginNested("peer.batch")
	r.end(a)
	r.end(b)
	r.clearCurrent(root)
	r.end(root)
	late := r.beginNested("peer.batch")
	r.end(late)

	for _, id := range []int{a, b} {
		s := r.snapshotOf(id)
		if s.Parent != root || s.Req != "req-7" {
			t.Errorf("span %d: parent %d req %q, want %d %q", id, s.Parent, s.Req, root, "req-7")
		}
	}
	if s := r.snapshotOf(late); s.Parent != 0 || s.Req != "" {
		t.Errorf("span after the root closed: parent %d req %q", s.Parent, s.Req)
	}
	ix := indexSpans(r.snapshot())
	if got := len(ix.byParent[root]); got != 2 {
		t.Errorf("root has %d children, want 2", got)
	}
	if s, ok := ix.request("req-7", "coord"); !ok || s.ID != root {
		t.Errorf("request lookup: %+v %v", s, ok)
	}

	// A second root replaces the first only once the first is closed;
	// clearing a root that is no longer current leaves the new one.
	r2 := r.begin("coord", "req-8", 0)
	r.setCurrent(r2)
	r.clearCurrent(root)
	if c := r.beginNested("peer.batch"); r.snapshotOf(c).Parent != r2 {
		t.Error("stale clear removed the open root")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", "", 0)
	r.end(id)
	r.setCurrent(id)
	if r.beginNested("y") != 0 {
		t.Fatal("nil recorder returned a span id")
	}
}

// snapshotOf returns span id, open or closed.
func (r *recorder) snapshotOf(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

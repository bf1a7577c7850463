package main

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestRepeatsAreOldEnoughAndInsideTheCache(t *testing.T) {
	const (
		every  = 4
		gap    = 2 * time.Second
		window = 40
	)
	m := newMixer(every, gap, window, rand.New(rand.NewSource(3)))
	dues := evenDues(300, 6)
	var got []deal
	for _, d := range dues {
		got = append(got, m.next(d))
	}
	repeats := 0
	lastFresh := map[int]int{} // fresh ordinal -> index of its fresh request
	for i, is := range got {
		if !is.Repeat {
			if _, dup := lastFresh[is.Fresh]; dup {
				t.Fatalf("fresh ordinal %d dealt twice", is.Fresh)
			}
			lastFresh[is.Fresh] = i
			continue
		}
		repeats++
		if (i+1)%every != 0 {
			t.Errorf("request %d repeats off the every-%d beat", i, every)
		}
		j, ok := lastFresh[is.Fresh]
		if !ok {
			t.Fatalf("request %d repeats ordinal %d before it was sent", i, is.Fresh)
		}
		if got[j].At > is.At-gap {
			t.Errorf("request %d repeats one due %v earlier, want >= %v", i, is.At-got[j].At, gap)
		}
		if i-j >= window {
			t.Errorf("request %d repeats one %d requests back, outside a %d-entry window", i, i-j, window)
		}
	}
	// Before 2 s have passed no target qualifies; after that every
	// fourth request is a repeat.
	early := int(gap.Seconds()*6) / every
	if want := len(got)/every - early - 1; repeats < want {
		t.Errorf("%d repeats, want at least %d", repeats, want)
	}

	// The same seed deals the same mix.
	m2 := newMixer(every, gap, window, rand.New(rand.NewSource(3)))
	for i, d := range dues {
		if is := m2.next(d); is != got[i] {
			t.Fatalf("request %d: %+v then %+v for one seed", i, got[i], is)
		}
	}
}

func TestOpenLoopTimesFromDueAndCountsQueueing(t *testing.T) {
	const work = 20 * time.Millisecond
	// Six requests due at once over two connections: the third and
	// fourth wait one op, the last two wait two, and latency from the due
	// time shows that wait.
	dues := make([]time.Duration, 6)
	var running atomic.Int32
	timings, late := runOpenLoop(time.Now(), dues, 2, func(int) {
		if running.Add(1) > 2 {
			t.Error("more than two requests in flight")
		}
		time.Sleep(work)
		running.Add(-1)
	})
	waits := map[int]int{}
	for i, tm := range timings {
		if tm.latency() < work {
			t.Errorf("request %d: latency %v below its own work", i, tm.latency())
		}
		if tm.Sent < tm.Dispatched || tm.Done < tm.Sent {
			t.Errorf("request %d: timing out of order %+v", i, tm)
		}
		waits[int(tm.latency()/work)]++
	}
	if waits[1]+waits[2]+waits[3] != 6 || waits[3] < 2 {
		t.Errorf("latency buckets %v: want the last two to wait two ops", waits)
	}
	if late > 10*time.Millisecond {
		t.Errorf("generator lateness %v with nothing blocking it", late)
	}
}

func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	// A phase whose start lies 50 ms in the past finds every request
	// already overdue: the generator is that late, and each request's
	// latency includes the 50 ms it was overdue.
	start := time.Now().Add(-50 * time.Millisecond)
	timings, late := runOpenLoop(start, evenDues(3, 1000), 1, func(int) {})
	if late < 48*time.Millisecond {
		t.Errorf("lateness %v, want about 50ms", late)
	}
	for i, tm := range timings {
		if tm.latency() < 45*time.Millisecond {
			t.Errorf("request %d: latency %v does not count time overdue", i, tm.latency())
		}
	}
}

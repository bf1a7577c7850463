package main

import (
	"math/rand"
	"sync"
	"time"
)

// mixer deals out the serve-decompose request mix: fresh requests, and
// every n-th request a repeat of an earlier fresh one that is a cache hit
// by construction. A repeat's target was dealt at least minGap earlier
// (so its answer is long back) and fewer than window requests ago (so an
// LRU cache of window+1 entries still holds it).
type mixer struct {
	every  int
	minGap time.Duration
	window int
	rng    *rand.Rand

	mu    sync.Mutex
	dealt []deal
	fresh int
}

// deal is one dealt request.
type deal struct {
	At     time.Duration // when it was due, from the start of the workload
	Fresh  int           // ordinal of the fresh body it sends
	Repeat bool
}

func newMixer(every int, minGap time.Duration, window int, rng *rand.Rand) *mixer {
	return &mixer{every: every, minGap: minGap, window: window, rng: rng}
}

// next deals the request due at offset at. Every every-th request is a
// repeat when an eligible target exists, else it is fresh.
func (m *mixer) next(at time.Duration) deal {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := len(m.dealt)
	if (i+1)%m.every == 0 {
		var cands []int
		for j := i - 1; j >= 0 && i-j < m.window; j-- {
			if t := m.dealt[j]; !t.Repeat && t.At <= at-m.minGap {
				cands = append(cands, j)
			}
		}
		if len(cands) > 0 {
			t := m.dealt[cands[m.rng.Intn(len(cands))]]
			is := deal{At: at, Fresh: t.Fresh, Repeat: true}
			m.dealt = append(m.dealt, is)
			return is
		}
	}
	is := deal{At: at, Fresh: m.fresh}
	m.fresh++
	m.dealt = append(m.dealt, is)
	return is
}

// timing is one open-loop request, as offsets from the phase start.
type timing struct {
	Due, Dispatched, Sent, Done time.Duration
}

// latency is timed from when the request was due, so a stall also
// charges the requests queued behind it.
func (t timing) latency() time.Duration { return t.Done - t.Due }

// runOpenLoop sends request i at start+dues[i] regardless of how earlier
// ones fare, over conns workers (one connection each). op performs
// request i. It returns each request's timing and how late the generator
// handed out its latest request relative to its due time.
func runOpenLoop(start time.Time, dues []time.Duration, conns int, op func(i int)) ([]timing, time.Duration) {
	timings := make([]timing, len(dues))
	// Buffered for every send, so the generator never waits on a busy
	// connection: a request that finds both busy waits in the channel,
	// and that wait shows in its latency, not in generator lateness.
	jobs := make(chan int, len(dues))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				timings[i].Sent = time.Since(start)
				op(i)
				timings[i].Done = time.Since(start)
			}
		}()
	}
	var late time.Duration
	for i, due := range dues {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		timings[i].Due = due
		timings[i].Dispatched = time.Since(start)
		if l := timings[i].Dispatched - due; l > late {
			late = l
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return timings, late
}

// evenDues spaces count requests 1/rate apart from offset 0.
func evenDues(count int, rate float64) []time.Duration {
	dues := make([]time.Duration, count)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLRUCacheEvictsOldest(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for k, want := range map[string]int{"b": 2, "c": 3} {
		v, ok := c.Get(k)
		if !ok || v.(int) != want {
			t.Fatalf("Get(%q) = %v, %v; want %d, true", k, v, ok, want)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", c.Len())
	}
}

func TestLRUCacheGetPromotes(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Get("a")    // "b" is now the LRU entry
	c.Put("c", 3) // must evict "b", not "a"
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted entry was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestLRUCachePutRefreshes(t *testing.T) {
	c := newLRUCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh value and recency
	c.Put("c", 3)  // must evict "b"
	if v, ok := c.Get("a"); !ok || v.(int) != 10 {
		t.Fatalf("refreshed entry = %v, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale entry survived eviction")
	}
}

func TestLRUCacheDisabled(t *testing.T) {
	c := newLRUCache(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache Len() = %d", c.Len())
	}
}

func TestLRUCacheConcurrent(t *testing.T) {
	c := newLRUCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}

func TestLRUCacheInvalidate(t *testing.T) {
	c := newLRUCache(4)
	c.Put("a", 1)
	c.Put("b", 2)
	if !c.Invalidate("a") {
		t.Fatal("Invalidate of a present key returned false")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("invalidated entry still served")
	}
	if c.Invalidate("a") {
		t.Fatal("second Invalidate of the same key returned true")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d after invalidation, want 1", c.Len())
	}
	// Invalidation must not corrupt the recency list: fill and evict.
	c.Put("c", 3)
	c.Put("d", 4)
	c.Put("e", 5)
	c.Put("f", 6) // evicts "b", the oldest survivor
	if _, ok := c.Get("b"); ok {
		t.Fatal("eviction order broken after Invalidate")
	}
	if c.Len() != 4 {
		t.Fatalf("Len() = %d, want capacity 4", c.Len())
	}

	disabled := newLRUCache(0)
	if disabled.Invalidate("x") {
		t.Fatal("disabled cache Invalidate returned true")
	}
}

// TestSolveKeyCanonicalOrdering pins the canonical-hash contract: the
// same physical problem submitted with reordered, endpoint-swapped, or
// split couplings must map onto one cache slot, while any value change
// must not.
func TestSolveKeyCanonicalOrdering(t *testing.T) {
	base := SolveRequest{N: 4, Steps: 100, Seed: 7, Couplings: []Coupling{
		{I: 0, J: 1, V: 0.5}, {I: 1, J: 2, V: -1}, {I: 2, J: 3, V: 0.25},
	}}
	reordered := base
	reordered.Couplings = []Coupling{
		{I: 2, J: 3, V: 0.25}, {I: 0, J: 1, V: 0.5}, {I: 1, J: 2, V: -1},
	}
	swapped := base
	swapped.Couplings = []Coupling{
		{I: 1, J: 0, V: 0.5}, {I: 2, J: 1, V: -1}, {I: 3, J: 2, V: 0.25},
	}
	split := base
	split.Couplings = []Coupling{
		{I: 0, J: 1, V: 0.25}, {I: 1, J: 2, V: -1}, {I: 2, J: 3, V: 0.25},
		{I: 1, J: 0, V: 0.25},
	}
	want := base.solveKey()
	for name, req := range map[string]SolveRequest{
		"reordered": reordered, "swapped": swapped, "split": split,
	} {
		if got := req.solveKey(); got != want {
			t.Errorf("%s couplings changed the cache key", name)
		}
	}

	changed := base
	changed.Couplings = []Coupling{
		{I: 0, J: 1, V: 0.5}, {I: 1, J: 2, V: -1}, {I: 2, J: 3, V: 0.75},
	}
	if changed.solveKey() == want {
		t.Error("different coupling value shares the cache key")
	}
	otherSeed := base
	otherSeed.Seed = 8
	if otherSeed.solveKey() == want {
		t.Error("different seed shares the cache key")
	}

	// Digests pinned from the original per-pair map and upper-triangle
	// scan: a change to how the couplings are canonicalized must not move
	// any request to another cache slot.
	glass := SolveRequest{N: 1024, Steps: 500, Seed: 3, Shard: 256,
		Couplings: randomCouplings(1024, 4096, rand.New(rand.NewSource(11)))}
	shuffled := glass
	shuffled.Couplings = append([]Coupling(nil), glass.Couplings...)
	rng := rand.New(rand.NewSource(12))
	rng.Shuffle(len(shuffled.Couplings), func(a, b int) {
		shuffled.Couplings[a], shuffled.Couplings[b] = shuffled.Couplings[b], shuffled.Couplings[a]
	})
	for i, c := range shuffled.Couplings {
		if rng.Intn(2) == 0 {
			shuffled.Couplings[i].I, shuffled.Couplings[i].J = c.J, c.I
		}
	}
	for _, c := range []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"base", base, "s:d721097cbfd3b8b2ce22b82110a930e1a132e432940ccdab385196fdc89c96c2"},
		// (0,1) cancels to zero and drops out of the key.
		{"cancelling duplicates", SolveRequest{N: 4, Seed: 1, Couplings: []Coupling{
			{I: 0, J: 1, V: 0.5}, {I: 1, J: 2, V: -1}, {I: 1, J: 0, V: -0.5}, {I: 2, J: 3, V: 0.25},
		}}, "s:df7b134a562a8dd49718a9d2a803ca3b33219be7bca298399b658ea4aa0ce0fd"},
		// A diagonal pair and pairs outside [0, N) are never hashed, so
		// this is the same problem as the one above.
		{"diagonal and out-of-range pairs", SolveRequest{N: 4, Seed: 1, Couplings: []Coupling{
			{I: 2, J: 2, V: 1.5}, {I: 0, J: 7, V: 1}, {I: -1, J: 2, V: 1}, {I: 1, J: 2, V: -1}, {I: 3, J: 2, V: 0.25},
		}}, "s:df7b134a562a8dd49718a9d2a803ca3b33219be7bca298399b658ea4aa0ce0fd"},
		// Duplicates are summed in input order: 1e16 + 1 rounds to 1e16,
		// so pair (0,1) sums to 0 and drops out of the key.
		{"input-order sum", orderedSumRequest(), "s:c968a466c67e29de72a80bc37ffede9e17cec6d961884f217359fba5ba93e03e"},
		{"biases", SolveRequest{N: 3, Variant: "dsb", Seed: 2, Biases: []float64{0.5, -1, 0},
			Couplings: []Coupling{{I: 0, J: 2, V: -0.75}, {I: 2, J: 0, V: 0.125}}}, "s:7d937cc923ad63b7adf170a30bf76c19a560b4f2f542438bde79d172470c993e"},
		{"1024-spin glass", glass, "s:f8ecea04fca96222751f04bfa5dbb1477709022d367eab0afd990f85e3e8903a"},
		{"shuffled 1024-spin glass", shuffled, "s:f8ecea04fca96222751f04bfa5dbb1477709022d367eab0afd990f85e3e8903a"},
	} {
		if got := c.req.solveKey(); got != c.want {
			t.Errorf("%s: key %s, pinned %s", c.name, got, c.want)
		}
	}
}

// orderedSumRequest is a shuffled 64-spin chain with three couplings on
// pair (0,1), spread through the body, whose float sum depends on their
// order. The shuffle is one that Go's unstable sort would reorder.
func orderedSumRequest() SolveRequest {
	req := SolveRequest{N: 64, Seed: 1}
	for i := 1; i < 64; i++ {
		req.Couplings = append(req.Couplings, Coupling{I: i - 1, J: i, V: float64(i%3 - 1)})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(req.Couplings), func(a, b int) {
		req.Couplings[a], req.Couplings[b] = req.Couplings[b], req.Couplings[a]
	})
	req.Couplings[0] = Coupling{I: 0, J: 1, V: 1e16}
	req.Couplings[31] = Coupling{I: 1, J: 0, V: 1}
	req.Couplings[62] = Coupling{I: 0, J: 1, V: -1e16}
	return req
}

// randomCouplings draws count ±1 couplings of an n-spin glass, each
// between a spin and one of the 64 spins after it (mod n). Pairs repeat,
// some cancelling to zero, and endpoints come in either order; the sums
// are exact, so the key cannot depend on the order of the couplings.
func randomCouplings(n, count int, rng *rand.Rand) []Coupling {
	cs := make([]Coupling, count)
	for c := range cs {
		i := rng.Intn(n)
		cs[c] = Coupling{I: i, J: (i + 1 + rng.Intn(64)) % n, V: float64(2*rng.Intn(2) - 1)}
	}
	return cs
}

// TestLRUCacheStressDegradedNeverCached is the -race stress mix: many
// goroutines interleave Get, Put and Invalidate while producing both
// healthy and degraded responses, obeying the serving contract that
// degraded responses are never Put. Whatever the interleaving, a hit
// must never return a degraded value and capacity must hold.
func TestLRUCacheStressDegradedNeverCached(t *testing.T) {
	c := newLRUCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*13+i)%64)
				resp := DecomposeResponse{N: i, Degraded: (g+i)%3 == 0}
				switch (g + i) % 5 {
				case 0, 1:
					// The handler's guard: degraded responses skip the cache.
					if !resp.Degraded {
						c.Put(key, resp)
					}
				case 2, 3:
					if v, ok := c.Get(key); ok {
						if v.(DecomposeResponse).Degraded {
							t.Error("cache served a degraded response")
							return
						}
					}
				default:
					c.Invalidate(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache grew past capacity under churn: %d", c.Len())
	}
	// Post-churn sweep: nothing degraded may remain reachable.
	for i := 0; i < 64; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); ok && v.(DecomposeResponse).Degraded {
			t.Fatal("degraded response survived in cache")
		}
	}
}

func TestPoolSaturationAndDrain(t *testing.T) {
	p := newPool(1, 1)
	release := make(chan struct{})
	noWait := func(time.Duration) {}

	// Occupy the single worker.
	busy, err := p.submit(func() { <-release }, noWait)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then fill the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for p.running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := p.submit(func() {}, noWait)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.submit(func() {}, noWait); err != errSaturated {
		t.Fatalf("submit into full pool = %v, want errSaturated", err)
	}

	p.drain()
	if _, err := p.submit(func() {}, noWait); err != errDraining {
		t.Fatalf("submit while draining = %v, want errDraining", err)
	}

	// Draining still runs the accepted work to completion.
	close(release)
	<-busy.done
	<-queued.done
	p.wait()
}

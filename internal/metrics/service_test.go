package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestForServiceReturnsSameInstance(t *testing.T) {
	s := ForService("svc-probe")
	if again := ForService("svc-probe"); again != s {
		t.Fatal("ForService must return the same instance per name")
	}
	// A solver of the same name is a different set in another section.
	ForSolver("svc-probe").Runs.Inc()
	t.Cleanup(Reset)
	snap := Read()
	if value(t, find(t, snap.Solvers, "svc-probe"), "runs") != 1 || value(t, find(t, snap.Services, "svc-probe"), "requests") != 0 {
		t.Fatal("same-named solver and service share instruments")
	}
}

func TestObserveHandledClassifiesStatuses(t *testing.T) {
	s := ForService("svc-status")
	t.Cleanup(Reset)
	s.ObserveHandled(time.Millisecond, 200)
	s.ObserveHandled(time.Millisecond, 304)
	s.ObserveHandled(time.Millisecond, 400)
	s.ObserveHandled(time.Millisecond, 429)
	s.ObserveHandled(time.Millisecond, 500)
	if got := s.OK.Load(); got != 2 {
		t.Fatalf("OK = %d, want 2", got)
	}
	if got := s.ClientError.Load(); got != 2 {
		t.Fatalf("ClientError = %d, want 2", got)
	}
	if got := s.ServerError.Load(); got != 1 {
		t.Fatalf("ServerError = %d, want 1", got)
	}
	if got := s.Handle.Count(); got != 5 {
		t.Fatalf("Handle.Count = %d, want 5", got)
	}
}

// TestServiceSnapshotCacheHitRate: the hit rate's inputs reach the
// snapshot under their JSON names, so a scrape computes
// cache_hits / (cache_hits + cache_misses).
func TestServiceSnapshotCacheHitRate(t *testing.T) {
	s := ForService("svc-cache")
	t.Cleanup(Reset)
	s.CacheHits.Add(3)
	s.CacheMisses.Add(1)
	snap := find(t, Read().Services, "svc-cache")
	if hits, misses := value(t, snap, "cache_hits"), value(t, snap, "cache_misses"); hits != 3 || misses != 1 {
		t.Fatalf("cache_hits = %d, cache_misses = %d, want 3 and 1", hits, misses)
	}
}

func TestServiceOrderAndReset(t *testing.T) {
	a := ForService("svc-order-a")
	b := ForService("svc-order-b")
	a.Requests.Inc()
	b.Requests.Add(2)
	b.Shed.Inc()

	ia, ib := -1, -1
	for i, s := range Read().Services {
		switch s.Name {
		case "svc-order-a":
			ia = i
		case "svc-order-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("registration order lost: a at %d, b at %d", ia, ib)
	}

	Reset()
	s := find(t, Read().Services, "svc-order-b")
	if value(t, s, "requests") != 0 || value(t, s, "shed") != 0 {
		t.Fatalf("Reset left counts: %+v", s)
	}
}

// TestRenderSkipsIdle: Render prints one line per set that
// counted anything, services, solvers and the shard layer alike, and
// skips the idle ones.
func TestRenderSkipsIdle(t *testing.T) {
	Reset()
	busy := ForService("svc-render-busy")
	ForService("svc-render-idle")
	ForSolver("solver-render-idle")
	t.Cleanup(Reset)
	busy.Requests.Inc()
	busy.ObserveHandled(time.Millisecond, 200)

	var sb strings.Builder
	Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "service svc-render-busy") || !strings.Contains(out, " requests=1 ok=1 handle=1ms mean_handle=1ms") {
		t.Fatalf("render missing active service:\n%s", out)
	}
	for _, idle := range []string{"svc-render-idle", "solver-render-idle", "shard "} {
		if strings.Contains(out, idle) {
			t.Fatalf("render shows idle set %q:\n%s", idle, out)
		}
	}

	Shard().PeerDispatch.Add(2)
	sb.Reset()
	Render(&sb)
	if !strings.Contains(sb.String(), "shard   exchange          peer_dispatch=2\n") {
		t.Fatalf("render missing active shard set:\n%s", sb.String())
	}
}

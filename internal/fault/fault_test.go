package fault

import (
	"sync"
	"testing"
	"time"
)

func TestDisarmedSiteNeverFires(t *testing.T) {
	s := NewSite("test.disarmed")
	for i := 0; i < 1000; i++ {
		if s.Fire() || s.FireKey(int64(i)) {
			t.Fatal("disarmed site fired")
		}
	}
	if Fired("test.disarmed") != 0 {
		t.Fatal("disarmed site counted a fire")
	}
}

func TestCountdownFiresOnExactHit(t *testing.T) {
	s := NewSite("test.countdown")
	MustArm("test.countdown", Scenario{After: 3})
	defer Disarm("test.countdown")
	got := -1
	for i := 0; i < 10; i++ {
		if s.Fire() {
			if got >= 0 {
				t.Fatalf("fired twice (hits %d and %d) with Times=0", got, i)
			}
			got = i
		}
	}
	if got != 3 {
		t.Fatalf("fired on hit %d, want 3 (After=3 skips the first three)", got)
	}
}

func TestTimesBoundsAndUnlimited(t *testing.T) {
	s := NewSite("test.times")
	MustArm("test.times", Scenario{Times: 3})
	fires := 0
	for i := 0; i < 10; i++ {
		if s.Fire() {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("Times=3 fired %d times", fires)
	}
	MustArm("test.times", Scenario{Times: -1})
	fires = 0
	for i := 0; i < 10; i++ {
		if s.Fire() {
			fires++
		}
	}
	if fires != 10 {
		t.Fatalf("Times=-1 fired %d of 10 hits", fires)
	}
	Disarm("test.times")
}

func TestProbabilisticIsDeterministicPerSeed(t *testing.T) {
	s := NewSite("test.prob")
	defer Disarm("test.prob")
	run := func(seed int64) []bool {
		MustArm("test.prob", Scenario{Prob: 0.5, Seed: seed, Times: -1})
		out := make([]bool, 64)
		for i := range out {
			out[i] = s.Fire()
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 64-hit pattern")
	}
}

func TestKeyedScenarioIsOrderIndependent(t *testing.T) {
	s := NewSite("test.keyed")
	defer Disarm("test.keyed")
	fire := func(order []int64) map[int64]bool {
		MustArm("test.keyed", Scenario{Keys: []int64{2, 5}, Times: -1})
		out := map[int64]bool{}
		for _, k := range order {
			if s.FireKey(k) {
				out[k] = true
			}
		}
		return out
	}
	fwd := fire([]int64{0, 1, 2, 3, 4, 5})
	rev := fire([]int64{5, 4, 3, 2, 1, 0})
	for _, k := range []int64{0, 1, 2, 3, 4, 5} {
		want := k == 2 || k == 5
		if fwd[k] != want || rev[k] != want {
			t.Fatalf("key %d: fwd=%v rev=%v want %v", k, fwd[k], rev[k], want)
		}
	}
	// Keyed scenarios never match a plain (unkeyed) Fire.
	MustArm("test.keyed", Scenario{Keys: []int64{2}, Times: -1})
	if s.Fire() {
		t.Fatal("keyed scenario fired on an unkeyed hit")
	}
}

func TestArmUnknownSiteFails(t *testing.T) {
	if err := Arm("test.never-registered", Scenario{}); err == nil {
		t.Fatal("arming an unregistered site succeeded")
	}
}

func TestRegistryListsAndCounts(t *testing.T) {
	s := NewSite("test.registry")
	found := false
	for _, name := range Sites() {
		if name == "test.registry" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered site missing from Sites()")
	}
	before := Fired("test.registry")
	MustArm("test.registry", Scenario{})
	if !Armed("test.registry") {
		t.Fatal("Armed false after Arm")
	}
	s.Fire()
	Disarm("test.registry")
	if Armed("test.registry") {
		t.Fatal("Armed true after Disarm")
	}
	if Fired("test.registry") != before+1 {
		t.Fatal("fire counter did not survive Disarm")
	}
	if s.Fire() {
		t.Fatal("site fired after Disarm")
	}
}

// TestConcurrentFire pins race-safety of the hot path under -race: many
// goroutines hammer one armed site while another arms and disarms it.
func TestConcurrentFire(t *testing.T) {
	s := NewSite("test.concurrent")
	defer Disarm("test.concurrent")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Fire()
					s.FireKey(int64(g))
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		MustArm("test.concurrent", Scenario{Prob: 0.5, Seed: int64(i), Times: -1})
		Disarm("test.concurrent")
	}
	close(stop)
	wg.Wait()
}

// TestParseSpec covers the command-line scenario grammar end to end,
// including the bare-site default and every rejection class.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		site    string
		want    Scenario
		wantErr bool
	}{
		{spec: "serve.job", site: "serve.job", want: Scenario{}},
		{spec: "serve.job=", site: "serve.job", want: Scenario{}},
		{spec: "ising.field=after:3,times:-1", site: "ising.field", want: Scenario{After: 3, Times: -1}},
		{spec: "serve.cache=prob:0.25,seed:7,times:5", site: "serve.cache",
			want: Scenario{Prob: 0.25, Seed: 7, Times: 5}},
		{spec: "sb.diverge=keys:3+9+27,times:-1", site: "sb.diverge",
			want: Scenario{Keys: []int64{3, 9, 27}, Times: -1}},
		{spec: "=after:1", wantErr: true},
		{spec: "x=after", wantErr: true},
		{spec: "x=bogus:1", wantErr: true},
		{spec: "x=after:notanint", wantErr: true},
		{spec: "x=keys:1+zap", wantErr: true},
		// Standard-form delay/mode fields.
		{spec: "serve.peer.dispatch=delay:50ms,times:3", site: "serve.peer.dispatch",
			want: Scenario{Times: 3, Mode: ModeDelay, Delay: 50 * time.Millisecond}},
		{spec: "serve.peer.dispatch=mode:corrupt,times:2", site: "serve.peer.dispatch",
			want: Scenario{Times: 2, Mode: ModeCorrupt}},
		{spec: "serve.peer.dispatch=mode:drop,keys:1", site: "serve.peer.dispatch",
			want: Scenario{Keys: []int64{1}, Mode: ModeDrop}},
		{spec: "x=delay:notaduration", wantErr: true},
		{spec: "x=mode:explode", wantErr: true},
		{spec: "x=mode:delay", wantErr: true},  // delay mode without a duration
		{spec: "x=delay:-10ms", wantErr: true}, // negative injected delay
		// Compact colon form (the -fault slow-peer grammar).
		{spec: "serve.peer.dispatch:delay:50ms", site: "serve.peer.dispatch",
			want: Scenario{Mode: ModeDelay, Delay: 50 * time.Millisecond}},
		{spec: "serve.peer.dispatch:delay:50ms:3", site: "serve.peer.dispatch",
			want: Scenario{Times: 3, Mode: ModeDelay, Delay: 50 * time.Millisecond}},
		{spec: "serve.peer.dispatch:drop:-1", site: "serve.peer.dispatch",
			want: Scenario{Times: -1, Mode: ModeDrop}},
		{spec: "serve.peer.dispatch:corrupt:2", site: "serve.peer.dispatch",
			want: Scenario{Times: 2, Mode: ModeCorrupt}},
		{spec: ":delay:50ms", wantErr: true},
		{spec: "x:delay", wantErr: true},          // missing duration
		{spec: "x:delay:bogus", wantErr: true},    // bad duration
		{spec: "x:delay:50ms:zap", wantErr: true}, // bad count
		{spec: "x:delay:50ms:3:9", wantErr: true}, // trailing segment
		{spec: "x:explode:1", wantErr: true},      // unknown compact mode
	}
	for _, tc := range cases {
		site, sc, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if site != tc.site {
			t.Errorf("ParseSpec(%q) site = %q, want %q", tc.spec, site, tc.site)
		}
		if sc.After != tc.want.After || sc.Times != tc.want.Times ||
			sc.Prob != tc.want.Prob || sc.Seed != tc.want.Seed ||
			sc.Mode != tc.want.Mode || sc.Delay != tc.want.Delay ||
			len(sc.Keys) != len(tc.want.Keys) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, sc, tc.want)
		}
		for i := range sc.Keys {
			if sc.Keys[i] != tc.want.Keys[i] {
				t.Errorf("ParseSpec(%q) keys = %v, want %v", tc.spec, sc.Keys, tc.want.Keys)
			}
		}
	}
}

// TestFireSpecReturnsArmedScenario pins the mode-aware fire path: the
// returned copy carries Mode/Delay, the boolean matches Fire semantics,
// and the fire counter moves.
func TestFireSpecReturnsArmedScenario(t *testing.T) {
	s := NewSite("test.firespec")
	defer Disarm("test.firespec")
	MustArm("test.firespec", Scenario{Delay: 25 * time.Millisecond, Times: 1})
	before := Fired("test.firespec")
	sc, ok := s.FireSpec()
	if !ok {
		t.Fatal("armed FireSpec did not fire")
	}
	if sc.Mode != ModeDelay || sc.Delay != 25*time.Millisecond {
		t.Fatalf("FireSpec scenario = %+v, want normalized delay mode", sc)
	}
	if _, ok := s.FireSpec(); ok {
		t.Fatal("Times=1 scenario fired twice via FireSpec")
	}
	if Fired("test.firespec") != before+1 {
		t.Fatal("FireSpec did not advance the fire counter")
	}

	MustArm("test.firespec", Scenario{Keys: []int64{7}, Mode: ModeCorrupt, Times: -1})
	if _, ok := s.FireKeySpec(3); ok {
		t.Fatal("keyed scenario fired on a non-member key")
	}
	sc, ok = s.FireKeySpec(7)
	if !ok || sc.Mode != ModeCorrupt {
		t.Fatalf("FireKeySpec(7) = %+v, %v; want corrupt-mode fire", sc, ok)
	}
}

// TestArmRejectsInvalidMode pins Arm-side validation so a typoed mode
// fails the test that armed it instead of silently acting as a drop.
func TestArmRejectsInvalidMode(t *testing.T) {
	NewSite("test.badmode")
	if err := Arm("test.badmode", Scenario{Mode: "explode"}); err == nil {
		t.Fatal("arming an unknown mode succeeded")
	}
	if err := Arm("test.badmode", Scenario{Delay: -time.Second}); err == nil {
		t.Fatal("arming a negative delay succeeded")
	}
	if err := Arm("test.badmode", Scenario{Mode: ModeDelay}); err == nil {
		t.Fatal("arming delay mode without a duration succeeded")
	}
}

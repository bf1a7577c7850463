// Package fault is a deterministic, seedable failpoint registry for
// chaos-testing the solver and serving stack.
//
// Production code declares named sites at package init:
//
//	var siteField = fault.NewSite("ising.field")
//
// and consults them at the instrumented spot:
//
//	if siteField.Fire() {
//		out[0] = math.NaN() // inject the failure this site models
//	}
//
// The site decides *what* failure firing means (a poisoned value, a
// panic, a forced cache miss); the registry only decides *when* it fires.
// With no scenario armed — the production state — Fire is a single atomic
// pointer load that returns false, so instrumented hot loops pay nothing
// measurable. Tests arm a Scenario against a site by name:
//
//	fault.Arm("ising.field", fault.Scenario{After: 3})   // fire on the 4th hit
//	fault.Arm("serve.job", fault.Scenario{Prob: 0.5, Seed: 7})
//	defer fault.DisarmAll()
//
// Scenarios are deterministic: countdowns fire on an exact hit number and
// probabilistic scenarios draw from their own seeded RNG, so a chaos test
// reproduces bit-identically run over run. Keyed scenarios (Keys) fire on
// a match of the caller-supplied key instead of the hit sequence, which
// makes the injection independent of execution order — the property the
// engine bit-identity tests need when the same replica set must diverge
// identically under two different schedulers.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Scenario describes when an armed site fires. Exactly one trigger class
// is consulted per hit, in this order:
//
//  1. Keys non-empty: fire iff the FireKey key is in the set (Fire calls
//     without a key never match a keyed scenario). After/Times still
//     apply, counted over matching hits.
//  2. Prob > 0: fire with probability Prob per hit, drawn from a
//     rand.Rand seeded with Seed (deterministic sequence).
//  3. Otherwise countdown: skip the first After hits, then fire.
//
// Times bounds how many times the scenario fires: 0 means once, a
// positive value that many times, and a negative value every eligible hit
// until disarmed.
type Scenario struct {
	Keys  []int64
	After int
	Prob  float64
	Seed  int64
	Times int

	// Mode selects the failure flavor an instrumented site applies when
	// the scenario fires. The registry does not interpret it beyond
	// validation — sites that consult FireSpec act on it: "" and "drop"
	// model a lost operation (the site fails as if the call never
	// happened), "delay" injects a Delay-long stall before the operation
	// proceeds (slow-peer modelling), and "corrupt" lets the operation
	// run but mangles its result so the caller's validation layer must
	// catch it. Sites that only call Fire/FireKey treat every fired hit
	// as a drop, whatever the mode.
	Mode string
	// Delay is the injected stall for Mode "delay" (also implies the
	// delay mode when Mode is empty and Delay is positive).
	Delay time.Duration
}

// Scenario modes (Scenario.Mode).
const (
	ModeDrop    = "drop"
	ModeDelay   = "delay"
	ModeCorrupt = "corrupt"
)

// normalized applies the mode/delay coupling rules and validates the
// mode vocabulary.
func (sc Scenario) normalized() (Scenario, error) {
	if sc.Delay < 0 {
		return sc, fmt.Errorf("fault: negative delay %s", sc.Delay)
	}
	if sc.Mode == "" && sc.Delay > 0 {
		sc.Mode = ModeDelay
	}
	switch sc.Mode {
	case "", ModeDrop, ModeDelay, ModeCorrupt:
	default:
		return sc, fmt.Errorf("fault: unknown mode %q (want drop, delay or corrupt)", sc.Mode)
	}
	if sc.Mode == ModeDelay && sc.Delay <= 0 {
		return sc, fmt.Errorf("fault: mode delay needs a positive delay")
	}
	return sc, nil
}

// scenarioState is the armed form of a Scenario: the immutable spec plus
// the mutex-guarded trigger state. The mutex is only ever contended while
// a scenario is armed, i.e. inside tests.
type scenarioState struct {
	spec Scenario

	mu    sync.Mutex
	keys  map[int64]bool
	rng   *rand.Rand
	hits  int
	fired int
}

func newScenarioState(sc Scenario) *scenarioState {
	st := &scenarioState{spec: sc}
	if len(sc.Keys) > 0 {
		st.keys = make(map[int64]bool, len(sc.Keys))
		for _, k := range sc.Keys {
			st.keys[k] = true
		}
	}
	if sc.Prob > 0 {
		st.rng = rand.New(rand.NewSource(sc.Seed))
	}
	return st
}

// hit evaluates one hit against the scenario. keyed reports whether the
// caller supplied a key (FireKey) rather than a plain Fire.
func (st *scenarioState) hit(keyed bool, key int64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	times := st.spec.Times
	if times == 0 {
		times = 1
	}
	if times > 0 && st.fired >= times {
		return false
	}
	if st.keys != nil {
		if !keyed || !st.keys[key] {
			return false
		}
		st.hits++
		if st.hits <= st.spec.After {
			return false
		}
		st.fired++
		return true
	}
	st.hits++
	if st.rng != nil {
		if st.rng.Float64() >= st.spec.Prob {
			return false
		}
		st.fired++
		return true
	}
	if st.hits <= st.spec.After {
		return false
	}
	st.fired++
	return true
}

// Site is one named failpoint. Obtain with NewSite (typically a package
// variable); the zero value is not usable.
type Site struct {
	name  string
	armed atomic.Pointer[scenarioState]
	count atomic.Int64 // total fires, survives disarm for test assertions
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Fire reports whether the site's armed scenario fires on this hit. With
// no scenario armed it is a single atomic load returning false.
func (s *Site) Fire() bool {
	st := s.armed.Load()
	if st == nil {
		return false
	}
	if !st.hit(false, 0) {
		return false
	}
	s.count.Add(1)
	return true
}

// FireKey is Fire with a caller-supplied key (e.g. a replica seed). Keyed
// scenarios fire on key membership — deterministically, regardless of the
// order in which hits arrive; unkeyed scenarios treat FireKey exactly
// like Fire.
func (s *Site) FireKey(key int64) bool {
	st := s.armed.Load()
	if st == nil {
		return false
	}
	if !st.hit(true, key) {
		return false
	}
	s.count.Add(1)
	return true
}

// FireSpec is Fire returning the armed scenario on a hit, so
// mode-aware sites (delay/drop/corrupt) can read Mode and Delay. The
// second return mirrors Fire's boolean; the Scenario is a copy.
func (s *Site) FireSpec() (Scenario, bool) {
	st := s.armed.Load()
	if st == nil {
		return Scenario{}, false
	}
	if !st.hit(false, 0) {
		return Scenario{}, false
	}
	s.count.Add(1)
	return st.spec, true
}

// FireKeySpec is FireKey returning the armed scenario on a hit (see
// FireSpec).
func (s *Site) FireKeySpec(key int64) (Scenario, bool) {
	st := s.armed.Load()
	if st == nil {
		return Scenario{}, false
	}
	if !st.hit(true, key) {
		return Scenario{}, false
	}
	s.count.Add(1)
	return st.spec, true
}

var (
	regMu sync.Mutex
	sites = map[string]*Site{}
)

// NewSite registers a failpoint and returns its handle. Call once per
// site at package init and keep the pointer; registering the same name
// twice returns the same handle, so tests linking a subset of packages
// can also declare sites ad hoc.
func NewSite(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	sites[name] = s
	return s
}

// Sites lists every registered failpoint name, sorted. The chaos suite
// uses it to assert that each site fired at least once.
func Sites() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Arm installs a scenario on the named site, replacing any previous one.
// Unknown sites are an error: a typoed name must fail the test, not
// silently never fire. The scenario is normalized first (a positive
// Delay implies mode "delay"); an invalid mode/delay combination is an
// error for the same reason a typoed site is.
func Arm(site string, sc Scenario) error {
	norm, err := sc.normalized()
	if err != nil {
		return err
	}
	regMu.Lock()
	s, ok := sites[site]
	regMu.Unlock()
	if !ok {
		return fmt.Errorf("fault: unknown site %q (registered: %v)", site, Sites())
	}
	s.armed.Store(newScenarioState(norm))
	return nil
}

// MustArm is Arm panicking on unknown sites (test convenience).
func MustArm(site string, sc Scenario) {
	if err := Arm(site, sc); err != nil {
		panic(err)
	}
}

// Disarm removes the named site's scenario (no-op when none is armed or
// the site is unknown). The fire counter is preserved.
func Disarm(site string) {
	regMu.Lock()
	s, ok := sites[site]
	regMu.Unlock()
	if ok {
		s.armed.Store(nil)
	}
}

// DisarmAll removes every armed scenario — the deferred cleanup of every
// chaos test.
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range sites {
		s.armed.Store(nil)
	}
}

// Fired returns how many times the named site has fired since process
// start (0 for unknown sites). The counter survives Disarm so a test can
// assert coverage after cleanup.
func Fired(site string) int64 {
	regMu.Lock()
	s, ok := sites[site]
	regMu.Unlock()
	if !ok {
		return 0
	}
	return s.count.Load()
}

// ParseSpec parses a command-line failpoint spec of the form
//
//	site=field:value[,field:value...]
//
// with fields after, times, prob, seed, keys (a +-separated int64
// list), delay (a time.ParseDuration string) and mode (drop, delay or
// corrupt). A bare "site" arms the default scenario (fire once,
// immediately). A compact colon form arms an injected-failure mode
// directly:
//
//	site:delay:50ms        slow-peer: stall 50ms once
//	site:delay:50ms:3      ... the first 3 hits
//	site:drop:-1           drop every hit until disarmed
//	site:corrupt:2         corrupt the first 2 results
//
// This is what lets a daemon be booted with faults pre-armed
// (adecompd -fault) so an external load driver can exercise
// degraded-mode traffic without reaching into the process.
func ParseSpec(spec string) (string, Scenario, error) {
	var sc Scenario
	if !strings.Contains(spec, "=") && strings.Contains(spec, ":") {
		return parseCompactSpec(spec)
	}
	site, rest, found := strings.Cut(spec, "=")
	site = strings.TrimSpace(site)
	if site == "" {
		return "", sc, fmt.Errorf("fault: empty site in spec %q", spec)
	}
	if !found || strings.TrimSpace(rest) == "" {
		return site, sc, nil
	}
	for _, field := range strings.Split(rest, ",") {
		name, val, ok := strings.Cut(field, ":")
		if !ok {
			return "", sc, fmt.Errorf("fault: field %q in spec %q is not name:value", field, spec)
		}
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		var err error
		switch name {
		case "after":
			sc.After, err = strconv.Atoi(val)
		case "times":
			sc.Times, err = strconv.Atoi(val)
		case "prob":
			sc.Prob, err = strconv.ParseFloat(val, 64)
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "keys":
			for _, k := range strings.Split(val, "+") {
				var key int64
				key, err = strconv.ParseInt(strings.TrimSpace(k), 10, 64)
				if err != nil {
					break
				}
				sc.Keys = append(sc.Keys, key)
			}
		case "delay":
			sc.Delay, err = time.ParseDuration(val)
		case "mode":
			sc.Mode = val
		default:
			return "", sc, fmt.Errorf("fault: unknown field %q in spec %q (want after, times, prob, seed, keys, delay or mode)", name, spec)
		}
		if err != nil {
			return "", sc, fmt.Errorf("fault: bad value for %q in spec %q: %v", name, spec, err)
		}
	}
	norm, err := sc.normalized()
	if err != nil {
		return "", sc, fmt.Errorf("fault: spec %q: %v", spec, err)
	}
	return site, norm, nil
}

// parseCompactSpec handles the colon form site:mode[:duration][:count].
// The duration segment is required for (and only valid with) mode
// delay; the trailing count maps to Times.
func parseCompactSpec(spec string) (string, Scenario, error) {
	var sc Scenario
	parts := strings.Split(spec, ":")
	site := strings.TrimSpace(parts[0])
	if site == "" {
		return "", sc, fmt.Errorf("fault: empty site in spec %q", spec)
	}
	sc.Mode = strings.TrimSpace(parts[1])
	rest := parts[2:]
	if sc.Mode == ModeDelay {
		if len(rest) == 0 {
			return "", sc, fmt.Errorf("fault: spec %q: delay form needs a duration (site:delay:50ms[:count])", spec)
		}
		d, err := time.ParseDuration(strings.TrimSpace(rest[0]))
		if err != nil {
			return "", sc, fmt.Errorf("fault: bad delay duration in spec %q: %v", spec, err)
		}
		sc.Delay = d
		rest = rest[1:]
	}
	if len(rest) > 0 {
		n, err := strconv.Atoi(strings.TrimSpace(rest[0]))
		if err != nil {
			return "", sc, fmt.Errorf("fault: bad count in spec %q: %v", spec, err)
		}
		sc.Times = n
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return "", sc, fmt.Errorf("fault: trailing segments %q in spec %q", strings.Join(rest, ":"), spec)
	}
	norm, err := sc.normalized()
	if err != nil {
		return "", sc, fmt.Errorf("fault: spec %q: %v", spec, err)
	}
	return site, norm, nil
}

// Armed reports whether the named site currently has a scenario.
func Armed(site string) bool {
	regMu.Lock()
	s, ok := sites[site]
	regMu.Unlock()
	return ok && s.armed.Load() != nil
}

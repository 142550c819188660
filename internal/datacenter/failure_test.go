package datacenter

import (
	"testing"

	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/sim"
)

// failAgent builds the minimal in-package Agent the pure failure-domain
// paths need: config, engine, and the backoff substream. No node — the
// study tests cover every path that touches the machine.
func failAgent(overcommit float64, seed uint64) *Agent {
	cfg := Config{}
	cfg.Failure = FailureConfig{Overcommit: overcommit}.withDefaults(cfg)
	return &Agent{
		cfg:         cfg,
		eng:         sim.NewEngine(),
		backoffRand: sim.NewRand(seed),
	}
}

func TestShapeRequestClasses(t *testing.T) {
	const bytes = 100 << 20
	// Disabled domain: request == limit for everything.
	off := failAgent(1, 1)
	for class := Class(0); class < NumClasses; class++ {
		for prio := Priority(0); prio < NumPriorities; prio++ {
			req, lim := off.shapeRequest(class, prio, bytes)
			if req != bytes || lim != bytes {
				t.Fatalf("disabled domain shaped %s/%s to (%d,%d)", class, prio, req, lim)
			}
		}
	}
	on := failAgent(2, 1)
	// Guaranteed: never overcommitted.
	if req, lim := on.shapeRequest(ClassTHP, PriorityGuaranteed, bytes); req != bytes || lim != bytes {
		t.Fatalf("guaranteed shaped to (%d,%d)", req, lim)
	}
	// Burstable: full request, overcommitted limit, 2MB-rounded.
	req, lim := on.shapeRequest(ClassTHP, PriorityBurstable, bytes)
	if req != bytes {
		t.Fatalf("burstable request %d, want %d", req, bytes)
	}
	if lim != roundUp2M(2*bytes) || lim < 2*bytes {
		t.Fatalf("burstable limit %d, want 2MB-rounded %d", lim, uint64(2*bytes))
	}
	// Best-effort: token request, overcommitted limit.
	req, lim = on.shapeRequest(ClassTHP, PriorityBestEffort, bytes)
	if req != 16<<20 {
		t.Fatalf("best-effort request %d, want 16MB", req)
	}
	if lim != roundUp2M(2*bytes) {
		t.Fatalf("best-effort limit %d", lim)
	}
	// HPMMAP pods never overcommit: explicit pool allocation has no
	// demand-paged slack, and inflated limits would drain the pools the
	// resident victim allocates from.
	for prio := Priority(0); prio < NumPriorities; prio++ {
		if req, lim := on.shapeRequest(ClassHPMMAP, prio, bytes); req != bytes || lim != bytes {
			t.Fatalf("HPMMAP/%s overcommitted: (%d,%d)", prio, req, lim)
		}
	}
}

func TestPodUsageGrowsToLimit(t *testing.T) {
	a := failAgent(2, 1)
	pd := &pod{request: 100 << 20, bytes: 200 << 20, started: 1000, lifetime: 1000}
	if got := a.podUsage(pd, 1000); got != 100<<20 {
		t.Fatalf("usage at birth %d, want the request", got)
	}
	if got := a.podUsage(pd, 1500); got != 150<<20 {
		t.Fatalf("usage at half life %d, want the request/limit midpoint", got)
	}
	if got := a.podUsage(pd, 2000); got != 200<<20 {
		t.Fatalf("usage at end of life %d, want the limit", got)
	}
	if got := a.podUsage(pd, 5000); got != 200<<20 {
		t.Fatalf("usage past end of life %d, want the limit", got)
	}
	// request == limit (guaranteed, HPMMAP, disabled domain): flat.
	flat := &pod{request: 64 << 20, bytes: 64 << 20, started: 0, lifetime: 1000}
	if got := a.podUsage(flat, 500); got != 64<<20 {
		t.Fatalf("flat pod usage %d", got)
	}
}

func TestSelectVictimOrdering(t *testing.T) {
	a := failAgent(2, 1)
	// All pods past end-of-life so usage == bytes and over == bytes-request.
	mk := func(prio Priority, zone int, overMB uint64) *pod {
		return &pod{prio: prio, zone: zone, request: 64 << 20,
			bytes: (64 + overMB) << 20, started: 0, lifetime: 1}
	}
	g := mk(PriorityGuaranteed, 0, 100)
	bu := mk(PriorityBurstable, 0, 100)
	beSmall := mk(PriorityBestEffort, 0, 10)
	beBig := mk(PriorityBestEffort, 0, 50)
	beOther := mk(PriorityBestEffort, 1, 200)
	done := mk(PriorityBestEffort, 0, 300)
	done.done = true
	a.pods = []*pod{g, bu, beSmall, beBig, beOther, done}

	const now = 1000
	order := []*pod{beBig, beSmall, bu, g}
	for i, want := range order {
		got := a.selectVictim(0, now)
		if got != want {
			t.Fatalf("victim %d: got prio=%s over=%d, want prio=%s over=%d",
				i, got.prio, got.bytes-got.request, want.prio, want.bytes-want.request)
		}
		got.done = true
	}
	if got := a.selectVictim(0, now); got != nil {
		t.Fatal("victim found in a zone with no live pods")
	}
	// Node-wide selection still sees the other zone's pod.
	if got := a.selectVictim(-1, now); got != beOther {
		t.Fatal("node-wide selection missed the surviving pod")
	}
	// Tie on priority and over: earliest admission (slice order) wins.
	t1, t2 := mk(PriorityBestEffort, 0, 20), mk(PriorityBestEffort, 0, 20)
	a.pods = []*pod{t2, t1}
	if got := a.selectVictim(0, now); got != t2 {
		t.Fatal("tie not broken by admission order")
	}
}

// measureBackoff arms one restart attempt and runs the engine dry; with
// the agent stopped the restart callback is a no-op, so the engine
// clock lands exactly on the armed delay.
func measureBackoff(seed uint64, restarts int) sim.Cycles {
	a := failAgent(2, seed)
	a.stopped = true
	a.armRestart(ClassTHP, PriorityBestEffort, 16<<20, 16<<20, 1, restarts)
	a.eng.Run()
	return a.eng.Now()
}

func TestBackoffExponentialJitteredCapped(t *testing.T) {
	f := FailureConfig{Overcommit: 2}.withDefaults(Config{})
	for n := 0; n < 12; n++ {
		want := f.BackoffBase
		for i := 0; i < n && want < f.BackoffCap; i++ {
			want *= 2
		}
		if want > f.BackoffCap {
			want = f.BackoffCap
		}
		d := measureBackoff(uint64(n), n)
		lo := want - want/4
		hi := want + want/4
		if d < lo || d > hi {
			t.Fatalf("restarts=%d: delay %d outside ±25%% of %d", n, d, want)
		}
		if d2 := measureBackoff(uint64(n), n); d2 != d {
			t.Fatalf("restarts=%d: same seed drew different delays (%d vs %d)", n, d, d2)
		}
	}
	// The cap binds: far past the doubling range the delay stays put.
	if d := measureBackoff(3, 50); d > f.BackoffCap+f.BackoffCap/4 {
		t.Fatalf("restarts=50 delay %d exceeds jittered cap", d)
	}
}

func TestQuiescentUptimeResetsCrashLoop(t *testing.T) {
	f := FailureConfig{Overcommit: 2}.withDefaults(Config{})
	// measure arms via scheduleRestart after advancing the clock to
	// uptime, so the quiescence test goes through the real reset branch.
	measure := func(uptime sim.Cycles, restarts int) sim.Cycles {
		a := failAgent(2, 7)
		a.stopped = true
		a.eng.Schedule(uptime, func() {})
		a.eng.Run()
		start := a.eng.Now()
		a.scheduleRestart(&pod{started: 0, restarts: restarts, request: 16 << 20, bytes: 16 << 20, lifetime: 1})
		a.eng.Run()
		return a.eng.Now() - start
	}
	// Short uptime: the crash loop keeps compounding (2^6 = cap here).
	if d := measure(f.BackoffBase, 6); d < f.BackoffCap-f.BackoffCap/4 {
		t.Fatalf("crash-looping pod restarted after only %d cycles", d)
	}
	// Quiescent uptime: the counter resets to the base delay.
	if d := measure(f.QuiescentUptime, 6); d > f.BackoffBase+f.BackoffBase/4 {
		t.Fatalf("quiescent pod still paying compound backoff: %d cycles", d)
	}
}

func TestZoneFailNilAndRangeSafe(t *testing.T) {
	var a *Agent
	a.ZoneFail(0, true) // nil agent: the chaos family runs without a datacenter
	b := failAgent(2, 1)
	b.zoneDown = make([]bool, 2)
	b.ZoneFail(-1, true)
	b.ZoneFail(7, true) // out of range: ignored
	for z, down := range b.zoneDown {
		if down {
			t.Fatalf("out-of-range ZoneFail marked zone %d down", z)
		}
	}
}

// TestPrunedPodsMatchAppendOnlyReference replays random sequences of
// pod launches, evictions, crash-loop restarts, completions and zone
// failures on a small overcommitted node. The test keeps every pod the
// agent ever started in an append-only list, the list evictionPass
// used to scan, and after every engine event checks zoneUsage for each
// zone and selectVictim for each zone and node-wide against that list:
// pruning finished pods must change neither.
func TestPrunedPodsMatchAppendOnlyReference(t *testing.T) {
	const horizon = 400_000_000 // cycles, ~0.18 s of 2.2 GHz time
	var pruned bool
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := kernel.DellR415()
		cfg.MemoryBytes = 1 << 30
		eng := sim.NewEngine()
		node := kernel.NewNode(cfg, eng, sim.NewRand(seed))
		node.SetDefaultMM(linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil))
		a := New(Config{
			ChurnMeanPeriod: 1_100_000,
			PodMeanLifetime: 22_000_000,
			PodBytes:        16 << 20,
			Failure:         FailureConfig{Overcommit: 2.5},
		}, node, nil, seed)
		a.Start()
		r := sim.NewRand(seed ^ 0x9e37)
		for i := 0; i < 4; i++ {
			at := sim.Cycles(r.Uint64n(horizon))
			zone := r.Intn(cfg.NumaZones)
			eng.At(at, func() { a.ZoneFail(zone, true) })
			eng.At(at+sim.Cycles(r.Uint64n(horizon/8)), func() { a.ZoneFail(zone, false) })
		}

		var all []*pod // every pod started, in admission order
		seen := make(map[*pod]bool)
		for eng.Now() < horizon && eng.Step() {
			for _, pd := range a.pods {
				if !seen[pd] {
					seen[pd] = true
					all = append(all, pd)
				}
			}
			pruned = pruned || len(a.pods) < len(all)
			now := eng.Now()
			live := a.pods
			for z := -1; z < cfg.NumaZones; z++ {
				a.pods = all
				wantVictim := a.selectVictim(z, now)
				var wantUsage uint64
				if z >= 0 {
					wantUsage = a.zoneUsage(z, now)
				}
				a.pods = live
				if got := a.selectVictim(z, now); got != wantVictim {
					t.Fatalf("seed %d at cycle %d: zone %d victim %p, append-only list gives %p", seed, now, z, got, wantVictim)
				}
				if z >= 0 {
					if got := a.zoneUsage(z, now); got != wantUsage {
						t.Fatalf("seed %d at cycle %d: zone %d usage %d, append-only list gives %d", seed, now, z, got, wantUsage)
					}
				}
			}
		}
		a.Stop()
		if a.EvictionPasses == 0 || sumClasses(a.Evicted) == 0 || sumClasses(a.Restarts) == 0 || a.Completed == 0 || a.ZoneFailures == 0 {
			t.Fatalf("seed %d: passes %d, evicted %d, restarts %d, completed %d, zone failures %d; want all non-zero",
				seed, a.EvictionPasses, sumClasses(a.Evicted), sumClasses(a.Restarts), a.Completed, a.ZoneFailures)
		}
	}
	if !pruned {
		t.Fatal("no eviction pass dropped a finished pod")
	}
}

// sumClasses sums a per-priority-class counter.
func sumClasses(byClass [NumPriorities]uint64) uint64 {
	var t uint64
	for _, v := range byClass {
		t += v
	}
	return t
}

// The datacenter failure domain: requests-vs-limits overcommit, pod
// priority classes, the kubelet-style pressure-driven eviction engine,
// crash-loop restart backoff, and node-failure (zone-outage) handling.
//
// Ordering contract (the invariant the eviction study asserts): victims
// are chosen lowest-priority-first (best-effort, then burstable, then
// guaranteed), ties broken by largest usage-over-request and then by
// admission order. A guaranteed pod is therefore never evicted while a
// best-effort pod remains live — violated selection raises a structured
// invariant violation, not a silent misaccounting.
//
// Backoff contract: every involuntary death (pressure eviction, zone
// failure, failed re-admission) schedules a restart after
// BackoffBase·2^restarts cycles, jittered ±25% from the dedicated
// backoff substream, capped at BackoffCap; a pod that stayed up for
// QuiescentUptime before dying restarts with a reset counter —
// kubelet's CrashLoopBackOff, deterministically.
package datacenter

import (
	"slices"

	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/sim"
)

// Priority is a pod's eviction priority class, in eviction order:
// lower values are evicted first.
type Priority int

// Priority classes, kubelet QoS order.
const (
	// PriorityBestEffort pods absorb pressure first: minimal request,
	// usage up to the full overcommitted limit.
	PriorityBestEffort Priority = iota
	// PriorityBurstable pods request their nominal size and may burst to
	// the overcommitted limit.
	PriorityBurstable
	// PriorityGuaranteed pods have request == limit and are evicted only
	// when no lower class remains.
	PriorityGuaranteed
	// NumPriorities counts the priority classes.
	NumPriorities
)

func (p Priority) String() string {
	switch p {
	case PriorityBestEffort:
		return "best-effort"
	case PriorityBurstable:
		return "burstable"
	case PriorityGuaranteed:
		return "guaranteed"
	}
	return "?"
}

// FailureConfig shapes the failure domain. The zero value disables it.
type FailureConfig struct {
	// Overcommit is the limits:requests ratio for burstable and
	// best-effort pods. Values <= 1 disable the failure domain entirely:
	// requests equal limits, no eviction manager runs, and involuntary
	// pod deaths are not restarted (the pre-failure-domain agent).
	Overcommit float64

	// EvictPeriod is the eviction manager's sweep cadence. Zero selects
	// ChurnMeanPeriod (or a quarter second of 2.2GHz time without churn)
	// — kubelet's housekeeping interval, scaled to the churn rate.
	EvictPeriod sim.Cycles

	// EvictCommitPressure is the node-wide leg: a sweep also evicts
	// while kernel.Node.CommitPressure exceeds it. Zero selects 0.95.
	EvictCommitPressure float64

	// BackoffBase is the first crash-loop restart delay. Zero selects
	// 5_500_000 cycles (~2.5ms of 2.2GHz time, half a churn period).
	BackoffBase sim.Cycles

	// BackoffCap bounds the exponential backoff. Zero selects 64× base.
	BackoffCap sim.Cycles

	// QuiescentUptime is the uptime after which a pod's crash counter
	// resets. Zero selects 8× BackoffBase.
	QuiescentUptime sim.Cycles

	// EvictStallCycles is the TLB-shootdown stall one eviction deposits
	// on every live Linux-managed process (the kubelet mass-unmapping
	// the victim's address space broadcasts invalidation IPIs; HPMMAP
	// processes are structurally immune). Zero selects 25_000 cycles.
	EvictStallCycles sim.Cycles
}

// Enabled reports whether the failure domain is on.
func (f FailureConfig) Enabled() bool { return f.Overcommit > 1 }

// withDefaults resolves zero fields against the surrounding Config.
// Defaults are resolved even when the domain is disabled so ZoneFail —
// usable independently of overcommit — has a working backoff contract.
func (f FailureConfig) withDefaults(cfg Config) FailureConfig {
	if f.EvictPeriod <= 0 {
		if cfg.ChurnMeanPeriod > 0 {
			f.EvictPeriod = cfg.ChurnMeanPeriod
		} else {
			f.EvictPeriod = 550_000_000
		}
	}
	if f.EvictCommitPressure <= 0 {
		f.EvictCommitPressure = 0.95
	}
	if f.BackoffBase <= 0 {
		f.BackoffBase = 5_500_000
	}
	if f.BackoffCap <= 0 {
		f.BackoffCap = 64 * f.BackoffBase
	}
	if f.QuiescentUptime <= 0 {
		f.QuiescentUptime = 8 * f.BackoffBase
	}
	if f.EvictStallCycles <= 0 {
		f.EvictStallCycles = 25_000
	}
	return f
}

// drawPriority draws a pod's priority class from the dedicated
// substream: half the fleet is best-effort, the classes the paper's
// users would protect are rarer — the shape that makes overcommit
// pressure land on the evictable tier.
func (a *Agent) drawPriority() Priority {
	switch v := a.prioRand.Intn(6); {
	case v < 3:
		return PriorityBestEffort
	case v < 5:
		return PriorityBurstable
	default:
		return PriorityGuaranteed
	}
}

// shapeRequest maps a drawn pod size onto (request, limit) for its
// class and priority. With the failure domain off both equal the drawn
// size — the original agent's admission arithmetic, byte for byte.
// HPMMAP pods never overcommit regardless of priority: the lightweight
// manager allocates explicitly from the offlined pools at map time, so
// there is no demand-paged slack between request and limit to burst
// into (and an inflated limit would drain the pools the resident HPC
// victim allocates from).
func (a *Agent) shapeRequest(class Class, prio Priority, bytes uint64) (request, limit uint64) {
	f := a.cfg.Failure
	if !f.Enabled() || class == ClassHPMMAP {
		return bytes, bytes
	}
	switch prio {
	case PriorityGuaranteed:
		return bytes, bytes
	case PriorityBurstable:
		return bytes, roundUp2M(uint64(float64(bytes) * f.Overcommit))
	default: // best-effort: minimal request, full overcommitted burst
		return 16 << 20, roundUp2M(uint64(float64(bytes) * f.Overcommit))
	}
}

// startEvictor attaches the eviction manager's sweep ticker. No-op when
// the failure domain is disabled, so pre-existing configurations
// schedule exactly the events they always did.
func (a *Agent) startEvictor() {
	if !a.cfg.Failure.Enabled() {
		return
	}
	a.evictTicker = a.eng.NewTicker(a.cfg.Failure.EvictPeriod, a.evictionPass)
}

// podUsage models a pod's current memory usage: it starts at the
// admission request and grows linearly to the limit over the pod's
// lifetime — "admission checks requests, usage grows to limits". A
// pure function of (pod, now), so the books can never drift from the
// pods: usage is computed on demand, not maintained incrementally.
func (a *Agent) podUsage(pd *pod, now sim.Cycles) uint64 {
	if pd.bytes <= pd.request {
		return pd.request
	}
	elapsed := now - pd.started
	if elapsed >= pd.lifetime {
		return pd.bytes
	}
	return pd.request + uint64(float64(pd.bytes-pd.request)*float64(elapsed)/float64(pd.lifetime))
}

// zoneUsage sums the modeled usage of a zone's live pods.
func (a *Agent) zoneUsage(zone int, now sim.Cycles) uint64 {
	var t uint64
	for _, pd := range a.pods {
		if !pd.done && pd.zone == zone {
			t += a.podUsage(pd, now)
		}
	}
	return t
}

// evictionPass is one eviction-manager sweep: drain every zone back
// under its hugepage budget, then relieve node commit pressure,
// lowest-priority victims first. The pressure leg evicts at most one
// pod per sweep (kubelet's eviction manager pace) — the zone legs are
// the bulk path, and they converge because every eviction strictly
// lowers the zone's summed usage. Deterministic — selection draws
// nothing; only restart backoff jitter consumes randomness, from its
// own substream.
//
// The sweep first drops finished pods from a.pods, which every launch
// and restart appends to. Every scan of the list skips them, and the
// live pods keep their admission order, so the uint64 usage sums and
// selectVictim's first-wins tie-break see what they saw on the full
// list.
func (a *Agent) evictionPass() {
	if a.stopped {
		return
	}
	a.pods = slices.DeleteFunc(a.pods, func(pd *pod) bool { return pd.done })
	a.EvictionPasses++
	a.m.evictPasses.Inc()
	f := a.cfg.Failure
	now := a.eng.Now()
	evicted := 0
	for z := range a.allocated {
		for a.zoneUsage(z, now) > a.budget {
			pd := a.selectVictim(z, now)
			if pd == nil {
				break // nothing evictable: the overrun is not pod-driven
			}
			a.evict(pd)
			evicted++
		}
	}
	// Node-wide leg: commit pressure counts every tenant and the victim
	// workload; evicting pods is the only relief the agent can offer.
	if a.node.CommitPressure() > f.EvictCommitPressure {
		if pd := a.selectVictim(-1, now); pd != nil {
			a.evict(pd)
			evicted++
		}
	}
	if evicted > 0 {
		a.depositEvictStalls(evicted)
	}
}

// selectVictim picks the next eviction victim in the zone (-1 = node
// wide): lowest priority class first, then largest usage-over-request,
// then earliest admission. Returns nil when no live pod qualifies.
func (a *Agent) selectVictim(zone int, now sim.Cycles) *pod {
	var best *pod
	var bestOver uint64
	for _, pd := range a.pods {
		if pd.done || (zone >= 0 && pd.zone != zone) {
			continue
		}
		over := a.podUsage(pd, now) - pd.request
		if best == nil {
			best, bestOver = pd, over
			continue
		}
		if pd.prio != best.prio {
			if pd.prio < best.prio {
				best, bestOver = pd, over
			}
			continue
		}
		if over > bestOver {
			best, bestOver = pd, over
		}
	}
	return best
}

// evict removes one pod under pressure, charging the eviction books and
// scheduling its crash-loop restart. The priority-ordering invariant is
// asserted here: evicting a guaranteed pod while any best-effort pod
// remains live anywhere on the node is a bug, not a policy choice.
func (a *Agent) evict(pd *pod) {
	if pd.prio == PriorityGuaranteed {
		for _, other := range a.pods {
			if !other.done && other.prio == PriorityBestEffort {
				invariant.Failf("dc_eviction_priority", "datacenter",
					"guaranteed pod %s evicted while best-effort pod %s is live",
					pd.p, other.p)
			}
		}
	}
	pd.done = true
	a.release(pd)
	a.Running--
	if !pd.p.Exited {
		a.node.ExitReap(pd.p)
	}
	a.Evicted[pd.prio]++
	a.m.evicted.Inc()
	a.scheduleRestart(pd)
}

// depositEvictStalls broadcasts the sweep's TLB-shootdown cost: every
// live Linux-managed process pays one mm-lock stall proportional to the
// number of address spaces torn down, consumed (and attributed to the
// evict cause) by its next fault. HPMMAP processes never read these.
func (a *Agent) depositEvictStalls(evicted int) {
	stall := a.cfg.Failure.EvictStallCycles * sim.Cycles(evicted)
	now := a.eng.Now()
	a.node.Processes(func(p *kernel.Process) {
		if p.Exited {
			return
		}
		if until := now + stall; until > p.MMLockedUntil {
			p.MMLockedUntil = until
		}
		p.PendingEvictCosts = append(p.PendingEvictCosts, stall)
	})
}

// scheduleRestart arms the crash-loop for an involuntarily killed pod.
func (a *Agent) scheduleRestart(pd *pod) {
	restarts := pd.restarts
	if a.eng.Now()-pd.started >= a.cfg.Failure.QuiescentUptime {
		restarts = 0 // quiescent uptime: the crash loop is forgiven
	}
	a.armRestart(pd.class, pd.prio, pd.request, pd.bytes, pd.lifetime, restarts)
}

// armRestart schedules one restart attempt after the class backoff:
// base·2^restarts, jittered ±25% from the backoff substream, capped.
func (a *Agent) armRestart(class Class, prio Priority, request, limit uint64, lifetime sim.Cycles, restarts int) {
	f := a.cfg.Failure
	delay := f.BackoffBase
	for i := 0; i < restarts && delay < f.BackoffCap; i++ {
		delay *= 2
	}
	if delay > f.BackoffCap {
		delay = f.BackoffCap
	}
	delay = a.backoffRand.Jitter(delay, 0.25)
	if delay < 1 {
		delay = 1
	}
	a.BackoffHist.Observe(uint64(delay))
	a.m.backoff.Observe(uint64(delay))
	a.eng.Schedule(delay, func() { a.restartPod(class, prio, request, limit, lifetime, restarts+1) })
}

// restartPod is one crash-loop attempt: re-admit the request and bring
// the pod back for a full lifetime. A failed re-admission (every zone
// full or down) stays in the loop at the next backoff step.
func (a *Agent) restartPod(class Class, prio Priority, request, limit uint64, lifetime sim.Cycles, restarts int) {
	if a.stopped {
		return
	}
	zone := a.admit(request)
	if zone < 0 {
		a.armRestart(class, prio, request, limit, lifetime, restarts)
		return
	}
	if a.startPod(class, prio, request, limit, lifetime, restarts, zone, true) != nil {
		a.Restarts[prio]++
		a.m.restarts.Inc()
	}
}

// ZoneFail is the node-failure chaos hook (chaos.Injector.
// SetZoneFailHandler): a zone's memory goes offline at the orchestration
// level. Its pods are displaced — guaranteed and burstable tenants are
// rescheduled onto surviving zones for their remaining lifetime when
// capacity allows, best-effort tenants (and reschedules that find no
// room) fall into the crash-loop backoff. On recovery the zone simply
// resumes admitting; nothing migrates back. Safe on a nil agent, so the
// chaos family works with no datacenter attached (draws intact).
func (a *Agent) ZoneFail(zone int, down bool) {
	if a == nil || a.stopped || zone < 0 || zone >= len(a.zoneDown) {
		return
	}
	if !down {
		a.zoneDown[zone] = false
		return
	}
	if a.zoneDown[zone] {
		return
	}
	a.zoneDown[zone] = true
	a.ZoneFailures++

	// Snapshot the zone's tenants: displacement appends new pods.
	var victims []*pod
	for _, pd := range a.pods {
		if !pd.done && pd.zone == zone {
			victims = append(victims, pd)
		}
	}
	// Best-effort pods go first — into the crash loop — so the
	// eviction-ordering invariant holds when the pressure legs run
	// inside the same sweep window.
	for _, pd := range victims {
		if pd.prio == PriorityBestEffort {
			a.evict(pd)
		}
	}
	for _, pd := range victims {
		if pd.prio == PriorityBestEffort {
			continue
		}
		a.reschedule(pd)
	}
}

// reschedule moves a displaced pod to a surviving zone for its
// remaining lifetime; with no capacity anywhere it joins the crash
// loop (counted as a restart, never an eviction — the zone died, the
// pod did nothing wrong).
func (a *Agent) reschedule(pd *pod) {
	pd.done = true
	a.release(pd)
	a.Running--
	if !pd.p.Exited {
		a.node.ExitReap(pd.p)
	}
	remaining := pd.started + pd.lifetime - a.eng.Now()
	if remaining < 1 {
		remaining = 1
	}
	newZone := a.admitExcluding(pd.request, pd.zone)
	if newZone < 0 {
		a.scheduleRestart(pd)
		return
	}
	if a.startPod(pd.class, pd.prio, pd.request, pd.bytes, remaining, pd.restarts, newZone, true) != nil {
		a.Rescheduled++
		a.m.rescheduled.Inc()
	}
}

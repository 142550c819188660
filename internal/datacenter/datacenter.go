// Package datacenter is a kubelet-style orchestration agent for the
// simulated node: it restates the paper's isolation claim at
// cluster-orchestration scale (DESIGN.md §11). The agent pre-reserves
// per-NUMA-zone hugepage budgets, admits short-lived "pods" — mixed
// THP / HugeTLBfs / HPMMAP tenants with memory requests — by
// deterministic bin-packing against those budgets, and drives pod
// lifecycle churn at a configurable rate. Pods allocate and touch real
// simulated memory through the ordinary manager paths, so their fault
// tails and their interference with a resident HPC job emerge from
// actual allocator/reclaim state, exactly like every other workload in
// this repository.
//
// Determinism contract (mirrors internal/chaos): every draw comes from
// a datacenter-dedicated SplitMix64 stream derived from the cell seed
// under a distinct tag — never from the workload PRNG — so attaching an
// agent perturbs the machine but not the workload's own random
// choices, and a given (seed, Config) produces a byte-identical pod
// schedule at any runner worker count. Each concern (churn timing, pod
// specs, lifetimes, resident measurement) owns a Split substream carved
// in a fixed order, and a rejected pod consumes exactly the same draws
// as an admitted one, so admission pressure never shifts later specs.
//
// Pod teardown uses the kernel's lifecycle fast path (ExitReap): a pod
// that has reached its scheduled end is quiescent by construction — it
// has no tasks and no pending events of its own — which is precisely
// the reuse contract of DESIGN.md §11.
package datacenter

import (
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// Class is the memory-manager tenancy of a pod.
type Class int

// Tenant classes, in draw order.
const (
	// ClassTHP pods run as commodity processes: the mixed-tenancy
	// manager routes them to transparent huge pages.
	ClassTHP Class = iota
	// ClassHugeTLB pods run as non-commodity Linux processes backed by
	// the pre-reserved hugetlbfs pools.
	ClassHugeTLB
	// ClassHPMMAP pods are launched through the HPMMAP registration
	// tool and live entirely on the offlined pools.
	ClassHPMMAP
	// NumClasses counts the tenant classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassTHP:
		return "thp"
	case ClassHugeTLB:
		return "hugetlbfs"
	case ClassHPMMAP:
		return "hpmmap"
	}
	return "?"
}

// dcTag separates the datacenter stream from every workload and chaos
// stream derived from the same cell seed ("DCTR\n" | stream version 1).
const dcTag = 0x444354520a000001

// DeriveSeed maps a cell seed onto the datacenter-dedicated stream seed
// via the SplitMix64 finalizer, exactly as chaos.DeriveSeed does under
// its own tag.
func DeriveSeed(cellSeed uint64) uint64 {
	state := cellSeed ^ dcTag
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config shapes the pod churn the agent drives.
type Config struct {
	// ChurnMeanPeriod is the mean inter-arrival of pod launches, in
	// cycles. Zero disables churn entirely (Start attaches only the
	// resident measurement pods).
	ChurnMeanPeriod sim.Cycles

	// PodMeanLifetime is the mean pod lifetime, drawn exponentially.
	PodMeanLifetime sim.Cycles

	// PodBytes is the nominal pod memory request; individual pods
	// jitter ±50% around it and round up to 2MB.
	PodBytes uint64

	// ZoneBudgetBytes is the per-NUMA-zone hugepage budget the agent
	// pre-reserves for admission (the kubelet's allocatable hugepages).
	// Zero derives a quarter of each zone's physical memory.
	ZoneBudgetBytes uint64

	// ResidentBytes is the working set of each class's long-lived
	// measurement pod. Zero disables the resident pods.
	ResidentBytes uint64

	// ResidentPeriod is the interval at which each resident pod
	// remeasures: munmap its region, mmap it again, and touch it in 2MB
	// slices, observing per-slice fault latency. Zero selects
	// ChurnMeanPeriod (or a quarter second when churn is off too).
	ResidentPeriod sim.Cycles

	// Failure shapes the failure domain: requests-vs-limits overcommit,
	// priority classes, the pressure-driven eviction engine, and
	// crash-loop restart backoff (failure.go). The zero value disables
	// all of it — requests equal limits and the agent behaves exactly as
	// it did before the failure domain existed.
	Failure FailureConfig
}

// DefaultConfig returns the study's standard churn shape: pod arrivals
// every ~5ms of 2.2GHz simulated time, ~30ms lifetimes, 64MB requests,
// and 32MB resident measurement pods.
func DefaultConfig() Config {
	return Config{
		ChurnMeanPeriod: 11_000_000,
		PodMeanLifetime: 66_000_000,
		PodBytes:        64 << 20,
		ResidentBytes:   32 << 20,
	}
}

// Launcher launches an HPMMAP-registered process (implemented by
// core.Manager). Nil means ClassHPMMAP pods are skipped at draw time —
// their draws are still consumed.
type Launcher interface {
	Launch(name string, preferredZone int) (*kernel.Process, error)
}

// pod is one live tenant.
type pod struct {
	p     *kernel.Process
	class Class
	zone  int
	// request is the admission charge (the pod's memory request); bytes
	// is its limit — the usage it actually maps and touches. With the
	// failure domain off the two are equal.
	request uint64
	bytes   uint64
	prio    Priority
	// lifetime and started let eviction/zone-failure displacement
	// reschedule the pod for its remaining life, and feed the
	// quiescent-uptime backoff reset.
	lifetime sim.Cycles
	started  sim.Cycles
	// restarts counts consecutive involuntary deaths (evictions, zone
	// failures, failed re-admissions) driving the crash-loop backoff.
	restarts int
	done     bool
}

// Agent is the kubelet-style node agent.
type Agent struct {
	cfg  Config
	node *kernel.Node
	eng  *sim.Engine
	hp   Launcher
	rnd  *sim.Rand

	// Per-concern substreams, carved in a fixed order at New. prioRand
	// and backoffRand postdate the original four and are carved after
	// them, so enabling the failure domain never shifts the churn, spec,
	// lifetime or resident draw sequences.
	churnRand, specRand, lifeRand, residentRand *sim.Rand
	prioRand, backoffRand                       *sim.Rand

	// budget and allocated track per-zone admission bookkeeping
	// (requests). Actual usage — which grows from request toward limit
	// over a pod's lifetime and can overrun the budget under overcommit,
	// the eviction signal — is computed on demand from the live pods
	// (podUsage/zoneUsage in failure.go), never maintained incrementally.
	budget    uint64
	allocated []uint64

	// zoneDown marks zones lost to a node-failure chaos event; admission
	// skips them until recovery.
	zoneDown []bool

	// pods holds the started pods in admission order; evictionPass
	// drops the finished ones.
	pods        []*pod
	stopped     bool
	seq         int
	evictTicker *sim.Ticker

	// resident measurement pods, one per class.
	resident [NumClasses]*residentPod

	// Statistics (always counted; mirrored to metrics when observed).
	Launched  [NumClasses]uint64
	Rejected  uint64
	Completed uint64
	OOMKilled uint64
	Running   int

	// Failure-domain statistics (failure.go).
	Evicted        [NumPriorities]uint64
	Restarts       [NumPriorities]uint64
	Rescheduled    uint64
	EvictionPasses uint64
	ZoneFailures   uint64
	// BackoffHist observes every crash-loop restart delay, in cycles.
	BackoffHist metrics.Histogram

	// TouchHist observes per-2MB-slice first-touch fault latency by
	// class — the per-manager tail the datacenter study tabulates.
	// MmapHist observes per-mmap system-call cost by class.
	TouchHist [NumClasses]metrics.Histogram
	MmapHist  [NumClasses]metrics.Histogram

	m struct {
		launched    *metrics.Counter
		rejected    *metrics.Counter
		completed   *metrics.Counter
		oomKilled   *metrics.Counter
		touch       *metrics.Histogram
		evicted     *metrics.Counter
		restarts    *metrics.Counter
		rescheduled *metrics.Counter
		evictPasses *metrics.Counter
		backoff     *metrics.Histogram
	}
}

// residentPod is a long-lived measurement tenant that repeatedly remaps
// and re-touches its working set so the touch histograms keep sampling
// the node's current allocator state.
type residentPod struct {
	class  Class
	proc   *kernel.Process
	addr   pgtable.VirtAddr
	mapped uint64
	ticker *sim.Ticker
}

// New creates an agent for the node. hp may be nil (ClassHPMMAP pods
// are then dropped at launch, draws intact). seed is the
// datacenter-dedicated stream seed (DeriveSeed of the cell seed).
func New(cfg Config, node *kernel.Node, hp Launcher, seed uint64) *Agent {
	if cfg.PodMeanLifetime <= 0 {
		cfg.PodMeanLifetime = DefaultConfig().PodMeanLifetime
	}
	if cfg.PodBytes == 0 {
		cfg.PodBytes = DefaultConfig().PodBytes
	}
	if cfg.ResidentPeriod <= 0 {
		if cfg.ChurnMeanPeriod > 0 {
			cfg.ResidentPeriod = cfg.ChurnMeanPeriod
		} else {
			cfg.ResidentPeriod = 550_000_000
		}
	}
	cfg.Failure = cfg.Failure.withDefaults(cfg)
	a := &Agent{
		cfg:       cfg,
		node:      node,
		eng:       node.Engine(),
		hp:        hp,
		rnd:       sim.NewRand(seed),
		allocated: make([]uint64, node.Config().NumaZones),
		zoneDown:  make([]bool, node.Config().NumaZones),
	}
	// Fixed split order — see the determinism contract above.
	a.churnRand = a.rnd.Split()
	a.specRand = a.rnd.Split()
	a.lifeRand = a.rnd.Split()
	a.residentRand = a.rnd.Split()
	a.prioRand = a.rnd.Split()
	a.backoffRand = a.rnd.Split()
	a.budget = cfg.ZoneBudgetBytes
	if a.budget == 0 {
		a.budget = node.Config().MemoryBytes / uint64(node.Config().NumaZones) / 4
	}
	return a
}

// Observe registers the agent's metric handles. Nil-safe; call before
// Start so the first pods are counted.
func (a *Agent) Observe(reg *metrics.Registry) {
	if a == nil {
		return
	}
	a.m.launched = reg.Counter(metrics.DatacenterPodsLaunchedTotal)
	a.m.rejected = reg.Counter(metrics.DatacenterPodsRejectedTotal)
	a.m.completed = reg.Counter(metrics.DatacenterPodsCompletedTotal)
	a.m.oomKilled = reg.Counter(metrics.DatacenterPodsOOMKilledTotal)
	a.m.touch = reg.Histogram(metrics.DatacenterPodTouchCycles)
	a.m.evicted = reg.Counter(metrics.DatacenterPodsEvictedTotal)
	a.m.restarts = reg.Counter(metrics.DatacenterPodsRestartedTotal)
	a.m.rescheduled = reg.Counter(metrics.DatacenterPodsRescheduledTotal)
	a.m.evictPasses = reg.Counter(metrics.DatacenterEvictionPassesTotal)
	a.m.backoff = reg.Histogram(metrics.DatacenterPodBackoffCycles)
	reg.GaugeFunc(metrics.DatacenterPodsRunning, func() float64 { return float64(a.Running) })
	reg.GaugeFunc(metrics.DatacenterAdmittedBytes, func() float64 {
		var t uint64
		for _, b := range a.allocated {
			t += b
		}
		return float64(t)
	})
}

// Start attaches the churn loop, the resident measurement pods, and —
// when the failure domain is enabled — the eviction manager.
func (a *Agent) Start() {
	a.startEvictor()
	if a.cfg.ResidentBytes > 0 {
		for c := Class(0); c < NumClasses; c++ {
			a.startResident(c)
		}
	}
	if a.cfg.ChurnMeanPeriod > 0 {
		var step func()
		step = func() {
			if a.stopped {
				return
			}
			a.launchPod()
			if !a.stopped {
				a.eng.Schedule(a.interval(), step)
			}
		}
		a.eng.Schedule(a.interval(), step)
	}
}

// Stop halts churn and tears down every live pod (plain Exit: the run
// is ending and nothing needs the recycled structs).
func (a *Agent) Stop() {
	if a == nil || a.stopped {
		return
	}
	a.stopped = true
	if a.evictTicker != nil {
		a.evictTicker.Stop()
	}
	for _, r := range a.resident {
		if r == nil {
			continue
		}
		if r.ticker != nil {
			r.ticker.Stop()
		}
		if r.proc != nil && !r.proc.Exited {
			a.node.Exit(r.proc)
		}
	}
	for _, pd := range a.pods {
		if pd.done {
			continue
		}
		pd.done = true
		a.release(pd)
		if !pd.p.Exited {
			a.node.Exit(pd.p)
		}
	}
	a.pods = nil
	a.Running = 0
}

func (a *Agent) interval() sim.Cycles {
	d := sim.Cycles(a.churnRand.Exponential(float64(a.cfg.ChurnMeanPeriod)))
	if d < 1 {
		d = 1
	}
	return d
}

// admit bin-packs a request against the per-zone budgets: the zone with
// the most free budget wins, ties to the lowest index — a deterministic
// worst-fit that spreads tenants like the kubelet's NUMA-aware
// hugepages admission. Returns the zone, or -1 when no zone fits.
// Admission checks requests; usage (tracked separately, up to the
// pod's limit) is what the eviction engine watches.
func (a *Agent) admit(request uint64) int {
	return a.admitExcluding(request, -1)
}

// admitExcluding is admit with one zone ruled out (the zone a
// displaced pod is fleeing). Down zones never admit.
func (a *Agent) admitExcluding(request uint64, exclude int) int {
	best, bestFree := -1, uint64(0)
	for z := range a.allocated {
		if z == exclude || a.zoneDown[z] {
			continue
		}
		free := uint64(0)
		if a.allocated[z] < a.budget {
			free = a.budget - a.allocated[z]
		}
		if free >= request && free > bestFree {
			best, bestFree = z, free
		}
	}
	if best >= 0 {
		a.allocated[best] += request
	}
	return best
}

// release returns a pod's admission charge to its zone, auditing the
// books on the way out: an underflow here means a pod was
// double-released or its charge was leaked across an eviction.
func (a *Agent) release(pd *pod) {
	if a.allocated[pd.zone] < pd.request {
		invariant.Failf("dc_admission_conservation", "datacenter",
			"zone %d releasing request %d with only %d allocated",
			pd.zone, pd.request, a.allocated[pd.zone])
	}
	a.allocated[pd.zone] -= pd.request
}

// launchPod draws one pod spec, admits it, and runs its lifecycle. All
// spec draws happen before the admission branch so a rejected pod
// consumes exactly the draws an admitted one would. The priority draw
// comes from its own substream (prioRand), so it never shifts the
// class/size/lifetime sequences the original studies pinned.
func (a *Agent) launchPod() {
	class := Class(a.specRand.Intn(int(NumClasses)))
	bytes := uint64(a.specRand.Jitter(sim.Cycles(a.cfg.PodBytes), 0.5))
	bytes = roundUp2M(bytes)
	if bytes < 16<<20 {
		bytes = 16 << 20
	}
	lifetime := sim.Cycles(a.lifeRand.Exponential(float64(a.cfg.PodMeanLifetime)))
	if lifetime < 1 {
		lifetime = 1
	}
	prio := a.drawPriority()
	request, limit := a.shapeRequest(class, prio, bytes)

	zone := a.admit(request)
	if zone < 0 {
		a.Rejected++
		a.m.rejected.Inc()
		return
	}
	a.startPod(class, prio, request, limit, lifetime, 0, zone, false)
}

// startPod spawns the pod process, maps and touches its limit, and
// schedules its natural end. relaunch marks crash-loop restarts and
// zone-failure reschedules, which are not new launches. The zone must
// already hold the admission charge; a spawn failure returns it.
// Returns the live pod, or nil.
func (a *Agent) startPod(class Class, prio Priority, request, limit uint64, lifetime sim.Cycles, restarts, zone int, relaunch bool) *pod {
	a.seq++
	p, err := a.spawn(class, fmt.Sprintf("pod-%s.%d", class, a.seq), zone)
	if err != nil || p == nil {
		// Launch failure (no HPMMAP module, pool exhausted): the
		// request was admitted but never became a tenant.
		a.release(&pod{zone: zone, request: request, bytes: limit})
		a.Rejected++
		a.m.rejected.Inc()
		return nil
	}
	pd := &pod{p: p, class: class, zone: zone, request: request, bytes: limit,
		prio: prio, lifetime: lifetime, started: a.eng.Now(), restarts: restarts}
	a.pods = append(a.pods, pd)
	a.Running++
	if !relaunch {
		a.Launched[class]++
		a.m.launched.Inc()
	}

	addr, cost, err := a.node.Mmap(p, limit, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	if err == nil {
		a.MmapHist[class].Observe(uint64(cost))
		a.touchSlices(p, class, addr, limit)
	}
	a.eng.Schedule(lifetime, func() { a.endPod(pd) })
	return pd
}

// spawn creates the pod process on the class's manager path.
func (a *Agent) spawn(class Class, name string, zone int) (*kernel.Process, error) {
	switch class {
	case ClassTHP:
		return a.node.NewProcess(name, true, zone)
	case ClassHugeTLB:
		return a.node.NewProcess(name, false, zone)
	case ClassHPMMAP:
		if a.hp == nil {
			return nil, nil
		}
		return a.hp.Launch(name, zone)
	}
	return nil, fmt.Errorf("datacenter: unknown class %d", class)
}

// touchSlices first-touches [addr, addr+bytes) in 2MB slices, observing
// each slice's fault service time into the class tail histogram. An
// error (the OOM killer took the pod mid-touch) ends the walk.
func (a *Agent) touchSlices(p *kernel.Process, class Class, addr pgtable.VirtAddr, bytes uint64) {
	for off := uint64(0); off < bytes; off += mem.LargePageSize {
		n := uint64(mem.LargePageSize)
		if off+n > bytes {
			n = bytes - off
		}
		cost, err := a.node.TouchRange(p, addr+pgtable.VirtAddr(off), n)
		if err != nil {
			return
		}
		c := uint64(cost)
		a.TouchHist[class].Observe(c)
		a.m.touch.Observe(c)
	}
}

// endPod completes a pod's lifecycle: release its admission, then
// recycle the process through the lifecycle fast path. A pod the OOM
// killer already took counts as OOMKilled instead of Completed.
func (a *Agent) endPod(pd *pod) {
	if pd.done || a.stopped {
		return
	}
	pd.done = true
	a.release(pd)
	a.Running--
	if pd.p.Exited {
		a.OOMKilled++
		a.m.oomKilled.Inc()
		return
	}
	a.node.ExitReap(pd.p)
	a.Completed++
	a.m.completed.Inc()
}

// startResident launches one class's long-lived measurement pod and its
// remeasurement ticker. A pod lost to the OOM killer is relaunched on
// the next tick (the agent restarts failed tenants, kubelet-style).
func (a *Agent) startResident(class Class) {
	r := &residentPod{class: class}
	a.resident[class] = r
	// Stagger the classes' phases deterministically so their
	// measurement windows interleave rather than align.
	offset := a.cfg.ResidentPeriod * sim.Cycles(class+1) / sim.Cycles(NumClasses+1)
	a.eng.Schedule(offset+1, func() {
		a.remeasure(r)
		r.ticker = a.eng.NewTicker(a.cfg.ResidentPeriod, func() { a.remeasure(r) })
	})
}

// remeasure runs one measurement cycle for a resident pod: drop the old
// region, map a fresh one, and fault it in slice by slice under
// whatever pressure the node is currently under.
func (a *Agent) remeasure(r *residentPod) {
	if a.stopped {
		return
	}
	if r.proc != nil && r.proc.Exited {
		// The OOM killer took the measurement pod: relaunch it.
		r.proc, r.mapped = nil, 0
	}
	if r.proc == nil {
		a.seq++
		p, err := a.spawn(r.class, fmt.Sprintf("pod-resident-%s.%d", r.class, a.seq), a.residentRand.Intn(len(a.allocated)))
		if err != nil || p == nil {
			return
		}
		r.proc = p
	}
	if r.mapped > 0 {
		if _, err := a.node.Munmap(r.proc, r.addr, r.mapped); err != nil {
			return
		}
		r.mapped = 0
	}
	bytes := roundUp2M(a.cfg.ResidentBytes)
	if bytes < 16<<20 {
		bytes = 16 << 20
	}
	addr, cost, err := a.node.Mmap(r.proc, bytes, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	if err != nil {
		return
	}
	a.MmapHist[r.class].Observe(uint64(cost))
	r.addr, r.mapped = addr, bytes
	a.touchSlices(r.proc, r.class, addr, bytes)
}

// LaunchedTotal sums admitted pods across classes.
func (a *Agent) LaunchedTotal() uint64 {
	var t uint64
	for _, v := range a.Launched {
		t += v
	}
	return t
}

func roundUp2M(v uint64) uint64 {
	return (v + mem.LargePageSize - 1) / mem.LargePageSize * mem.LargePageSize
}

// Package experiments reproduces every table and figure of the paper's
// evaluation (Section IV): the fault-cost tables (Figs. 2–3), the fault
// timelines (Figs. 4–5), the single-node weak-scaling study (Fig. 7) and
// the 8-node scaling study (Fig. 8). Each experiment builds the exact
// system configuration the paper describes, runs the workloads through
// the full memory-management machinery, and reports the paper's rows and
// series.
package experiments

import (
	"context"
	"fmt"

	"hpmmap/internal/chaos"
	"hpmmap/internal/cluster"
	"hpmmap/internal/core"
	"hpmmap/internal/datacenter"
	"hpmmap/internal/hugetlb"
	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
	"hpmmap/internal/sim"
	"hpmmap/internal/thp"
	"hpmmap/internal/timeline"
	"hpmmap/internal/trace"
	"hpmmap/internal/workload"
)

// ModelVersion identifies the simulator's cost-model generation. It is
// folded into every result-cache key (runner.NewCache version), so
// cached cells from an older model can never be confused with fresh
// ones. Bump it whenever a calibrated constant or cost path changes.
const ModelVersion = "sim-v1"

// ManagerKind selects one of the paper's three memory-management
// configurations.
type ManagerKind int

// The three configurations of Section IV: THP manages everything;
// HugeTLBfs manages the HPC app with THP disabled; HPMMAP manages the HPC
// app with THP managing the commodity side.
const (
	THP ManagerKind = iota
	HugeTLBfs
	HPMMAP
	// Mixed is the datacenter tenancy configuration (not one of the
	// paper's three): HugeTLBfs pools and the HPMMAP module coexist
	// with THP on one node, so all three tenant classes of the
	// datacenter study run side by side. Non-commodity Linux processes
	// get the hugetlb pools, commodity processes get THP, and
	// registered processes get HPMMAP's offlined memory.
	Mixed
)

func (k ManagerKind) String() string {
	switch k {
	case THP:
		return "Linux (THP)"
	case HugeTLBfs:
		return "Linux (HugeTLBfs)"
	case HPMMAP:
		return "HPMMAP"
	case Mixed:
		return "Mixed tenancy"
	}
	return "?"
}

// Key returns the short, stable identifier used in runner cell
// coordinates and result-cache keys.
func (k ManagerKind) Key() string {
	switch k {
	case THP:
		return "thp"
	case HugeTLBfs:
		return "hugetlbfs"
	case HPMMAP:
		return "hpmmap"
	case Mixed:
		return "mixed"
	}
	return "unknown"
}

// Profile is a competing-commodity-workload profile from the paper.
type Profile int

// Profiles: None (idle), A/B (single node: one or two parallel kernel
// builds), C/D (per cluster node: one or two 4-way builds).
const (
	ProfileNone Profile = iota
	ProfileA
	ProfileB
	ProfileC
	ProfileD
)

func (p Profile) String() string {
	names := [...]string{"none", "A", "B", "C", "D"}
	if p < 0 || int(p) >= len(names) {
		return "?"
	}
	return names[p]
}

// Scale shrinks an experiment for fast test runs: footprints, memory and
// iteration counts all scale together so the contention structure is
// preserved. 1.0 reproduces the paper's configuration.
type Scale float64

// bytes scales a byte quantity by s, truncating toward zero. It keeps
// no granularity: callers that need section alignment round the result
// themselves (offlineBytes).
func (s Scale) bytes(b uint64) uint64 {
	v := uint64(float64(b) * float64(s))
	return v
}

// Rig is one booted node: its engine, the node, its Linux memory
// manager, and the HPMMAP module and khugepaged daemon where its
// configuration loads them (nil otherwise).
type Rig struct {
	Eng    *sim.Engine
	Node   *kernel.Node
	MM     *linuxmm.Manager
	HP     *core.Manager
	Daemon *thp.Daemon
}

// offlineBytes returns the paper's reservation/offline size for a
// machine: 12GB of the 16GB single node, 20GB of the 24GB cluster node,
// scaled by sc and rounded down to the offlining granularity. It picks
// between the two from the memory it is handed, which Boot has already
// scaled, so below full scale the cluster node gets 12GB × sc, and
// from 1.5× up the single node asks for 20GB × sc (ROADMAP item 3).
func offlineBytes(mc kernel.MachineConfig, sc Scale) uint64 {
	base := uint64(12 << 30)
	if mc.MemoryBytes >= 24<<30 {
		base = 20 << 30
	}
	return sectionFloor(sc.bytes(base))
}

// sectionFloor rounds b down to the 256MB offlining granularity
// (section size × zones), but to no less than one such unit.
func sectionFloor(b uint64) uint64 {
	const unit = 256 << 20
	b -= b % unit
	if b < unit {
		b = unit
	}
	return b
}

// Boot boots one node of machine preset mc on eng under one of the
// manager configurations. mc is the unscaled preset: Boot is the one
// place that scales a machine's memory by sc, picks its pool and wires
// its managers, for every experiment's node, the root facade's System
// and hpmmapctl alike. pool is the bytes reserved for hugetlbfs or
// offlined for HPMMAP (Mixed splits it between the two); 0 picks the
// paper's pool, offlineBytes. seed seeds the node's PRNG and detail
// selects micro fidelity.
func Boot(mc kernel.MachineConfig, eng *sim.Engine, seed uint64, kind ManagerKind, detail bool, sc Scale, pool uint64) (*Rig, error) {
	mc.MemoryBytes = sc.bytes(mc.MemoryBytes)
	if pool == 0 {
		pool = offlineBytes(mc, sc)
	}
	node := kernel.NewNode(mc, eng, sim.NewRand(seed))
	node.Detail = detail
	r := &Rig{Eng: eng, Node: node}
	switch kind {
	case THP:
		r.MM = linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
		node.SetDefaultMM(r.MM)
		r.Daemon = thp.Start(node, r.MM)
	case HugeTLBfs:
		pools, err := hugetlb.Reserve(node.Mem, pool)
		if err != nil {
			return nil, fmt.Errorf("experiments: hugetlb reserve: %w", err)
		}
		node.SetReservedBytes(pool)
		r.MM = linuxmm.New(node, linuxmm.ModeHugeTLB, linuxmm.Mode4KOnly, pools)
		node.SetDefaultMM(r.MM)
		// THP is disabled in this configuration: no daemon.
	case HPMMAP:
		r.MM = linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
		node.SetDefaultMM(r.MM)
		r.Daemon = thp.Start(node, r.MM)
		hp, err := core.Install(node, pool)
		if err != nil {
			return nil, fmt.Errorf("experiments: hpmmap install: %w", err)
		}
		r.HP = hp
	case Mixed:
		// Datacenter tenancy: split the reservation budget between the
		// hugetlb pools (a quarter) and HPMMAP's offlined memory (five
		// eighths), leaving the rest to Linux; THP serves commodity
		// processes as usual.
		htlb, hpB := sectionFloor(pool/4), sectionFloor(pool*5/8)
		// Offline HPMMAP's memory first: section offlining needs the top
		// of each zone untouched, and the hugetlb reservation below
		// would otherwise fragment it.
		hp, err := core.Install(node, hpB)
		if err != nil {
			return nil, fmt.Errorf("experiments: hpmmap install: %w", err)
		}
		r.HP = hp
		pools, err := hugetlb.Reserve(node.Mem, htlb)
		if err != nil {
			return nil, fmt.Errorf("experiments: hugetlb reserve: %w", err)
		}
		node.SetReservedBytes(htlb)
		r.MM = linuxmm.New(node, linuxmm.ModeHugeTLB, linuxmm.ModeTHP, pools)
		node.SetDefaultMM(r.MM)
		r.Daemon = thp.Start(node, r.MM)
	default:
		return nil, fmt.Errorf("experiments: unknown manager kind %d", kind)
	}
	return r, nil
}

// observe instruments every subsystem of the rig against one registry
// and tracer (both nil-safe): the node's fault/scheduler/reclaim paths,
// the Linux manager's tallies, the HPMMAP manager and its zone pools,
// and the khugepaged daemon. Engine-level sim_* metrics are registered
// separately by observeEngine, once per engine — cluster rigs share one
// engine, and the registry's pull sources are additive.
func (r *Rig) observe(reg *metrics.Registry, tr *metrics.ChromeTracer) {
	if reg == nil && tr == nil {
		return
	}
	r.Node.Observe(reg, tr)
	if r.MM != nil {
		r.MM.Observe(reg)
	}
	if r.HP != nil {
		r.HP.Observe(reg)
	}
	if r.Daemon != nil {
		r.Daemon.Observe(reg, tr)
	}
}

// observeEngine registers the engine's event counter and clock with the
// registry. Call exactly once per engine (not per node): cluster nodes
// share one engine and pull registration is additive.
func observeEngine(reg *metrics.Registry, eng *sim.Engine) {
	if reg == nil {
		return
	}
	reg.CounterFunc(metrics.SimEventsTotal, func() uint64 { return eng.Executed() })
	reg.GaugeFunc(metrics.SimFinalCycles, func() float64 { return float64(eng.Now()) })
}

// wireSeries registers the standard time-series probe set for one rig's
// node under node index idx: commit pressure, allocator pressure, free
// bytes, the worst 2MB-order fragmentation index across zones, page-cache
// pages, and the Linux manager's cumulative fault/reclaim tallies plus
// khugepaged merges (cumulative counters; consumers difference adjacent
// samples into rates). Every probe reads existing simulation state — no
// PRNG draws, no mutations — so sampling never perturbs a run. Nil-safe
// on a nil series.
func wireSeries(s *timeline.Series, idx int, r *Rig) {
	if s == nil {
		return
	}
	node := r.Node
	s.AddProbe(idx, "kernel_commit_pressure", node.CommitPressure)
	s.AddProbe(idx, "mem_pressure", node.Mem.Pressure)
	s.AddProbe(idx, "mem_free_bytes", func() float64 {
		return float64(node.Mem.FreePages() * mem.PageSize)
	})
	s.AddProbe(idx, "mem_frag_index_2m", func() float64 {
		worst := -1.0
		for _, z := range node.Mem.Zones {
			if f := z.FragmentationIndex(mem.LargePageOrder); f > worst {
				worst = f
			}
		}
		return worst
	})
	s.AddProbe(idx, "kernel_pagecache_pages", func() float64 {
		var pages uint64
		for z := 0; z < node.Config().NumaZones; z++ {
			pages += node.PageCachePages(z)
		}
		return float64(pages)
	})
	if mm := r.MM; mm != nil {
		s.AddProbe(idx, "linuxmm_small_faults_total", func() float64 { return float64(mm.SmallFaults) })
		s.AddProbe(idx, "linuxmm_large_faults_total", func() float64 { return float64(mm.LargeFaults) })
		s.AddProbe(idx, "linuxmm_fallback_faults_total", func() float64 { return float64(mm.FallbackFaults) })
		s.AddProbe(idx, "linuxmm_reclaim_storms_total", func() float64 { return float64(mm.ReclaimStorms) })
	}
	if d := r.Daemon; d != nil {
		s.AddProbe(idx, "thp_merges_total", func() float64 { return float64(d.Merges) })
	}
}

// Launcher returns the launcher of the rig's HPC processes: HPMMAP's
// registration tool when the module is loaded, else a plain Linux
// process on the HPC-side policy.
func (r *Rig) Launcher() workload.Launcher {
	if r.HP != nil {
		return r.HP.Launch
	}
	node := r.Node
	return func(name string, zone int) (*kernel.Process, error) {
		return node.NewProcess(name, false, zone)
	}
}

// pinCores returns the paper's core pinning for n ranks: half the ranks
// on each NUMA zone's cores ("the HPC application was configured to pin
// half of its cores on each NUMA zone ... for 1 core tests, all memory
// came from 1 zone").
func pinCores(node *kernel.Node, ranks int) ([]int, error) {
	perZone := node.NumCores() / node.Config().NumaZones
	if ranks > node.NumCores() {
		return nil, fmt.Errorf("experiments: %d ranks exceed %d cores", ranks, node.NumCores())
	}
	if ranks == 1 {
		return []int{0}, nil
	}
	half := (ranks + 1) / 2
	if half > perZone {
		half = perZone
	}
	var cores []int
	for i := 0; i < half; i++ {
		cores = append(cores, i)
	}
	for i := 0; len(cores) < ranks; i++ {
		cores = append(cores, perZone+i)
	}
	return cores, nil
}

// startProfile launches the competing commodity workload for a profile on
// one node and returns the builds to stop later. appRanks sizes profile
// A/B per the paper: the build uses 8 cores when the app uses 1–4 and 4
// cores when the app uses 8.
func startProfile(node *kernel.Node, p Profile, appRanks int, seed uint64) []*workload.Build {
	switch p {
	case ProfileNone:
		return nil
	case ProfileA, ProfileB:
		workers := 8
		if appRanks >= 8 {
			workers = 4
		}
		n := 1
		if p == ProfileB {
			n = 2
		}
		var builds []*workload.Build
		for i := 0; i < n; i++ {
			builds = append(builds, workload.StartBuild(node, workload.KernelBuild(workers), seed+uint64(i)*7919))
		}
		return builds
	case ProfileC, ProfileD:
		n := 1
		if p == ProfileD {
			n = 2
		}
		var builds []*workload.Build
		for i := 0; i < n; i++ {
			spec := workload.KernelBuild(4)
			// The cluster nodes build over a slower shared filesystem:
			// compiles spend more time blocked on I/O.
			spec.IOWait *= 2
			builds = append(builds, workload.StartBuild(node, spec, seed+uint64(i)*7919))
		}
		return builds
	}
	return nil
}

// scaleSpec shrinks a benchmark spec for quick runs.
func scaleSpec(spec workload.AppSpec, sc Scale) workload.AppSpec {
	if sc >= 1 {
		return spec
	}
	spec.FootprintPerRank = sc.bytes(spec.FootprintPerRank)
	spec.SharedPerPeer = sc.bytes(spec.SharedPerPeer)
	spec.ChurnPerIter = sc.bytes(spec.ChurnPerIter)
	spec.SmallChurnPerIter = sc.bytes(spec.SmallChurnPerIter)
	spec.HeapChurnPerIter = sc.bytes(spec.HeapChurnPerIter)
	spec.StackBytes = sc.bytes(spec.StackBytes)
	it := int(float64(spec.Iterations) * float64(sc) * 4)
	if it < 5 {
		it = 5
	}
	if it > spec.Iterations {
		it = spec.Iterations
	}
	spec.Iterations = it
	if spec.SetupSteps > 6 {
		spec.SetupSteps = 6
	}
	return spec
}

// runToCompletion steps the engine until done flips (the engine always
// has periodic daemons queued, so draining is not a termination signal).
// ctx is polled every few tens of thousands of events so a cancelled or
// timed-out run stops mid-simulation rather than at the next cell
// boundary; nil means no cancellation.
func runToCompletion(ctx context.Context, eng *sim.Engine, done *bool) (err error) {
	const checkEvery = 1 << 16
	steps := 0
	// A simulated-state invariant violation panics out of an engine
	// event; stamp it with the simulated time of detection before it
	// unwinds further (the runner's panic containment then converts it
	// into a structured per-cell error).
	defer func() {
		if r := recover(); r != nil {
			if v, ok := invariant.FromRecovered(r); ok {
				invariant.AnnotateTime(v, eng.Now())
				//detsim:allow re-raise of a recovered *invariant.Violation after time-stamping, not a new failure mode
				panic(v)
			}
			//detsim:allow re-raise of a recovered foreign panic so the runner's containment sees it unchanged
			panic(r)
		}
	}()
	for !*done {
		if !eng.Step() {
			return fmt.Errorf("experiments: engine drained before completion")
		}
		if steps++; steps >= checkEvery {
			steps = 0
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("experiments: run cancelled: %w", err)
				}
			}
		}
	}
	return nil
}

// SingleRun describes one measured application execution, on one node
// (ExecuteSingleNode) or on the cluster (ExecuteCluster, which takes
// only the weak-scaling fields).
type SingleRun struct {
	Bench   workload.AppSpec
	Kind    ManagerKind
	Profile Profile
	Ranks   int
	Seed    uint64
	Detail  bool
	Scale   Scale
	// Recorder, when non-nil, captures rank 0's faults (Figs. 2–5).
	Recorder *trace.Recorder
	// Metrics, when non-nil, receives the run's counters/gauges/
	// histograms (see OBSERVABILITY.md); nil leaves every hot path on
	// its zero-overhead uninstrumented branch.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives Chrome trace events (per-rank
	// iterations, recorded faults, reclaim/khugepaged activity) keyed by
	// simulated cycles at the machine's clock rate.
	Tracer *metrics.ChromeTracer
	// Context, when non-nil, cancels the simulation mid-run (polled
	// every few tens of thousands of engine events).
	Context context.Context
	// Chaos, when non-nil, attaches the deterministic fault injector to
	// the booted node before the measured application starts, and wires
	// its straggler wrapper into the workload's communication phase.
	// The injector must be freshly built per run (chaos.New with the
	// cell seed); it is stopped — releasing everything it holds — when
	// the application completes.
	Chaos *chaos.Injector
	// Audit, when true, attaches the invariant auditor (zone/swap/VMA/
	// pgtable/pool consistency checks) at a 1ms simulated cadence. Note
	// this schedules extra engine events, so sim_events_total changes —
	// baseline figure runs leave it off.
	Audit bool
	// Series, when non-nil, samples the standard probe set (commit
	// pressure, memory pressure, free bytes, fragmentation, page-cache
	// pages, cumulative Linux-manager fault/reclaim tallies) on the
	// single-node run's existing quarter-second diagnostic ticker (for
	// the cluster, see ExecuteCluster). The piggyback schedules
	// no extra engine events and the probes draw no randomness, so a
	// sampled run is byte-identical to an unsampled one apart from the
	// timeline_samples_total counter the sampler itself registers.
	Series *timeline.Series
	// Attribution, when non-nil, installs one per-rank cause account and
	// records a critical-path decomposition at every BSP barrier (see
	// internal/timeline). Pure accounting on existing charges: no events,
	// no PRNG draws, no cost-path changes.
	Attribution *timeline.Attribution
	// Datacenter, when non-nil, attaches the kubelet-style pod agent to
	// the booted node: per-zone admission, mixed-tenancy pod churn from
	// its own tagged substream, and per-class tail-latency histograms.
	// The agent is stopped when the measured application completes and
	// returned via RunOutcome.Datacenter.
	Datacenter *datacenter.Config
	// Overrides perturbs calibrated model parameters: the machine
	// config before the node boots, the managers after.
	Overrides ModelOverrides
	// CoLocated, when non-nil, starts an additional workload on the
	// booted node after the commodity profile (in-situ analytics,
	// custom interference); the stop it returns is called when the
	// measured application completes.
	CoLocated func(node *kernel.Node) (stop func())
	// CommDelay, when non-nil, adds a per-iteration, per-rank delay to
	// the workload's communication phase (the noise study's synthetic
	// detours). Chaos stragglers decorate it.
	CommDelay func(iter, rank int) sim.Cycles
}

// InCell returns rs as the run of one plan cell: it takes the cell's
// context and the registry, tracer and series obs keeps for the cell
// at idx (nil handles on a nil obs). Every experiment builds its cells'
// runs through it.
func (rs SingleRun) InCell(ctx context.Context, obs *runner.Observations, idx int, cell runner.Cell) SingleRun {
	rs.Context = ctx
	rs.Metrics, rs.Tracer = obs.Cell(idx, cell.String())
	rs.Series = obs.Series(idx)
	return rs
}

// RunOutcome reports one completed run.
type RunOutcome struct {
	RuntimeSec float64
	Result     workload.Result
	// Manager statistics for diagnostics.
	Compactions, ReclaimStorms, StormsHPC, Merges uint64
	// MeanPressure is the time-averaged memory pressure sampled during
	// the run.
	MeanPressure float64
	// Datacenter is the pod agent after the run (counters and tail
	// histograms), when SingleRun.Datacenter attached one.
	Datacenter *datacenter.Agent
}

// ModelOverrides perturbs the simulator's calibrated parameters for
// sensitivity sweeps (hpmmap-bench -exp sweep). Nil fields keep the
// defaults.
type ModelOverrides struct {
	THPFragSensitivity  *float64
	ReclaimProbAtFull   *float64
	ReclaimParetoXm     *float64
	KhugepagedPeriodSec *float64
	StoreCycles         *float64
	MemLatency          *float64
}

func (o ModelOverrides) applyConfig(mc *kernel.MachineConfig) {
	if o.ReclaimProbAtFull != nil {
		mc.Costs.ReclaimProbAtFull = *o.ReclaimProbAtFull
	}
	if o.ReclaimParetoXm != nil {
		mc.Costs.ReclaimParetoXm = *o.ReclaimParetoXm
	}
	if o.StoreCycles != nil {
		mc.Costs.StoreCycles = *o.StoreCycles
	}
	if o.MemLatency != nil {
		mc.MemLatency = *o.MemLatency
	}
	if o.KhugepagedPeriodSec != nil {
		mc.KhugepagedScanPeriod = *o.KhugepagedPeriodSec * mc.ClockHz
	}
}

func (o ModelOverrides) applyRig(r *Rig) {
	if o.THPFragSensitivity != nil && r.MM != nil {
		r.MM.THPFragSensitivity = *o.THPFragSensitivity
	}
}

// ExecuteSingleNode performs one single-node run (the unit of Figure 7,
// and with Detail+Recorder the source of Figures 2–5).
func ExecuteSingleNode(rs SingleRun) (RunOutcome, error) {
	if rs.Scale == 0 {
		rs.Scale = 1
	}
	mc := kernel.DellR415()
	rs.Overrides.applyConfig(&mc)
	rig, err := Boot(mc, sim.NewEngine(), rs.Seed, rs.Kind, rs.Detail, rs.Scale, 0)
	if err != nil {
		return RunOutcome{}, err
	}
	rs.Overrides.applyRig(rig)
	rs.Tracer.SetClock(mc.ClockHz)
	rig.observe(rs.Metrics, rs.Tracer)
	observeEngine(rs.Metrics, rig.Eng)
	wireSeries(rs.Series, 0, rig)
	rs.Series.Observe(rs.Metrics, rs.Tracer)
	rs.Attribution.Observe(rs.Metrics)
	spec := scaleSpec(rs.Bench, rs.Scale)
	cores, err := pinCores(rig.Node, rs.Ranks)
	if err != nil {
		return RunOutcome{}, err
	}
	builds := startProfile(rig.Node, rs.Profile, rs.Ranks, rs.Seed^0xb0b)
	var stopCoLocated func()
	if rs.CoLocated != nil {
		stopCoLocated = rs.CoLocated(rig.Node)
	}
	if rs.Chaos != nil {
		rs.Chaos.Observe(rs.Metrics)
		rs.Chaos.Attach(rig.Node)
	}
	var dcAgent *datacenter.Agent
	if rs.Datacenter != nil {
		var hp datacenter.Launcher
		if rig.HP != nil {
			hp = rig.HP
		}
		dcAgent = datacenter.New(*rs.Datacenter, rig.Node, hp, datacenter.DeriveSeed(rs.Seed))
		dcAgent.Observe(rs.Metrics)
		dcAgent.Start()
		// Node-failure chaos displaces the agent's pods; the handler is
		// draw-free on the chaos side, so wiring it changes no schedules.
		rs.Chaos.SetZoneFailHandler(dcAgent.ZoneFail)
	}
	var auditor *invariant.Auditor
	if rs.Audit {
		auditor = newNodeAuditor(rig, rs.Metrics)
		auditor.Start(rig.Eng, auditPeriod(mc.ClockHz))
		defer auditor.Stop()
	}
	// Sample memory pressure through the run for diagnostics. The series
	// sampler piggybacks on the same ticker: one pre-existing event per
	// quarter simulated second, so attaching a Series never adds engine
	// events or perturbs event ordering.
	var psum float64
	var pn int
	sampler := rig.Eng.NewTicker(sim.Cycles(rig.Node.Config().ClockHz/4), func() {
		psum += rig.Node.Mem.Pressure()
		pn++
		rs.Series.Sample(uint64(rig.Eng.Now()))
	})
	defer sampler.Stop()
	var placements []workload.RankPlacement
	for _, c := range cores {
		placements = append(placements, workload.RankPlacement{Node: rig.Node, Core: c, Launch: rig.Launcher()})
	}
	var res workload.Result
	done := false
	wopts := workload.Options{
		Spec:        spec,
		Ranks:       placements,
		Recorder:    rs.Recorder,
		Metrics:     rs.Metrics,
		Tracer:      rs.Tracer,
		Attribution: rs.Attribution,
	}
	// Straggler injection rides the communication phase, on top of the
	// run's own comm-delay hook (nil-safe: without chaos it is the hook).
	wopts.CommDelay = rs.Chaos.WrapCommDelay(rs.CommDelay)
	if rs.Attribution != nil {
		rs.Chaos.SetAccounts(rs.Attribution.Rank)
	}
	_, err = workload.Start(rig.Eng, wopts, func(got workload.Result) {
		res = got
		for _, b := range builds {
			b.Stop()
		}
		if stopCoLocated != nil {
			stopCoLocated()
		}
		// The agent and chaos release everything they still hold, so
		// end-of-run audits and accounting see a clean machine.
		dcAgent.Stop()
		rs.Chaos.Stop()
		done = true
	})
	if err != nil {
		return RunOutcome{}, err
	}
	if err := runToCompletion(rs.Context, rig.Eng, &done); err != nil {
		return RunOutcome{}, err
	}
	if res.Err != nil {
		return RunOutcome{}, res.Err
	}
	out := RunOutcome{
		RuntimeSec: rig.Node.Config().Seconds(float64(res.Runtime)),
		Result:     res,
		Datacenter: dcAgent,
	}
	if pn > 0 {
		out.MeanPressure = psum / float64(pn)
	}
	if rig.MM != nil {
		out.Compactions = rig.MM.Compactions
		out.ReclaimStorms = rig.MM.ReclaimStorms
		out.StormsHPC = rig.MM.StormsHPC
	}
	if rig.Daemon != nil {
		out.Merges = rig.Daemon.Merges
	}
	return out, nil
}

// clusterRig is the 8-node testbed: one engine, the cluster, and each
// node's rig.
type clusterRig struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	rigs []*Rig
}

// newClusterRig boots n SandiaXeon nodes under one manager kind.
func newClusterRig(n int, kind ManagerKind, seed uint64, sc Scale) (*clusterRig, error) {
	cr := &clusterRig{eng: sim.NewEngine()}
	var bootErr error
	cl, err := cluster.New(cr.eng, n, cluster.GigE(), seed^0xc1, func(i int) *kernel.Node {
		r, err := Boot(kernel.SandiaXeon(), cr.eng, seed+uint64(i)*104729, kind, false, sc, 0)
		if err != nil {
			bootErr = err
			return nil
		}
		cr.rigs = append(cr.rigs, r)
		return r.Node
	})
	if bootErr != nil {
		return nil, bootErr
	}
	if err != nil {
		return nil, err
	}
	cr.cl = cl
	return cr, nil
}

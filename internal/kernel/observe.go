package kernel

import (
	"fmt"

	"hpmmap/internal/fault"
	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

// faultCountNames and faultCycleNames map fault kinds onto the fault_*
// metric family, indexed by fault.Kind. The order must track the Kind
// constants in internal/fault.
var faultCountNames = [fault.NumKinds]string{
	fault.KindSmall:        metrics.FaultSmallFaultsTotal,
	fault.KindLarge:        metrics.FaultLargeFaultsTotal,
	fault.KindMergeBlocked: metrics.FaultMergeFaultsTotal,
	fault.KindHugeTLBLarge: metrics.FaultHugeLargeFaultsTotal,
	fault.KindHugeTLBSmall: metrics.FaultHugeSmallFaultsTotal,
	fault.KindStackGrow:    metrics.FaultStackFaultsTotal,
}

var faultCycleNames = [fault.NumKinds]string{
	fault.KindSmall:        metrics.FaultSmallCycles,
	fault.KindLarge:        metrics.FaultLargeCycles,
	fault.KindMergeBlocked: metrics.FaultMergeCycles,
	fault.KindHugeTLBLarge: metrics.FaultHugeLargeCycles,
	fault.KindHugeTLBSmall: metrics.FaultHugeSmallCycles,
	fault.KindStackGrow:    metrics.FaultStackCycles,
}

// nodeObs holds the node's push handles and tracer. The Node carries a
// nil *nodeObs by default, so every hot-path hook is one predictable
// nil check when the simulation is uninstrumented.
type nodeObs struct {
	tracer *metrics.ChromeTracer

	// fault_* — scoped to recorder-instrumented processes so the
	// counters byte-match the Fig. 2/3 table populations.
	faultCount  [fault.NumKinds]*metrics.Counter
	faultCycles [fault.NumKinds]*metrics.Histogram

	// app_* / commodity_* — every fault on the node, split by process
	// class, at any fidelity.
	appFaults       *metrics.Counter
	appFaultCycles  *metrics.Counter
	appFaultStalls  *metrics.Counter
	commodityFaults *metrics.Counter

	// kernel_* scheduler activity.
	ctxSwitches   *metrics.Counter
	schedSegments *metrics.Counter

	// pgtable_* shared handles, installed into every process table.
	ptWalks *metrics.Counter
	ptDepth *metrics.Histogram

	// reclaimNames[kind][zone] names the trace instant of a reclaim
	// pass, built once by Observe so a pass formats no string.
	reclaimNames [numReclaimKinds][]string
}

// Reclaim pass kinds, indexing nodeObs.reclaimNames.
const (
	reclaimKswapd = iota
	reclaimDirect
	numReclaimKinds
)

var reclaimKindNames = [numReclaimKinds]string{reclaimKswapd: "kswapd", reclaimDirect: "direct_reclaim"}

// Observe instruments the node: push handles are obtained from reg once
// here and incremented by the fault, scheduler and page-table hot paths
// afterwards; the node's existing tallies (kswapd, reclaim, OOM, page
// cache, commit pressure) are registered as pull-mode sources read at
// snapshot time; tr, when non-nil, receives reclaim instants and (for
// recorder-instrumented processes) per-fault duration events keyed by
// simulated cycles.
//
// Call Observe once, after NewNode and before any process runs. Both
// arguments are nil-safe: with a nil registry only tracing is active,
// and with both nil the call is a no-op, leaving the node on its
// zero-overhead uninstrumented path.
func (n *Node) Observe(reg *metrics.Registry, tr *metrics.ChromeTracer) {
	if reg == nil && tr == nil {
		return
	}
	o := &nodeObs{tracer: tr}
	for k := 0; k < fault.NumKinds; k++ {
		o.faultCount[k] = reg.Counter(faultCountNames[k])
		o.faultCycles[k] = reg.Histogram(faultCycleNames[k])
	}
	o.appFaults = reg.Counter(metrics.AppFaultsTotal)
	o.appFaultCycles = reg.Counter(metrics.AppFaultCyclesTotal)
	o.appFaultStalls = reg.Counter(metrics.AppFaultStallsTotal)
	o.commodityFaults = reg.Counter(metrics.CommodityFaultsTotal)
	o.ctxSwitches = reg.Counter(metrics.KernelContextSwitchesTotal)
	o.schedSegments = reg.Counter(metrics.KernelSchedSegmentsTotal)
	o.ptWalks = reg.Counter(metrics.PgtableWalksTotal)
	o.ptDepth = reg.Histogram(metrics.PgtableWalkDepthLevels)

	reg.CounterFunc(metrics.KernelKswapdRunsTotal, func() uint64 { return n.KswapdRuns })
	reg.CounterFunc(metrics.KernelReclaimedPagesTotal, func() uint64 { return n.ReclaimedPages })
	reg.CounterFunc(metrics.KernelOOMKillsTotal, func() uint64 { return n.OOMKills })
	reg.CounterFunc(metrics.KernelPagecacheAllocFailsTotal, func() uint64 { return n.PCAllocFails })
	reg.CounterFunc(metrics.KernelLifecycleReapsTotal, func() uint64 { return n.LifecycleReaps })
	reg.CounterFunc(metrics.KernelLifecycleProcReusesTotal, func() uint64 { return n.LifecycleProcReuses })
	reg.CounterFunc(metrics.KernelLifecycleTaskReusesTotal, func() uint64 { return n.LifecycleTaskReuses })
	reg.GaugeFunc(metrics.KernelPagecachePages, func() float64 { return float64(n.pageCachePagesTotal()) })
	reg.GaugeFunc(metrics.KernelCommitPressure, func() float64 { return n.CommitPressure() })

	n.obs = o
	// Instrument tables of processes created before Observe (none in the
	// standard rigs, but keep the call order forgiving).
	n.Processes(func(p *Process) { p.PT.Instrument(o.ptWalks, o.ptDepth) })
	if tr != nil {
		tr.SetThreadName(tidKernel, "kernel")
		for k, name := range reclaimKindNames {
			for z := range n.Mem.Zones {
				o.reclaimNames[k] = append(o.reclaimNames[k], fmt.Sprintf("%s/zone%d", name, z))
			}
		}
	}
}

// tidKernel is the trace thread id used for node-level (non-rank)
// events: reclaim, kswapd, khugepaged.
const tidKernel = 0

// observeFault feeds the metric handles and tracer for one recorded
// fault. Called only when n.obs != nil.
func (o *nodeObs) observeFault(p *Process, at sim.Cycles, k fault.Kind, cost sim.Cycles, stalled bool) {
	if p.Commodity {
		o.commodityFaults.Inc()
	} else {
		o.appFaults.Inc()
		o.appFaultCycles.Add(uint64(cost))
		if stalled {
			o.appFaultStalls.Inc()
		}
	}
	if p.Recorder == nil {
		return
	}
	// Recorder-scoped per-kind costs: the same population as the
	// Fig. 2/3 tables.
	o.faultCount[k].Inc()
	o.faultCycles[k].Observe(uint64(cost))
	if o.tracer != nil {
		start := at - cost
		if cost > at {
			start = 0
		}
		o.tracer.Complete(p.PID, "fault", k.String(), uint64(start), uint64(cost))
	}
}

// observeFaultBulk feeds the app_*/commodity_* counters for an
// aggregate-fidelity batch of faults. Called only when n.obs != nil.
func (o *nodeObs) observeFaultBulk(p *Process, count uint64, total sim.Cycles) {
	if p.Commodity {
		o.commodityFaults.Add(count)
		return
	}
	o.appFaults.Add(count)
	o.appFaultCycles.Add(uint64(total))
}

// traceReclaim emits an instant event for a reclaim pass of the given
// kind, labelled with the zone. No-op without a tracer.
func (o *nodeObs) traceReclaim(kind, zone int, at sim.Cycles) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.Instant(tidKernel, "kernel", o.reclaimNames[kind][zone], uint64(at))
}

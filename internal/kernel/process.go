package kernel

import (
	"fmt"

	"hpmmap/internal/fault"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/trace"
	"hpmmap/internal/vma"
)

// Process is one simulated process: an address space, a page table, fault
// accounting, and the residency counters the TLB model reads.
type Process struct {
	PID  int
	Name string
	node *Node

	Space *vma.Space
	PT    *pgtable.Table

	// PreferredZone is the NUMA zone this process allocates from first.
	PreferredZone int

	// Commodity marks interference workloads (kernel builds); their
	// bandwidth counts against HPC processes but not against themselves.
	Commodity bool

	// MMLockedUntil is the time until which the process mm lock is held
	// by a background operation (khugepaged merge). Faults arriving
	// earlier must wait.
	MMLockedUntil sim.Cycles
	// PendingMergeCosts holds the durations of khugepaged merges whose
	// mm-lock windows have not yet been charged to a blocked fault; the
	// next fault activity consumes them (one blocked fault per merge).
	PendingMergeCosts []sim.Cycles
	// PendingEvictCosts holds TLB-shootdown stalls deposited by
	// datacenter eviction passes (the kubelet mass-unmapping a victim
	// pod's address space broadcasts invalidation IPIs). Like merge
	// costs, only the Linux fault path consumes them — HPMMAP processes
	// are structurally immune — but the attributor reattributes the
	// deposited share to timeline.CauseEvict.
	PendingEvictCosts []sim.Cycles

	// ResidentSmall/ResidentLarge track bytes currently mapped with 4KB
	// and 2MB(+) pages respectively.
	ResidentSmall uint64
	ResidentLarge uint64
	// ResidentRemote tracks bytes backed by frames outside the process's
	// preferred NUMA zone (cross-zone fallback under pressure). Remote
	// memory costs extra latency on every access.
	ResidentRemote uint64

	// Faults aggregates every fault charged to this process.
	Faults TouchStats

	// Recorder, when non-nil, captures per-fault records (micro-level
	// experiments: Figures 2–5).
	Recorder *trace.Recorder

	// Account, when non-nil, receives per-cause cycle charges (fault
	// kinds here; reclaim-storm and mlock-split reattribution in the
	// manager layers; syscall, scheduler, communication and chaos
	// charges at their own sites) for barrier critical-path attribution.
	// Installed by the workload layer when a run attaches a
	// timeline.Attribution; nil is the no-op default.
	Account *timeline.Account

	// mmState lets the owning memory manager stash per-process state.
	mmState any

	// tasks holds this process's tasks in creation order (nextTID order),
	// so the load snapshot's per-task float arithmetic is deterministic.
	// On a quiescent ExitReap both the Task structs and this slice's
	// backing array are recycled (lifecycle.go).
	tasks []*Task
	// running counts this process's tasks currently on a runqueue.
	running int

	Exited bool
}

// MMState returns manager-private state installed by SetMMState.
func (p *Process) MMState() any { return p.mmState }

// SetMMState installs manager-private per-process state.
func (p *Process) SetMMState(s any) { p.mmState = s }

// ResidentBytes returns the total resident set size.
func (p *Process) ResidentBytes() uint64 { return p.ResidentSmall + p.ResidentLarge }

// LargeFraction returns the fraction of the resident set mapped by large
// pages.
func (p *Process) LargeFraction() float64 {
	t := p.ResidentBytes()
	if t == 0 {
		return 0
	}
	return float64(p.ResidentLarge) / float64(t)
}

// RemoteFraction returns the fraction of the resident set on non-local
// NUMA zones.
func (p *Process) RemoteFraction() float64 {
	t := p.ResidentBytes()
	if t == 0 {
		return 0
	}
	return float64(p.ResidentRemote) / float64(t)
}

// RecordFault charges one fault to the process and, when a recorder is
// attached, captures it. at is the completion time.
func (p *Process) RecordFault(at sim.Cycles, k fault.Kind, cost sim.Cycles, va pgtable.VirtAddr, stalled bool) {
	p.Faults.Faults[k]++
	p.Faults.Cycles[k] += cost
	if stalled {
		p.Faults.Stalls++
	}
	if p.Recorder != nil {
		p.Recorder.Record(fault.Record{At: at, Cost: cost, Kind: k, PID: p.PID, VA: uint64(va), Stalls: stalled})
	}
	p.Account.Charge(timeline.FaultCause(k), cost)
	if o := p.node.obs; o != nil {
		o.observeFault(p, at, k, cost, stalled)
	}
}

// RecordFaultBulk charges n faults of the same kind costing total cycles
// in aggregate. Used by the aggregate-fidelity touch paths that fold many
// faults into one event; the bulk population is visible through the
// app_*/commodity_* metric families but not the recorder-scoped fault_*
// families (no recorder is attached at aggregate fidelity).
func (p *Process) RecordFaultBulk(k fault.Kind, n uint64, total sim.Cycles) {
	p.Faults.Faults[k] += n
	p.Faults.Cycles[k] += total
	p.Account.Charge(timeline.FaultCause(k), total)
	if o := p.node.obs; o != nil {
		o.observeFaultBulk(p, n, total)
	}
}

func (p *Process) String() string {
	return fmt.Sprintf("pid %d (%s)", p.PID, p.Name)
}

// Task is one schedulable thread of a process.
type Task struct {
	ID   int
	Proc *Process
	// Pinned is the core this task is bound to, or -1 for a floating
	// task placed by the load balancer.
	Pinned int
	// BandwidthWeight is the fraction of one core's memory bandwidth the
	// task consumes while running.
	BandwidthWeight float64

	cur     int // core currently running on
	running bool
	done    bool
}

// Done reports whether Finish was called.
func (t *Task) Done() bool { return t.done }

// Finish marks the task completed; it must not Run again.
func (t *Task) Finish() {
	if t.running {
		t.Proc.node.depart(t)
	}
	t.done = true
}

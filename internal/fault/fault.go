// Package fault defines the page-fault taxonomy of the simulation and the
// calibrated cycle-cost model for each fault path. The anchors come from
// the paper's Figures 2 and 3 (miniMD on the Dell R415 testbed); the model
// composes mechanistic pieces — trap cost, allocation, page clearing at
// memory bandwidth, compaction, reclaim — rather than replaying the
// published numbers, so costs respond to simulated system state (memory
// pressure, contention) the way the real kernel's do.
package fault

import (
	"math"

	"hpmmap/internal/sim"
)

// Kind classifies a handled page fault.
type Kind int

// Fault kinds.
const (
	// KindSmall is a demand-paged 4KB anonymous fault.
	KindSmall Kind = iota
	// KindLarge is a THP 2MB fault (allocation + clear in the fault path).
	KindLarge
	// KindMergeBlocked is a 4KB fault that had to wait for a khugepaged
	// merge holding the process mm lock ("Merge" rows in Figure 2).
	KindMergeBlocked
	// KindHugeTLBLarge is a 2MB fault satisfied from a HugeTLBfs pool.
	KindHugeTLBLarge
	// KindHugeTLBSmall is a 4KB fault in a HugeTLBfs-managed process
	// (stack and other non-hugetlb regions), contending with the rest of
	// the system for scarce small pages.
	KindHugeTLBSmall
	// KindStackGrow is a fault extending the stack.
	KindStackGrow
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindSmall:
		return "small"
	case KindLarge:
		return "large"
	case KindMergeBlocked:
		return "merge"
	case KindHugeTLBLarge:
		return "hugetlb-large"
	case KindHugeTLBSmall:
		return "hugetlb-small"
	case KindStackGrow:
		return "stack"
	}
	return "?"
}

// NumKinds is the number of fault kinds (for fixed-size stat arrays).
const NumKinds = int(numKinds)

// CostParams parameterizes the fault cost model. All times in cycles.
// Its methods take a pointer: the model is read on every fault, and
// passing its 19 fields by value would copy them each time.
type CostParams struct {
	// TrapOverhead is the fixed user→kernel→user cost of any fault.
	TrapOverhead float64
	// SmallBase is the remaining service cost of an uncontended 4KB
	// anonymous fault (VMA lookup, order-0 alloc, zeroed-page map).
	SmallBase float64
	// SmallJitter is the standard deviation of the small-fault cost.
	SmallJitter float64

	// CachelineBytes and StoreCycles model page clearing: a 2MB clear
	// writes LargePage/CachelineBytes lines at StoreCycles each.
	CachelineBytes float64
	StoreCycles    float64

	// LargeAllocBase is the contiguous-allocation bookkeeping cost of a
	// 2MB fault before the clear.
	LargeAllocBase float64
	// CompactionCost is the added cost when the allocator must run direct
	// compaction to produce a contiguous block.
	CompactionCost float64
	// CompactionJitter spreads the compaction cost.
	CompactionJitter float64

	// BandwidthContention scales memory-bound work (clears, copies) under
	// load: effective cost = base * (1 + BandwidthContention*load).
	BandwidthContention float64
	// LockContention scales lock-protected fault-path work under load.
	LockContention float64

	// MergeCopyFactor: a khugepaged merge copies 2MB (read+write) and
	// remaps; its duration is MergeCopyFactor times a 2MB clear plus
	// MergeRemapCost.
	MergeCopyFactor float64
	MergeRemapCost  float64

	// HugeTLBPoolCost is the pool bookkeeping cost of a hugetlb fault
	// (reservation accounting, file offset lookup) on top of the clear.
	HugeTLBPoolCost float64

	// ReclaimThreshold is the memory pressure above which small faults
	// may enter direct reclaim; ReclaimProbAtFull is the per-fault
	// probability of that at pressure 1.
	ReclaimThreshold  float64
	ReclaimProbAtFull float64
	// ReclaimParetoXm/Alpha shape the heavy-tailed direct-reclaim stall.
	ReclaimParetoXm    float64
	ReclaimParetoAlpha float64
	// ReclaimCap bounds a single stall (the kernel eventually OOMs or
	// succeeds; Figure 3's 16M-cycle standard deviation implies stalls of
	// tens of millions of cycles).
	ReclaimCap float64
}

// DefaultCostParams returns the calibration used for both testbeds. See
// DESIGN.md §4 for the anchor table.
func DefaultCostParams() CostParams {
	return CostParams{
		TrapOverhead:        450,
		SmallBase:           700,
		SmallJitter:         950,
		CachelineBytes:      64,
		StoreCycles:         10, // ~14GB/s clear bandwidth at 2.2GHz
		LargeAllocBase:      18000,
		CompactionCost:      260000,
		CompactionJitter:    90000,
		BandwidthContention: 1.05,
		LockContention:      0.25,
		MergeCopyFactor:     2.1,
		MergeRemapCost:      300000,
		HugeTLBPoolCost:     310000,
		ReclaimThreshold:    0.47,
		ReclaimProbAtFull:   0.11,
		ReclaimParetoXm:     1.6e6,
		ReclaimParetoAlpha:  1.15,
		ReclaimCap:          2.2e8,
	}
}

// Load is a snapshot of the system conditions a fault executes under.
type Load struct {
	// MemPressure in [0,1]: how close the allocatable memory is to the
	// min watermark (mem.Zone.Pressure of the binding zone).
	MemPressure float64
	// BandwidthLoad in [0,1]: fraction of memory bandwidth consumed by
	// other workloads.
	BandwidthLoad float64
	// AllocContention in [0,1]: zone/LRU lock contention from concurrent
	// allocators.
	AllocContention float64
}

// Clear2MCycles returns the cost of zeroing one 2MB page under the given
// bandwidth load.
func (c *CostParams) Clear2MCycles(load Load) float64 {
	lines := float64(2<<20) / c.CachelineBytes
	return lines * c.StoreCycles * (1 + c.BandwidthContention*load.BandwidthLoad)
}

// Clear4KCycles returns the cost of zeroing one 4KB page.
func (c *CostParams) Clear4KCycles(load Load) float64 {
	lines := float64(4<<10) / c.CachelineBytes
	return lines * c.StoreCycles * (1 + c.BandwidthContention*load.BandwidthLoad)
}

// SmallFault returns the cycles to service a 4KB anonymous fault: one
// Normal(SmallFaultMean, SmallFaultStdev) draw, floored at TrapOverhead.
func (c *CostParams) SmallFault(r *sim.Rand, load Load) sim.Cycles {
	return r.CyclesNormal(c.SmallFaultMean(load), c.SmallFaultStdev(load), c.TrapOverhead)
}

// LargeFault returns the cycles to service a THP 2MB fault.
// needCompaction reports whether the allocator had to compact (callers
// decide from allocator state).
func (c *CostParams) LargeFault(r *sim.Rand, load Load, needCompaction bool) sim.Cycles {
	base := c.TrapOverhead + c.LargeAllocBase + c.Clear2MCycles(load)
	base *= 1 + c.LockContention*load.AllocContention
	if needCompaction {
		base += r.PositiveNormal(
			c.CompactionCost*(1+c.BandwidthContention*load.BandwidthLoad),
			c.CompactionJitter, c.CompactionCost/4)
	}
	return r.CyclesNormal(base, base*0.12, c.TrapOverhead)
}

// SmallFaultMean returns the mean small-fault cost under load, which
// SmallFault draws around. The aggregate fault path charges n faults as
// Normal(n*mean, sqrt(n)*stdev) instead of drawing n times.
func (c *CostParams) SmallFaultMean(load Load) float64 {
	base := c.TrapOverhead + c.SmallBase + c.Clear4KCycles(load)
	return base * (1 + c.LockContention*load.AllocContention)
}

// SmallFaultStdev returns the per-fault standard deviation under load.
func (c *CostParams) SmallFaultStdev(load Load) float64 {
	return c.SmallJitter * (1 + load.AllocContention)
}

// AggregateSmallFaults draws the total cost of n small faults.
func (c *CostParams) AggregateSmallFaults(r *sim.Rand, load Load, n uint64) sim.Cycles {
	if n == 0 {
		return 0
	}
	mean := c.SmallFaultMean(load) * float64(n)
	stdev := c.SmallFaultStdev(load) * sqrtU64(n)
	return r.CyclesNormal(mean, stdev, c.TrapOverhead*float64(n))
}

func sqrtU64(n uint64) float64 { return math.Sqrt(float64(n)) }

// MergeDuration returns how long one khugepaged merge holds the mm lock.
func (c *CostParams) MergeDuration(r *sim.Rand, load Load) sim.Cycles {
	base := c.MergeCopyFactor*c.Clear2MCycles(load) + c.MergeRemapCost
	base *= 1 + c.LockContention*load.AllocContention
	// Merges under commodity load wait on LRU/zone locks and on isolating
	// busy pages; the stall is roughly exponential in the competing
	// allocator traffic.
	if tail := 5.5e6 * load.AllocContention; tail > 0 {
		base += r.Exponential(tail)
	}
	return r.CyclesNormal(base, base*0.35, c.MergeRemapCost)
}

// HugeTLBLargeFault returns the cycles to fill a 2MB page from a hugetlb
// pool. The pool is preallocated and isolated, so memory pressure does not
// add compaction; bandwidth contention still applies to the clear.
func (c *CostParams) HugeTLBLargeFault(r *sim.Rand, load Load) sim.Cycles {
	base := c.TrapOverhead + c.HugeTLBPoolCost + c.Clear2MCycles(load)
	return r.CyclesNormal(base, base*0.3, c.TrapOverhead)
}

// DirectReclaim returns a heavy-tailed direct reclaim stall: the stall
// of a zone allocation that fails outright, and of a 4KB fault in a
// HugeTLBfs-configured system that enters reclaim (with probability
// ReclaimProb, since small pages are scarce there under load).
func (c *CostParams) DirectReclaim(r *sim.Rand, load Load) sim.Cycles {
	stall := r.Pareto(c.ReclaimParetoXm, c.ReclaimParetoAlpha)
	stall *= 1 + c.BandwidthContention*load.BandwidthLoad
	if stall > c.ReclaimCap {
		stall = c.ReclaimCap
	}
	return sim.Cycles(stall)
}

// ReclaimProb returns the per-fault probability of entering direct
// reclaim at the given memory pressure.
func (c *CostParams) ReclaimProb(pressure float64) float64 {
	if pressure <= c.ReclaimThreshold {
		return 0
	}
	return c.ReclaimProbAtFull * (pressure - c.ReclaimThreshold) / (1 - c.ReclaimThreshold)
}

// Record is one handled fault, as captured by trace recorders.
type Record struct {
	At     sim.Cycles // completion time
	Cost   sim.Cycles
	Kind   Kind
	PID    int
	VA     uint64
	Stalls bool // entered reclaim / waited on a merge
}

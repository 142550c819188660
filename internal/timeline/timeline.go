// Package timeline turns the simulator's end-of-cell observability into
// an over-simulated-time research instrument (OBSERVABILITY.md §"Time
// series and barrier attribution"):
//
//   - Series samples selected gauges and counters at a fixed
//     simulated-cycle cadence, piggybacked on an existing engine ticker
//     so enabling it schedules no PRNG-perturbing events on the
//     single-node path, and renders the samples as a deterministic CSV
//     and as Chrome trace counter ('C') tracks.
//   - Account/Attribution decompose the BSP barrier wait — the paper's
//     noise-amplification mechanism — into causes: which memory-
//     management activity made the straggler rank late, per barrier.
//
// Everything here is pure accounting: no randomness, no engine events of
// its own (the sampling cadence belongs to the caller), and every type
// is nil-safe so uninstrumented hot paths pay one branch.
package timeline

import (
	"hpmmap/internal/fault"
	"hpmmap/internal/sim"
)

// Cause classifies where a rank's time between barriers went, beyond its
// own deterministic compute: the commodity-MM activities the paper blames
// for barrier-amplified slowdown, plus communication and scheduling.
type Cause int

// Causes, in fixed report order.
const (
	// CauseSmallFault is 4KB demand-fault service (fault.KindSmall).
	CauseSmallFault Cause = iota
	// CauseLargeFault is THP 2MB fault service (fault.KindLarge).
	CauseLargeFault
	// CauseMergeFault is time blocked on khugepaged's mm lock plus the
	// blocked fault's own service (fault.KindMergeBlocked).
	CauseMergeFault
	// CauseHugeTLBLargeFault is hugetlb pool-fill service.
	CauseHugeTLBLargeFault
	// CauseHugeTLBSmallFault is the 4KB path of a HugeTLBfs-configured
	// process, excluding reclaim stalls (reattributed to
	// CauseReclaimStorm).
	CauseHugeTLBSmallFault
	// CauseStackFault is stack-growth fault service.
	CauseStackFault
	// CauseReclaimStorm is heavy-tailed direct-reclaim stall time,
	// reattributed out of the fault kind that paid it.
	CauseReclaimStorm
	// CauseMlockSplit is large-page splitting under mlockall.
	CauseMlockSplit
	// CauseSyscall is the memory-management system-call surface (mmap,
	// munmap, brk, mprotect) including HPMMAP's eager on-request backing.
	CauseSyscall
	// CauseSched is CPU time lost to timesharing: the gap between a
	// segment's wall time and its own compute + stall.
	CauseSched
	// CauseComm is the nominal (pre-jitter) network exchange cost.
	CauseComm
	// CauseCommJitter is the signed deviation of the jittered exchange
	// cost from nominal.
	CauseCommJitter
	// CauseChaos is injected straggler delay (internal/chaos).
	CauseChaos
	// CauseEvict is TLB-shootdown/mm-teardown stall time deposited on
	// Linux-managed processes by datacenter eviction passes (the kubelet
	// mass-unmapping victims; internal/datacenter). HPMMAP processes
	// never pay it — their fault path never takes the mm lock.
	CauseEvict
	numCauses
)

// NumCauses is the number of causes (for fixed-size accounting arrays).
const NumCauses = int(numCauses)

// String returns the cause's stable snake-case name, used in reports and
// trace instant names.
func (c Cause) String() string {
	switch c {
	case CauseSmallFault:
		return "fault_small"
	case CauseLargeFault:
		return "fault_large"
	case CauseMergeFault:
		return "fault_merge"
	case CauseHugeTLBLargeFault:
		return "fault_hugetlb_large"
	case CauseHugeTLBSmallFault:
		return "fault_hugetlb_small"
	case CauseStackFault:
		return "fault_stack"
	case CauseReclaimStorm:
		return "reclaim_storm"
	case CauseMlockSplit:
		return "mlock_split"
	case CauseSyscall:
		return "syscall"
	case CauseSched:
		return "sched_preempt"
	case CauseComm:
		return "comm"
	case CauseCommJitter:
		return "comm_jitter"
	case CauseChaos:
		return "chaos"
	case CauseEvict:
		return "evict"
	}
	return "?"
}

// FaultCause maps a fault kind to its attribution cause.
func FaultCause(k fault.Kind) Cause {
	switch k {
	case fault.KindSmall:
		return CauseSmallFault
	case fault.KindLarge:
		return CauseLargeFault
	case fault.KindMergeBlocked:
		return CauseMergeFault
	case fault.KindHugeTLBLarge:
		return CauseHugeTLBLargeFault
	case fault.KindHugeTLBSmall:
		return CauseHugeTLBSmallFault
	case fault.KindStackGrow:
		return CauseStackFault
	}
	return CauseSmallFault
}

// Account accumulates one rank's per-cause cycles. Charges arrive from
// the kernel fault path, the MM syscall surface, the scheduler-gap hook,
// the cluster communication model and the chaos injector; the barrier
// attributor reads the deltas since the last barrier via Window and
// resets them via Mark. Values are signed because communication jitter
// can run ahead of nominal. A nil *Account is the no-op default: every
// method is nil-safe.
type Account struct {
	cyc  [NumCauses]int64
	mark [NumCauses]int64
}

// Charge adds d cycles to cause c. No-op on a nil receiver.
func (a *Account) Charge(c Cause, d sim.Cycles) {
	if a != nil {
		a.cyc[c] += int64(d)
	}
}

// ChargeSigned adds a signed cycle delta to cause c (communication
// jitter below nominal is negative). No-op on a nil receiver.
func (a *Account) ChargeSigned(c Cause, d int64) {
	if a != nil {
		a.cyc[c] += d
	}
}

// Reattribute moves d cycles from cause `from` to cause `to` — used by
// the storm-charging fault paths, which learn the reclaim share of a
// fault's cost after charging the whole fault to its kind. No-op on a
// nil receiver.
func (a *Account) Reattribute(from, to Cause, d sim.Cycles) {
	if a != nil {
		a.cyc[from] -= int64(d)
		a.cyc[to] += int64(d)
	}
}

// Window returns the per-cause cycles accumulated since the last Mark
// (zeroes on a nil receiver).
func (a *Account) Window() [NumCauses]int64 {
	if a == nil {
		return [NumCauses]int64{}
	}
	var w [NumCauses]int64
	for i := range w {
		w[i] = a.cyc[i] - a.mark[i]
	}
	return w
}

// Mark closes the current interval: the next Window measures from here.
// No-op on a nil receiver.
func (a *Account) Mark() {
	if a == nil {
		return
	}
	a.mark = a.cyc
}

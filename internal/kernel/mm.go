package kernel

import (
	"hpmmap/internal/fault"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// MemoryManager backs the virtual-memory system calls and the fault path
// for the processes routed to it. The node's system-call layer decides,
// per process, which manager handles a call — the interposition mechanism
// of the paper's Figure 6.
type MemoryManager interface {
	// Name identifies the manager ("thp", "hugetlbfs", "hpmmap").
	Name() string

	// Attach prepares per-process state; called when a process first uses
	// this manager.
	Attach(p *Process) error
	// Detach releases everything the manager holds for the process.
	Detach(p *Process)

	// Mmap creates an anonymous mapping of length bytes and returns its
	// address and the cycles the call consumed.
	Mmap(p *Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error)
	// Munmap removes [addr, addr+length).
	Munmap(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error)
	// Brk grows or shrinks the heap to newBrk (0 queries).
	Brk(p *Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error)
	// Mprotect changes protections on a range.
	Mprotect(p *Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error)

	// TouchRange simulates the process accessing every page of
	// [addr, addr+length) for the first time, charging demand-paging
	// faults to p.Faults as the manager's policy dictates, and returns
	// the cycles it charged there. Eager managers (HPMMAP) charge
	// nothing for validly mapped ranges.
	TouchRange(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error)

	// StackRange returns the address range to touch to exercise `bytes`
	// of stack under this manager's layout (managers place stacks
	// differently).
	StackRange(p *Process, bytes uint64) (pgtable.VirtAddr, uint64)
}

// ReapDetacher is optionally implemented by memory managers that can
// recycle their per-process bookkeeping on a quiescent exit. ExitReap
// prefers DetachReap over Detach when the node's lifecycle pooling is
// enabled; the call must free exactly the same frames in exactly the
// same order as Detach (the pinned-output contract of DESIGN.md §10 —
// buddy free order feeds future allocation addresses), and afterwards
// the process's MMState must be nil so stale post-exit manager calls
// fail loudly instead of corrupting recycled state.
type ReapDetacher interface {
	DetachReap(p *Process)
}

// TouchStats aggregates the faults charged to a process (Process.Faults).
type TouchStats struct {
	Faults [fault.NumKinds]uint64
	Cycles [fault.NumKinds]sim.Cycles
	Stalls uint64 // reclaim storms / merge waits encountered
}

// Total returns the summed fault service time.
func (t TouchStats) Total() sim.Cycles {
	var c sim.Cycles
	for _, v := range t.Cycles {
		c += v
	}
	return c
}

// TotalFaults returns the number of faults taken.
func (t TouchStats) TotalFaults() uint64 {
	var n uint64
	for _, v := range t.Faults {
		n += v
	}
	return n
}

// Since returns the faults charged between an earlier snapshot of the
// same process's Faults, before, and t: the per-kind report of the
// calls in between.
func (t TouchStats) Since(before TouchStats) TouchStats {
	for k := range t.Faults {
		t.Faults[k] -= before.Faults[k]
		t.Cycles[k] -= before.Cycles[k]
	}
	t.Stalls -= before.Stalls
	return t
}

package linuxmm

import (
	"slices"

	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
)

// Fork and exec: the commodity behaviours Linux's demand-paged design
// exists to make cheap (paper §II-A: the design "eliminat[es] overheads
// resulting from common commodity application behaviors (e.g.
// fork/exec)"). Fork copies the VMA structures and page tables and marks
// the child's view copy-on-write — no physical memory moves. The child's
// first writes then take COW faults that allocate a private frame and
// copy the page. Exec drops the inherited image.
//
// HPMMAP deliberately does not implement fork: an eager, on-request
// design would have to duplicate the entire resident set at fork time.
// The paper's position is that HPC applications do not fork after
// initialization; kernel.Node.Fork returns kernel.ErrForkUnsupported for
// registered processes.

// PTECopyCost is the per-resident-page cost of duplicating page tables
// and VMA structures at fork.
const PTECopyCost = 140

// Fork implements kernel.Forker: child inherits the parent's regions
// copy-on-write.
func (m *Manager) Fork(parent, child *kernel.Process) (sim.Cycles, error) {
	if err := m.Attach(child); err != nil {
		return 0, err
	}
	pps := state(parent)
	cps := state(child)
	for _, pr := range pps.regions {
		if pr.down {
			// The child gets a fresh stack from Attach; the parent's
			// stack contents are copied eagerly (they are tiny).
			cps.stack.touched = pr.touched
			continue
		}
		cr := m.newRegion()
		cr.start, cr.length, cr.prot, cr.kind = pr.start, pr.length, pr.prot, pr.kind
		cr.largeLo, cr.largeHi = pr.largeLo, pr.largeHi
		cr.hugetlb = pr.hugetlb
		cr.heapStyle = pr.heapStyle
		// cow: frames are the parent's until written. The child owns no
		// pages yet (touched=0); its writes take COW faults that allocate
		// a private frame and copy.
		cr.cow = pr.touched
		cps.insert(cr)
		if pr == pps.heap {
			cps.heap = cr
		}
	}
	// Duplicating the mm: one pass over the resident set's PTEs.
	residentPages := parent.ResidentBytes() / mem.PageSize
	cost := sim.Cycles(float64(residentPages) * PTECopyCost)
	return m.rand.Jitter(cost+4000, 0.15), nil
}

// Exec discards the process image (the inherited COW view and any private
// regions except the stack), as execve does before loading a new binary.
func (m *Manager) Exec(p *kernel.Process) (sim.Cycles, error) {
	ps := state(p)
	released := 0
	var err error
	ps.regions = slices.DeleteFunc(ps.regions, func(r *region) bool {
		switch {
		case err != nil:
			return false
		case r.down:
			r.touched = 0
			return false
		}
		m.releaseRegion(p, r)
		m.regionPool = append(m.regionPool, r)
		released++
		// A heap left at its start by brk has no VMA to unmap.
		if r.length > 0 {
			err = p.Space.Unmap(r.start, r.length)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	ps.heap = nil
	if _, err := p.Space.SetBrk(p.Space.Layout().BrkStart); err != nil {
		return 0, err
	}
	return m.rand.Jitter(sim.Cycles(20_000+2_000*released), 0.2), nil
}

// cowTouch materializes the child's private copy of a COW prefix: the
// same allocation path as a normal fault plus the page copy.
func (m *Manager) cowTouch(tc *touchCtx, from, to uint64) {
	r := tc.r
	if to > r.cow {
		to = r.cow
	}
	if to <= from {
		return
	}
	bytes := to - from
	// The allocation/fault side reuses the normal small path (COW breaks
	// large mappings down to small pages on write, like THP splitting).
	m.touchSmall(tc, bytes, r.start+pgtable.VirtAddr(from))
	// Copy cost: read + write of every touched byte, at bandwidth —
	// charged on top of the fault service time.
	copyCost := sim.Cycles(2 * float64(bytes) / (2 << 20) * m.node.Costs().Clear2MCycles(tc.load))
	tc.cum += copyCost
	tc.p.Faults.Cycles[fault.KindSmall] += copyCost
}

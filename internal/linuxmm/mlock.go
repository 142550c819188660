package linuxmm

import (
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
)

// MlockAll pins the process's entire resident set in RAM (the mlockall
// system call). The paper's Section II-B: "THP does not support the
// pinning of large pages. When a user specifies that a region mapped by a
// large page be pinned in RAM, the page is first split into small pages
// and then pinned." — so the often-suggested fragmentation defence costs
// a THP process its large pages.
//
// Under ModeHugeTLB, hugetlb pages are unswappable by construction and
// are left intact; only the 4KB-mapped remainder is pinned.
func (m *Manager) MlockAll(p *kernel.Process) (sim.Cycles, error) {
	ps := state(p)
	var cost float64
	for _, r := range ps.regions {
		if r.hugetlb {
			continue // hugetlb pages cannot swap; nothing to pin or split
		}
		if n := uint64(len(r.largeFrames)); n > 0 {
			m.SplitOnMlock += n
			bytes := n * mem.LargePageSize
			// The frames stay allocated (one 512-page group per chunk);
			// only the mapping granularity and accounting change.
			r.smallBytes += bytes
			r.largeBytes -= bytes
			p.ResidentLarge -= bytes
			p.ResidentSmall += bytes
			for _, lf := range r.largeFrames {
				r.smallBlocks = append(r.smallBlocks, smallBlock{pfn: lf.pfn, order: mem.LargePageOrder})
			}
			r.largeFrames = r.largeFrames[:0]
			// Splitting rewrites 512 PTEs per chunk.
			cost += float64(n) * 45_000
		}
		// Pinned pages defeat the THP fault path and khugepaged alike.
		r.largeLo, r.largeHi = 0, 0
		r.fallback = nil
		r.heapChunks = 0
	}
	if m.node.Detail && !p.Commodity {
		// Rebuild the page tables at 4KB granularity.
		var splitVAs []pgtable.VirtAddr
		p.PT.Range(func(va pgtable.VirtAddr, mp pgtable.Mapping) bool {
			if mp.Size == pgtable.Page2M {
				splitVAs = append(splitVAs, va)
			}
			return true
		})
		for _, va := range splitVAs {
			if err := p.PT.Split2M(va); err != nil {
				return 0, err
			}
		}
	}
	for _, v := range p.Space.VMAs() {
		v.Locked = true
	}
	total := sim.Cycles(m.rand.Jitter(sim.Cycles(2000+cost), 0.1))
	// The split work dominates the call; attribute the whole pinned cost
	// to the mlock-split cause (MlockAll has no node syscall wrapper, so
	// nothing else charges it).
	p.Account.Charge(timeline.CauseMlockSplit, total)
	return total, nil
}

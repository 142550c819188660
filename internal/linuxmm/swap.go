package linuxmm

import (
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
)

// Swapping: when direct reclaim has no page cache left, vmscan pages out
// inactive anonymous memory of commodity processes before resorting to
// the OOM killer. Victims are the commodity processes' 4KB-backed
// regions (long-idle build/make footprints); HPC processes are never
// swapped — the paper's configurations either mlock them or, under
// HPMMAP, keep their memory outside Linux entirely.

// swapOutCommodity pages out up to `want` base pages of commodity anon
// memory, returning how many frames were actually freed. Swap slots are
// reserved block by block; the frames go back to the buddy.
func (m *Manager) swapOutCommodity(exclude *kernel.Process, want uint64) uint64 {
	swap := m.node.Swap()
	var released uint64
	for _, q := range m.procs {
		if released >= want {
			break
		}
		if !q.Commodity || q.Exited || q == exclude {
			continue
		}
		qs := state(q)
		for _, r := range qs.regions {
			if released >= want {
				break
			}
			for released < want && len(r.smallBlocks) > 0 {
				blk := r.smallBlocks[len(r.smallBlocks)-1]
				pages := mem.PagesPerOrder(blk.order)
				if got := swap.Reserve(pages); got < pages {
					// Swap device full: hand back the partial grant and
					// stop — the caller escalates to the OOM killer.
					swap.Release(got)
					m.SwappedOutPages += released
					return released
				}
				r.smallBlocks = r.smallBlocks[:len(r.smallBlocks)-1]
				m.node.Mem.Free(blk.pfn, blk.order)
				bytes := mem.BytesPerOrder(blk.order)
				released += pages
				r.swappedPages += pages
				if r.smallBytes >= bytes {
					r.smallBytes -= bytes
				} else {
					r.smallBytes = 0
				}
				if q.ResidentSmall >= bytes {
					q.ResidentSmall -= bytes
				} else {
					q.ResidentSmall = 0
				}
			}
		}
	}
	m.SwappedOutPages += released
	return released
}

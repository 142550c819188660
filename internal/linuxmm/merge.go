package linuxmm

import (
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
)

// This file implements thp.Merger: khugepaged's view into the manager.

// NextMergeCandidate returns the next THP-mode process that has at least
// one fallback chunk (a THP-eligible 2MB span currently mapped small).
func (m *Manager) NextMergeCandidate() *kernel.Process {
	n := len(m.procs)
	for i := 0; i < n; i++ {
		p := m.procs[(m.scanCursor+i)%n]
		if p.Exited || m.modeFor(p) != ModeTHP {
			continue
		}
		ps := state(p)
		for _, r := range ps.regions {
			if len(r.fallback) > 0 {
				m.scanCursor = (m.scanCursor + i + 1) % n
				return p
			}
		}
	}
	return nil
}

// PerformMerge converts one fallback chunk of p to a 2MB mapping,
// returning the 512 small frames to the buddy.
func (m *Manager) PerformMerge(p *kernel.Process) bool {
	ps := state(p)
	for _, r := range ps.regions {
		if len(r.fallback) == 0 {
			continue
		}
		off := r.fallback[len(r.fallback)-1]
		pfn, zone, _, ok := m.allocLarge(p.PreferredZone)
		if !ok {
			return false
		}
		r.fallback = r.fallback[:len(r.fallback)-1]
		// Release ~2MB of small backing.
		released := uint64(0)
		for released < mem.LargePageSize && len(r.smallBlocks) > 0 {
			blk := r.smallBlocks[len(r.smallBlocks)-1]
			r.smallBlocks = r.smallBlocks[:len(r.smallBlocks)-1]
			m.node.Mem.Free(blk.pfn, blk.order)
			released += mem.BytesPerOrder(blk.order)
		}
		if r.smallBytes >= mem.LargePageSize {
			r.smallBytes -= mem.LargePageSize
		} else {
			r.smallBytes = 0
		}
		if p.ResidentSmall >= mem.LargePageSize {
			p.ResidentSmall -= mem.LargePageSize
		} else {
			p.ResidentSmall = 0
		}
		r.largeFrames = append(r.largeFrames, largeFrame{pfn: pfn, zone: zone})
		r.largeBytes += mem.LargePageSize
		p.ResidentLarge += mem.LargePageSize
		if zone != p.PreferredZone {
			r.remoteBytes += mem.LargePageSize
			p.ResidentRemote += mem.LargePageSize
		}
		if m.node.Detail {
			va := r.start + pgtable.VirtAddr(off)
			p.PT.UnmapRange(va, mem.LargePageSize)
			if err := p.PT.Map(va, pfn, pgtable.Page2M, r.prot); err != nil {
				// Simulated-state violation: khugepaged unmapped the 4KB
				// range but the 2MB remap still collided.
				invariant.Fail(invariant.Violation{
					Check: "merge_remap_conflict", Subsystem: "linuxmm", PID: p.PID,
					Manager: "thp",
					Detail:  fmt.Sprintf("khugepaged remap at %#x failed after unmap: %v", uint64(va), err),
				})
			}
		}
		return true
	}
	return false
}

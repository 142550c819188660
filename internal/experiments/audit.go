package experiments

import (
	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
)

// This file wires the invariant auditor (internal/invariant) to a booted
// rig. The invariant package is a dependency leaf — it knows nothing
// about zones, swap devices or page tables — so the experiment harness
// is where node state meets consistency checks. The auditor is strictly
// opt-in: it schedules extra engine events (legitimately changing
// sim_events_total), so baseline figure runs never attach one.

// zoneDeepAuditStride is how many audit ticks separate two full zone
// checks (accounting plus the no-frame-free-twice pass); ticks in between
// run the accounting check alone. The first tick is always deep, so even
// short cells get one exhaustive pass.
const zoneDeepAuditStride = 64

// auditPeriod returns the audit cadence: the scheduler-tick boundary,
// as the paper's accounting granularity. Falls back to 1ms of simulated
// time when the machine config carries no scheduler period.
func auditPeriod(clockHz float64) sim.Cycles {
	p := sim.Cycles(clockHz / 1000) // 1ms
	if p < 1 {
		p = 1
	}
	return p
}

// newNodeAuditor builds the standard node-state audit set for one rig:
//
//   - zone_accounting: buddy conservation + coalescing in every NUMA
//     zone (mem.Zone.CheckInvariants)
//   - swap_accounting: the swap device never over-commits its slots
//   - vma_non_overlap: every live process's VMA list stays sorted,
//     non-overlapping and page-aligned (vma.Space.CheckInvariants)
//   - hpmmap_pool: HPMMAP's per-zone buddy pools conserve their bytes
//     (buddy.Allocator.CheckInvariants), when HPMMAP is installed
//   - pgtable_roundtrip: the auditor's scratch page table still
//     round-trips map→walk→unmap at every granularity (a self-contained
//     probe — it never touches simulated state)
//
// The auditor is returned un-started; callers Start it on the rig's
// engine at the scheduler-tick cadence and Stop it when the run ends.
func newNodeAuditor(r *Rig, reg *metrics.Registry) *invariant.Auditor {
	a := invariant.NewAuditor()
	node := r.Node
	// Zone audits are two-speed: the accounting check (conservation,
	// bounds, alignment, coalescing) runs at every tick, while the
	// no-frame-free-twice pass runs on a strided deep pass. Both are
	// O(free blocks) and allocate nothing, but the pass costs up to 12
	// index lookups per free block where the accounting check costs
	// one, and the accounting check alone is already a large share of
	// an audited cell's CPU.
	zoneTick := 0
	a.AddCheck("zone_accounting", func() error {
		zoneTick++
		deep := zoneTick%zoneDeepAuditStride == 1 || zoneDeepAuditStride == 1
		for _, z := range node.Mem.Zones {
			var err error
			if deep {
				err = z.CheckInvariants()
			} else {
				err = z.CheckAccounting()
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	a.AddCheck("swap_accounting", func() error {
		s := node.Swap()
		if s.UsedPages() > s.TotalPages {
			return invariant.Errorf("swap_accounting", "kernel",
				"swap device over-committed: %d slots used of %d", s.UsedPages(), s.TotalPages)
		}
		return nil
	})
	a.AddCheck("vma_non_overlap", func() error {
		var found error
		node.Processes(func(p *kernel.Process) {
			if found != nil || p.Exited {
				return
			}
			if err := p.Space.CheckInvariants(); err != nil {
				found = &invariant.Violation{
					Check: "vma_non_overlap", Subsystem: "vma",
					PID: p.PID, Node: -1, Detail: err.Error(),
				}
			}
		})
		return found
	})
	if r.HP != nil {
		hp := r.HP
		a.AddCheck("hpmmap_pool", func() error {
			for z := 0; z < node.Config().NumaZones; z++ {
				pool := hp.ZonePool(z)
				if pool == nil {
					continue
				}
				if err := pool.CheckInvariants(); err != nil {
					return &invariant.Violation{
						Check: "hpmmap_pool", Subsystem: "buddy",
						Manager: "hpmmap", Node: -1, Detail: err.Error(),
					}
				}
			}
			return nil
		})
	}
	scratch := pgtable.New()
	a.AddCheck("pgtable_roundtrip", func() error { return pgtableRoundTrip(scratch) })
	a.Observe(reg)
	return a
}

// roundTripProbes are pgtableRoundTrip's mappings, one per granularity.
// Each is unmapped before the next is mapped, so every unmap prunes the
// table back to its root.
var roundTripProbes = [...]struct {
	va  pgtable.VirtAddr
	pfn mem.PFN
	ps  pgtable.PageSize
}{
	{0x7f00_0000_0000, 0x1000, pgtable.Page4K},
	{0x7f00_4000_0000, 0x2000, pgtable.Page2M},
	{0x7f40_0000_0000, 0x4000, pgtable.Page1G},
}

// pgtableRoundTrip probes the page-table implementation with the
// auditor's scratch table t: map, walk and unmap one page at each
// granularity and verify the walker sees exactly what was mapped. The
// table is the auditor's own, so the probe never perturbs simulated
// state; each unmap prunes the tables its map grew, and the next tick's
// maps reuse them rather than allocating.
func pgtableRoundTrip(t *pgtable.Table) error {
	for _, pr := range roundTripProbes {
		if err := t.Map(pr.va, pr.pfn, pr.ps, pgtable.ProtRead|pgtable.ProtWrite); err != nil {
			return invariant.Errorf("pgtable_roundtrip", "pgtable",
				"map %s at %#x failed: %v", pr.ps, pr.va, err)
		}
		m, ok := t.Walk(pr.va)
		if !ok || m.PFN != pr.pfn || m.Size != pr.ps {
			return invariant.Errorf("pgtable_roundtrip", "pgtable",
				"walk after map %s at %#x: ok=%v got pfn=%d size=%v want pfn=%d size=%v",
				pr.ps, pr.va, ok, m.PFN, m.Size, pr.pfn, pr.ps)
		}
		pfn, err := t.Unmap(pr.va, pr.ps)
		if err != nil || pfn != pr.pfn {
			return invariant.Errorf("pgtable_roundtrip", "pgtable",
				"unmap %s at %#x: pfn=%d err=%v (want pfn=%d)", pr.ps, pr.va, pfn, err, pr.pfn)
		}
		if _, ok := t.Walk(pr.va); ok {
			return invariant.Errorf("pgtable_roundtrip", "pgtable",
				"walk still resolves %#x after unmap", pr.va)
		}
	}
	if got := t.MappedBytes(); got != 0 {
		return invariant.Errorf("pgtable_roundtrip", "pgtable",
			"scratch table retains %d mapped bytes after unmap", got)
	}
	return nil
}

// Package hugetlb models HugeTLBfs: per-NUMA pools of 2MB pages reserved
// at boot, outside the reach of the default page allocator. The pool
// guarantees large-page availability to its users while simultaneously
// starving the rest of the system of the reserved memory — the mechanism
// behind the paper's Figure 3 and Figure 5 results.
package hugetlb

import (
	"errors"
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/mem"
)

// Pools is the set of per-zone reserved 2MB page pools.
type Pools struct {
	zones []pool

	// SlabBytes is the granularity at which a hugetlb-backed mapping is
	// materialized per recorded fault. Each 2MB page faults individually,
	// as hugetlbfs's fault handler works.
	SlabBytes uint64
}

type pool struct {
	zone  int
	pages []mem.PFN // free 2MB pages (LIFO)
	total int
}

// Reserve carves totalBytes of 2MB pages out of the node's zones, split
// evenly — the boot-time "hugepages=" reservation. The frames come out of
// the buddy allocator and never return while the pool exists.
func Reserve(node *mem.NodeMemory, totalBytes uint64) (*Pools, error) {
	per := totalBytes / uint64(len(node.Zones))
	per -= per % mem.LargePageSize
	p := &Pools{SlabBytes: mem.LargePageSize}
	for _, z := range node.Zones {
		pl := pool{zone: z.ID}
		want := per / mem.LargePageSize
		for i := uint64(0); i < want; i++ {
			pfn, ok := z.AllocPages(mem.LargePageOrder)
			if !ok {
				return nil, fmt.Errorf("hugetlb: zone %d exhausted after %d of %d pages", z.ID, i, want)
			}
			pl.pages = append(pl.pages, pfn)
		}
		pl.total = len(pl.pages)
		p.zones = append(p.zones, pl)
	}
	return p, nil
}

// FreePagesTotal returns free pool pages across all zones.
func (p *Pools) FreePagesTotal() int {
	t := 0
	for i := range p.zones {
		t += len(p.zones[i].pages)
	}
	return t
}

// errExhausted is Alloc2M's error when every pool is empty.
var errExhausted = errors.New("hugetlb: pools exhausted")

// Alloc2M takes one 2MB page, preferring the given zone and falling back
// to others in ascending order. The second result reports the zone the
// page came from, so callers can account for cross-zone (remote NUMA)
// placement.
func (p *Pools) Alloc2M(zone int) (mem.PFN, int, error) {
	if zone >= 0 && zone < len(p.zones) && len(p.zones[zone].pages) > 0 {
		return p.zones[zone].pop(), zone, nil
	}
	for zi := range p.zones {
		if len(p.zones[zi].pages) > 0 {
			return p.zones[zi].pop(), zi, nil
		}
	}
	return 0, 0, errExhausted
}

// pop takes the most recently freed page of a non-empty pool.
func (pl *pool) pop() mem.PFN {
	n := len(pl.pages) - 1
	pfn := pl.pages[n]
	pl.pages = pl.pages[:n]
	return pfn
}

// Free2M returns a page to its zone's pool.
func (p *Pools) Free2M(pfn mem.PFN, zone int) {
	if zone < 0 || zone >= len(p.zones) {
		// Simulated-state violation: a page is coming back tagged with a
		// zone this pool set never had.
		invariant.Failf("pool_bad_zone", "hugetlb",
			"Free2M(pfn %d) into zone %d of %d", pfn, zone, len(p.zones))
	}
	pl := &p.zones[zone]
	if len(pl.pages) >= pl.total {
		// Simulated-state violation: more pages returned than the pool was
		// reserved with — a double free or cross-pool free.
		invariant.Failf("pool_overflow", "hugetlb",
			"Free2M(pfn %d): zone %d pool already holds all %d reserved pages",
			pfn, zone, pl.total)
	}
	pl.pages = append(pl.pages, pfn)
}

// SlabPages returns how many 2MB pages one heap-extension slab holds.
func (p *Pools) SlabPages() uint64 { return p.SlabBytes / mem.LargePageSize }

package mem

import (
	"fmt"

	"hpmmap/internal/invariant"
)

// NodeMemory is the physical memory of one machine: a set of NUMA zones
// with a local-first allocation policy (memory interleaving disabled, as in
// both of the paper's testbeds).
type NodeMemory struct {
	Zones []*Zone
}

// NewNodeMemory builds a node with the given number of equally sized NUMA
// zones. totalBytes is split evenly; each zone is rounded down to a
// multiple of the max-order block size.
func NewNodeMemory(numZones int, totalBytes uint64) *NodeMemory {
	if numZones <= 0 {
		// Programmer error: machine configuration with no NUMA zones.
		panic(fmt.Sprintf("mem: NewNodeMemory with %d zones — need at least 1", numZones))
	}
	perZone := totalBytes / uint64(numZones)
	maxBlockBytes := BytesPerOrder(MaxOrder)
	perZone -= perZone % maxBlockBytes
	if perZone == 0 {
		// Programmer error: totalBytes too small to give each zone one
		// max-order block.
		panic(fmt.Sprintf("mem: NewNodeMemory(%d zones, %d bytes): per-zone size rounds to zero (need >= %d per zone)", numZones, totalBytes, maxBlockBytes))
	}
	n := &NodeMemory{}
	var base PFN
	for i := 0; i < numZones; i++ {
		pages := perZone / PageSize
		n.Zones = append(n.Zones, NewZone(i, base, pages))
		base += PFN(pages)
	}
	return n
}

// Alloc allocates 2^order pages preferring the given zone, falling back to
// the other zones in ID order — Linux's zonelist fallback with
// interleaving off.
func (n *NodeMemory) Alloc(preferred, order int) (PFN, *Zone, bool) {
	if preferred < 0 || preferred >= len(n.Zones) {
		preferred = 0
	}
	if p, ok := n.Zones[preferred].AllocPages(order); ok {
		return p, n.Zones[preferred], true
	}
	for i, z := range n.Zones {
		if i == preferred {
			continue
		}
		if p, ok := z.AllocPages(order); ok {
			return p, z, true
		}
	}
	return 0, nil, false
}

// Free returns a block to the zone that owns it.
func (n *NodeMemory) Free(p PFN, order int) {
	z := n.ZoneOf(p)
	if z == nil {
		// Simulated-state violation: a frame is being returned that no
		// zone owns — an offlined or fabricated address escaped into the
		// general allocator.
		invariant.Failf("free_outside_zones", "mem",
			"Free(%d, order %d): frame belongs to no zone", p, order)
	}
	z.FreeBlock(p, order)
}

// ZoneOf returns the zone containing frame p, or nil.
func (n *NodeMemory) ZoneOf(p PFN) *Zone {
	for _, z := range n.Zones {
		if p >= z.Base && p < z.Base+PFN(z.Pages) {
			return z
		}
	}
	// The frame may live in an offlined extent; those belong to no zone.
	return nil
}

// FreePages sums free pages across zones.
func (n *NodeMemory) FreePages() uint64 {
	var t uint64
	for _, z := range n.Zones {
		t += z.FreePages()
	}
	return t
}

// TotalPages sums managed pages across zones (offlined memory excluded).
func (n *NodeMemory) TotalPages() uint64 {
	var t uint64
	for _, z := range n.Zones {
		t += z.Pages
	}
	return t
}

// Pressure returns the maximum pressure across zones: the binding
// constraint for an allocation that must come from somewhere.
func (n *NodeMemory) Pressure() float64 {
	var worst float64
	for _, z := range n.Zones {
		if p := z.Pressure(); p > worst {
			worst = p
		}
	}
	return worst
}

package hugetlb

import (
	"testing"

	"hpmmap/internal/mem"
)

// freePages returns the free pool pages in the zone.
func (p *Pools) freePages(zone int) int { return len(p.zones[zone].pages) }

func TestReserveSplitsEvenly(t *testing.T) {
	node := mem.NewNodeMemory(2, 4<<30)
	p, err := Reserve(node, 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreePagesTotal() != 1024 {
		t.Fatalf("reserved %d pages, want 1024", p.FreePagesTotal())
	}
	if p.freePages(0) != 512 || p.freePages(1) != 512 {
		t.Fatalf("per-zone %d/%d, want 512/512", p.freePages(0), p.freePages(1))
	}
	// The reservation visibly removes memory from the buddy.
	if node.FreePages() != (2<<30)/mem.PageSize {
		t.Fatalf("node free pages %d after reservation", node.FreePages())
	}
}

func TestReserveTooMuchFails(t *testing.T) {
	node := mem.NewNodeMemory(2, 1<<30)
	if _, err := Reserve(node, 4<<30); err == nil {
		t.Fatal("over-reservation succeeded")
	}
}

func TestAllocPrefersZoneThenFallsBack(t *testing.T) {
	node := mem.NewNodeMemory(2, 4<<30)
	p, err := Reserve(node, 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	perZone := p.freePages(0)
	// Drain zone 0.
	for i := 0; i < perZone; i++ {
		if _, z, err := p.Alloc2M(0); err != nil || z != 0 {
			t.Fatalf("alloc: %v zone %d", err, z)
		}
	}
	if p.freePages(0) != 0 {
		t.Fatal("zone 0 not drained")
	}
	// Next allocation falls back to zone 1 and reports it.
	if _, z, err := p.Alloc2M(0); err != nil || z != 1 {
		t.Fatalf("fallback: %v zone %d", err, z)
	}
	if p.freePages(1) != perZone-1 {
		t.Fatalf("zone 1 free %d", p.freePages(1))
	}
}

func TestExhaustionError(t *testing.T) {
	node := mem.NewNodeMemory(1, 1<<30)
	p, err := Reserve(node, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	for p.FreePagesTotal() > 0 {
		if _, _, err := p.Alloc2M(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := p.Alloc2M(0); err == nil {
		t.Fatal("alloc on exhausted pools succeeded")
	}
}

func TestFreeRoundTrip(t *testing.T) {
	node := mem.NewNodeMemory(1, 1<<30)
	p, err := Reserve(node, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	pfn, _, err := p.Alloc2M(0)
	if err != nil {
		t.Fatal(err)
	}
	before := p.freePages(0)
	p.Free2M(pfn, 0)
	if p.freePages(0) != before+1 {
		t.Fatal("free did not return page")
	}
}

func TestFreeOverflowPanics(t *testing.T) {
	node := mem.NewNodeMemory(1, 1<<30)
	p, err := Reserve(node, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow free did not panic")
		}
	}()
	p.Free2M(12345, 0)
}

func TestSlabGeometry(t *testing.T) {
	node := mem.NewNodeMemory(1, 1<<30)
	p, err := Reserve(node, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	if p.SlabPages() != 1 {
		t.Fatalf("slab pages %d, want 1 (per-2MB faulting)", p.SlabPages())
	}
}

package mem

import "testing"

func TestNodeMemoryLayout(t *testing.T) {
	n := NewNodeMemory(2, 1<<30) // 1GB in 2 zones
	if len(n.Zones) != 2 {
		t.Fatalf("zones = %d", len(n.Zones))
	}
	if n.Zones[0].Pages != n.Zones[1].Pages {
		t.Fatal("zones not equal size")
	}
	if n.Zones[1].Base != n.Zones[0].Base+PFN(n.Zones[0].Pages) {
		t.Fatal("zones not contiguous")
	}
	if n.TotalPages() != (1<<30)/PageSize {
		t.Fatalf("total pages %d", n.TotalPages())
	}
}

func TestNodeAllocPrefersZone(t *testing.T) {
	n := NewNodeMemory(2, 1<<30)
	p, z, ok := n.Alloc(1, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	if z.ID != 1 {
		t.Fatalf("allocated from zone %d, want 1", z.ID)
	}
	if n.ZoneOf(p) != z {
		t.Fatal("ZoneOf mismatch")
	}
	n.Free(p, 0)
	if n.FreePages() != n.TotalPages() {
		t.Fatal("free/total mismatch after round trip")
	}
}

func TestNodeAllocFallsBack(t *testing.T) {
	n := NewNodeMemory(2, 256<<20)
	// Exhaust zone 0.
	for {
		if _, ok := n.Zones[0].AllocPages(0); !ok {
			break
		}
	}
	_, z, ok := n.Alloc(0, 0)
	if !ok {
		t.Fatal("alloc failed despite zone 1 free")
	}
	if z.ID != 1 {
		t.Fatalf("fallback went to zone %d", z.ID)
	}
}

func TestNodeAllocFailsWhenAllExhausted(t *testing.T) {
	n := NewNodeMemory(2, 64<<20)
	for {
		if _, _, ok := n.Alloc(0, MaxOrder); !ok {
			break
		}
	}
	for {
		if _, _, ok := n.Alloc(0, 0); !ok {
			break
		}
	}
	if _, _, ok := n.Alloc(0, 0); ok {
		t.Fatal("alloc succeeded with node exhausted")
	}
	if n.Pressure() != 1 {
		t.Fatalf("pressure %v on exhausted node", n.Pressure())
	}
}

func TestNodeAllocBadPreferredClamps(t *testing.T) {
	n := NewNodeMemory(2, 256<<20)
	if _, _, ok := n.Alloc(99, 0); !ok {
		t.Fatal("alloc with bad preferred zone failed")
	}
}

func TestNodeOfflineEvenly(t *testing.T) {
	n := NewNodeMemory(2, 2<<30)
	before := n.TotalPages()
	var ext []Extent
	for _, z := range n.Zones {
		got, err := z.Offline((1 << 30) / uint64(len(n.Zones)))
		if err != nil {
			t.Fatal(err)
		}
		ext = append(ext, got...)
	}
	var got uint64
	perZone := map[PFN]uint64{}
	for _, e := range ext {
		got += e.Bytes()
		// Count per original zone by address range.
		if e.Base < PFN(before)/2 {
			perZone[0] += e.Bytes()
		} else {
			perZone[1] += e.Bytes()
		}
	}
	if got != 1<<30 {
		t.Fatalf("offlined %d, want 1GB", got)
	}
	if perZone[0] != perZone[1] {
		t.Fatalf("offline not even: %v", perZone)
	}
	if n.TotalPages() != before-(1<<30)/PageSize {
		t.Fatalf("total pages %d after offline", n.TotalPages())
	}
	// ZoneOf must not find offlined frames.
	for _, e := range ext {
		if z := n.ZoneOf(e.Base + PFN(e.Pages) - 1); z != nil && e.Base >= z.Base && e.Base < z.Base+PFN(z.Pages) {
			t.Fatalf("offlined frame still inside zone %d", z.ID)
		}
	}
}

func TestOrderHelpers(t *testing.T) {
	if BytesPerOrder(0) != PageSize || BytesPerOrder(LargePageOrder) != LargePageSize {
		t.Fatal("BytesPerOrder wrong")
	}
	if PFN(1).Addr() != PageSize {
		t.Fatal("PFN.Addr wrong")
	}
}

func TestFreeListRemoveSemantics(t *testing.T) {
	f := newFreeList(0, 0, 64)
	f.push(10)
	f.push(20)
	f.push(30)
	if !f.remove(20) {
		t.Fatal("remove existing failed")
	}
	if f.remove(20) {
		t.Fatal("double remove succeeded")
	}
	if f.contains(20) {
		t.Fatal("contains after remove")
	}
	if f.len() != 2 {
		t.Fatalf("len %d", f.len())
	}
	// Remove the tail element (moved == p path).
	if !f.remove(30) {
		t.Fatal("remove tail failed")
	}
	if f.contains(30) || f.len() != 1 {
		t.Fatal("tail remove left stale state")
	}
	p, ok := f.pop()
	if !ok || p != 10 {
		t.Fatalf("pop = %d, %v", p, ok)
	}
	if _, ok := f.pop(); ok {
		t.Fatal("pop on empty succeeded")
	}
}

func TestFreeListDoublePushPanics(t *testing.T) {
	f := newFreeList(0, 0, 64)
	f.push(5)
	defer func() {
		if recover() == nil {
			t.Fatal("double push did not panic")
		}
	}()
	f.push(5)
}

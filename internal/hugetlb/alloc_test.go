package hugetlb

import (
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

// refAlloc2M is Alloc2M as it was: build the zone order (the preferred
// zone if in range, then the others ascending) and pop from the first
// pool that has a page.
func refAlloc2M(p *Pools, zone int) (mem.PFN, int, bool) {
	order := make([]int, 0, len(p.zones))
	if zone >= 0 && zone < len(p.zones) {
		order = append(order, zone)
	}
	for i := range p.zones {
		if i != zone {
			order = append(order, i)
		}
	}
	for _, zi := range order {
		pl := &p.zones[zi]
		if n := len(pl.pages); n > 0 {
			pfn := pl.pages[n-1]
			pl.pages = pl.pages[:n-1]
			return pfn, zi, true
		}
	}
	return 0, 0, false
}

// TestAlloc2MMatchesReference runs random Alloc2M and Free2M sequences on
// twin four-zone pools, one through Alloc2M and one through the
// reference, with preferred zones in and out of range, and requires the
// same frame, zone and outcome from every call.
func TestAlloc2MMatchesReference(t *testing.T) {
	r := sim.NewRand(0xa112)
	for run := 0; run < 20; run++ {
		var pools [2]*Pools
		for i := range pools {
			p, err := Reserve(mem.NewNodeMemory(4, 1<<30), 64<<20)
			if err != nil {
				t.Fatal(err)
			}
			pools[i] = p
		}
		type held struct {
			pfn  mem.PFN
			zone int
		}
		var live []held
		for step := 0; step < 300; step++ {
			if len(live) > 0 && r.Bool(0.4) {
				k := r.Intn(len(live))
				h := live[k]
				live = append(live[:k], live[k+1:]...)
				pools[0].Free2M(h.pfn, h.zone)
				pools[1].Free2M(h.pfn, h.zone)
				continue
			}
			zone := r.Intn(6) - 1 // -1 and 4 are out of range
			pfn, z, err := pools[0].Alloc2M(zone)
			wpfn, wz, ok := refAlloc2M(pools[1], zone)
			if pfn != wpfn || z != wz || (err == nil) != ok {
				t.Fatalf("run %d step %d: Alloc2M(%d) = %d, %d, %v; reference %d, %d, %v", run, step, zone, pfn, z, err, wpfn, wz, ok)
			}
			if ok {
				live = append(live, held{pfn, z})
			}
		}
	}
}

// TestAlloc2MAllocates0 pins that taking a page, and failing to, allocate
// nothing.
func TestAlloc2MAllocates0(t *testing.T) {
	p, err := Reserve(mem.NewNodeMemory(2, 1<<30), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		pfn, z, err := p.Alloc2M(1)
		if err != nil {
			t.Fatal(err)
		}
		p.Free2M(pfn, z)
	}); n != 0 {
		t.Fatalf("Alloc2M+Free2M allocates %v times per call", n)
	}
	empty, err := Reserve(mem.NewNodeMemory(2, 1<<30), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = empty.Alloc2M(0) }); n != 0 {
		t.Fatalf("exhausted Alloc2M allocates %v times per call", n)
	}
}

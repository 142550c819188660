package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"hpmmap/internal/sim"
)

func newTestZone(t *testing.T, mb uint64) *Zone {
	t.Helper()
	pages := (mb << 20) / PageSize
	return NewZone(0, 0, pages)
}

// largestFreeOrder returns the highest order with at least one free
// block, or -1 if the zone is exhausted.
func (z *Zone) largestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if z.free[o].len() > 0 {
			return o
		}
	}
	return -1
}

func TestZoneStartsFullyCoalesced(t *testing.T) {
	z := newTestZone(t, 64)
	if z.FreePages() != z.Pages {
		t.Fatalf("free %d != total %d", z.FreePages(), z.Pages)
	}
	if z.largestFreeOrder() != MaxOrder {
		t.Fatalf("largest free order %d, want %d", z.largestFreeOrder(), MaxOrder)
	}
	want := int(z.Pages / PagesPerOrder(MaxOrder))
	if got := z.FreeBlocksAt(MaxOrder); got != want {
		t.Fatalf("max-order blocks %d, want %d", got, want)
	}
}

// TestZoneFreeListIndexLazy checks that a fresh zone builds the index of
// its max-order list only, that an unindexed list reads as empty, and
// that a list builds its index on its first push: an order-3 allocation
// leaves the order-0 to order-2 lists unindexed, an order-0 one indexes
// them.
func TestZoneFreeListIndexLazy(t *testing.T) {
	z := newTestZone(t, 16)
	for o := 0; o < MaxOrder; o++ {
		f := z.free[o]
		if f.idx != nil || f.contains(z.Base) || f.owns(z.Base) || f.remove(z.Base) {
			t.Fatalf("fresh zone: order-%d list has index %v or reports frame %d", o, f.idx != nil, z.Base)
		}
	}
	if z.free[MaxOrder].idx == nil {
		t.Fatal("fresh zone: max-order list has no index")
	}
	if _, ok := z.AllocPages(3); !ok {
		t.Fatal("order-3 allocation failed")
	}
	for o := 0; o <= MaxOrder; o++ {
		if indexed := z.free[o].idx != nil; indexed != (o >= 3) {
			t.Fatalf("after an order-3 allocation: order-%d list indexed %v", o, indexed)
		}
	}
	if _, ok := z.AllocPages(0); !ok {
		t.Fatal("order-0 allocation failed")
	}
	for o := 0; o <= MaxOrder; o++ {
		if f := z.free[o]; f.idx == nil || uint64(len(f.idx)) != z.Pages>>uint(o) {
			t.Fatalf("after an order-0 allocation: order-%d index holds %d slots, want %d", o, len(f.idx), z.Pages>>uint(o))
		}
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZoneAllocFreeRoundTrip(t *testing.T) {
	z := newTestZone(t, 64)
	p, ok := z.AllocPages(0)
	if !ok {
		t.Fatal("order-0 alloc failed on empty zone")
	}
	if z.FreePages() != z.Pages-1 {
		t.Fatalf("free pages %d after one alloc", z.FreePages())
	}
	z.FreeBlock(p, 0)
	if z.FreePages() != z.Pages {
		t.Fatalf("free pages %d after free", z.FreePages())
	}
	if z.largestFreeOrder() != MaxOrder {
		t.Fatal("zone did not re-coalesce to max order")
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZoneSplitProducesDisjointBlocks(t *testing.T) {
	z := newTestZone(t, 64)
	seen := map[PFN]bool{}
	var got []PFN
	for {
		p, ok := z.AllocPages(LargePageOrder)
		if !ok {
			break
		}
		for i := uint64(0); i < PagesPerOrder(LargePageOrder); i++ {
			if seen[p+PFN(i)] {
				t.Fatalf("frame %d allocated twice", p+PFN(i))
			}
			seen[p+PFN(i)] = true
		}
		got = append(got, p)
	}
	if uint64(len(got)) != (64<<20)/LargePageSize {
		t.Fatalf("allocated %d 2MB blocks from 64MB", len(got))
	}
	if z.FreePages() != 0 {
		t.Fatalf("free pages %d after exhausting", z.FreePages())
	}
	for _, p := range got {
		z.FreeBlock(p, LargePageOrder)
	}
	if z.largestFreeOrder() != MaxOrder {
		t.Fatal("zone did not fully coalesce after freeing all 2MB blocks")
	}
}

func TestZoneAllocFailsWhenExhausted(t *testing.T) {
	z := newTestZone(t, 8)
	for {
		if _, ok := z.AllocPages(0); !ok {
			break
		}
	}
	if _, ok := z.AllocPages(0); ok {
		t.Fatal("alloc succeeded on exhausted zone")
	}
	if z.Failures < 1 {
		t.Fatal("failure counter not incremented")
	}
}

func TestZoneFragmentationBlocksLargeAllocs(t *testing.T) {
	z := newTestZone(t, 8)
	// Allocate everything as small pages, then free every other page:
	// plenty of memory free but nothing contiguous.
	var pages []PFN
	for {
		p, ok := z.AllocPages(0)
		if !ok {
			break
		}
		pages = append(pages, p)
	}
	for i := 0; i < len(pages); i += 2 {
		z.FreeBlock(pages[i], 0)
	}
	if z.FreePages() == 0 {
		t.Fatal("expected free memory")
	}
	if z.CanAlloc(LargePageOrder) {
		t.Fatal("2MB alloc possible despite checkerboard fragmentation")
	}
	fi := z.FragmentationIndex(LargePageOrder)
	if fi < 0.9 {
		t.Fatalf("fragmentation index %v, want near 1 for checkerboard", fi)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZoneFragmentationIndexSignalsLowMemory(t *testing.T) {
	z := newTestZone(t, 8)
	for {
		if _, ok := z.AllocPages(MaxOrder); !ok {
			break
		}
	}
	// Nothing free at all: index reports 0 (failure due to lack of memory).
	if fi := z.FragmentationIndex(LargePageOrder); fi != 0 {
		t.Fatalf("index on empty zone = %v, want 0", fi)
	}
}

func TestZoneFragmentationIndexNegativeWhenSatisfiable(t *testing.T) {
	z := newTestZone(t, 8)
	if fi := z.FragmentationIndex(LargePageOrder); fi != -1 {
		t.Fatalf("index on fresh zone = %v, want -1", fi)
	}
}

func TestZonePressure(t *testing.T) {
	z := newTestZone(t, 64)
	if p := z.Pressure(); p != 0 {
		t.Fatalf("fresh zone pressure %v", p)
	}
	// Exhaust the zone.
	for {
		if _, ok := z.AllocPages(MaxOrder); !ok {
			break
		}
	}
	for {
		if _, ok := z.AllocPages(0); !ok {
			break
		}
	}
	if p := z.Pressure(); p != 1 {
		t.Fatalf("exhausted zone pressure %v, want 1", p)
	}
}

func TestZoneBoundsChecks(t *testing.T) {
	z := newTestZone(t, 8)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("FreeBlock outside zone", func() { z.FreeBlock(PFN(z.Pages)+100, 0) })
	mustPanic("FreeBlock misaligned", func() { z.FreeBlock(1, 1) })
	mustPanic("Recycle outside zone", func() { z.Recycle(PFN(z.Pages)+100, 3) })
	mustPanic("Recycle misaligned", func() { z.Recycle(8, 4) })
	mustPanic("AllocPages bad order", func() { z.AllocPages(MaxOrder + 1) })
}

func TestZoneOfflineTakesTopSections(t *testing.T) {
	z := newTestZone(t, 512)
	before := z.Pages
	ext, err := z.Offline(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	for _, e := range ext {
		got += e.Bytes()
		if e.Bytes() != SectionSize {
			t.Fatalf("extent size %d, want one section", e.Bytes())
		}
		if e.Base < PFN(before)-PFN((256<<20)/PageSize) {
			t.Fatalf("offline took low extent at %d; expected top of zone", e.Base)
		}
	}
	if got != 256<<20 {
		t.Fatalf("offlined %d bytes, want 256MB", got)
	}
	if z.Pages != before-(256<<20)/PageSize {
		t.Fatalf("zone pages %d after offline", z.Pages)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The offlined frames must be unreachable via allocation.
	for {
		p, ok := z.AllocPages(MaxOrder)
		if !ok {
			break
		}
		for _, e := range ext {
			if p >= e.Base && p < e.End() {
				t.Fatalf("allocation returned offlined frame %d", p)
			}
		}
	}
}

func TestZoneOfflineRejectsBadSizes(t *testing.T) {
	z := newTestZone(t, 512)
	if _, err := z.Offline(1 << 20); err == nil {
		t.Fatal("offline of sub-section size succeeded")
	}
	if _, err := z.Offline(1 << 40); err == nil {
		t.Fatal("offline of more than the zone succeeded")
	}
}

func TestZoneOfflineZeroIsNoop(t *testing.T) {
	z := newTestZone(t, 512)
	ext, err := z.Offline(0)
	if err != nil || len(ext) != 0 {
		t.Fatalf("Offline(0) = %v, %v", ext, err)
	}
}

// TestZoneRandomOpsInvariant is the core property test: any interleaving of
// allocs and frees conserves pages, never double-allocates, and freeing
// everything restores full coalescing.
func TestZoneRandomOpsInvariant(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		z := NewZone(0, 0, (32<<20)/PageSize)
		type block struct {
			p     PFN
			order int
		}
		var live []block
		for op := 0; op < 2000; op++ {
			if len(live) == 0 || r.Bool(0.55) {
				order := r.Intn(MaxOrder + 1)
				p, ok := z.AllocPages(order)
				if ok {
					live = append(live, block{p, order})
				}
			} else {
				i := r.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				z.FreeBlock(b.p, b.order)
			}
			var allocated uint64
			for _, b := range live {
				allocated += PagesPerOrder(b.order)
			}
			if allocated+z.FreePages() != z.Pages {
				t.Logf("seed %d op %d: conservation violated: %d live + %d free != %d", seed, op, allocated, z.FreePages(), z.Pages)
				return false
			}
		}
		if err := z.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, b := range live {
			z.FreeBlock(b.p, b.order)
		}
		if z.largestFreeOrder() != MaxOrder || z.FreePages() != z.Pages {
			t.Logf("seed %d: zone did not re-coalesce (largest=%d free=%d)", seed, z.largestFreeOrder(), z.FreePages())
			return false
		}
		return z.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestZoneAllocatedBlocksDisjoint drives random allocations and verifies
// no two live blocks ever overlap.
func TestZoneAllocatedBlocksDisjoint(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		z := NewZone(0, 0, (16<<20)/PageSize)
		owner := map[PFN]int{} // frame -> block id
		type block struct {
			p     PFN
			order int
		}
		blocks := map[int]block{}
		next := 0
		for op := 0; op < 1000; op++ {
			if len(blocks) == 0 || r.Bool(0.6) {
				order := r.Intn(LargePageOrder + 1)
				p, ok := z.AllocPages(order)
				if !ok {
					continue
				}
				for i := uint64(0); i < PagesPerOrder(order); i++ {
					if id, dup := owner[p+PFN(i)]; dup {
						t.Logf("seed %d: frame %d already owned by block %d", seed, p+PFN(i), id)
						return false
					}
					owner[p+PFN(i)] = next
				}
				blocks[next] = block{p, order}
				next++
			} else {
				// Free an arbitrary live block (deterministic pick).
				var id int
				k := r.Intn(len(blocks))
				for bid := range blocks {
					if k == 0 {
						id = bid
						break
					}
					k--
				}
				b := blocks[id]
				delete(blocks, id)
				for i := uint64(0); i < PagesPerOrder(b.order); i++ {
					delete(owner, b.p+PFN(i))
				}
				z.FreeBlock(b.p, b.order)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestZoneOfflineThenAllocStress exercises a zone after offlining: the
// remaining span must behave like a normal (smaller) zone under churn.
func TestZoneOfflineThenAllocStress(t *testing.T) {
	z := NewZone(0, 0, (1<<30)/PageSize)
	if _, err := z.Offline(512 << 20); err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(99)
	type blk struct {
		p PFN
		o int
	}
	var live []blk
	for op := 0; op < 3000; op++ {
		if len(live) == 0 || r.Bool(0.6) {
			o := r.Intn(MaxOrder + 1)
			if p, ok := z.AllocPages(o); ok {
				live = append(live, blk{p, o})
			}
		} else {
			i := r.Intn(len(live))
			b := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			z.FreeBlock(b.p, b.o)
		}
	}
	for _, b := range live {
		z.FreeBlock(b.p, b.o)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if z.FreePages() != z.Pages {
		t.Fatalf("free %d != pages %d after churn", z.FreePages(), z.Pages)
	}
}

// TestRecycleMatchesFreeThenAlloc checks Recycle against the pair it
// stands for, FreeBlock then AllocPages on a twin zone, over random
// allocation states. Recycle must report true exactly when the pair
// hands back the same block without a merge or a split, and leave the
// twin's state; when it reports false the driver runs the pair on both
// zones, as the page cache's recycle step falls back to it.
func TestRecycleMatchesFreeThenAlloc(t *testing.T) {
	type block struct {
		p     PFN
		order int
	}
	orders := []int{3, 4, 5, 6, MaxOrder}
	r := sim.NewRand(0x4ec1)
	var inPlace, fallback int
	for seed := 0; seed < 40; seed++ {
		pages := 4 * PagesPerOrder(MaxOrder)
		z, twin := NewZone(0, 0, pages), NewZone(0, 0, pages)
		var held []block
		for step := 0; step < 400; step++ {
			switch x := r.Intn(10); {
			case x < 5:
				order := orders[r.Intn(len(orders))]
				p, ok := z.AllocPages(order)
				twin.AllocPages(order)
				if ok {
					held = append(held, block{p, order})
				}
			case x < 7:
				if len(held) == 0 {
					continue
				}
				i := r.Intn(len(held))
				z.FreeBlock(held[i].p, held[i].order)
				twin.FreeBlock(held[i].p, held[i].order)
				held = slices.Delete(held, i, i+1)
			default:
				if len(held) == 0 {
					continue
				}
				i := r.Intn(len(held))
				b := held[i]
				splits, merges := twin.Splits, twin.Merges
				twin.FreeBlock(b.p, b.order)
				q, _ := twin.AllocPages(b.order)
				pair := q == b.p && twin.Splits == splits && twin.Merges == merges
				if got := z.Recycle(b.p, b.order); got != pair {
					t.Fatalf("seed %d step %d: Recycle(%d, %d) = %v; FreeBlock then AllocPages gave %d with %d splits and %d merges",
						seed, step, b.p, b.order, got, q, twin.Splits-splits, twin.Merges-merges)
				}
				if pair {
					inPlace++
				} else {
					fallback++
					z.FreeBlock(b.p, b.order)
					z.AllocPages(b.order)
					held[i].p = q
				}
			}
			sameZoneState(t, step, z, twin)
		}
	}
	if inPlace == 0 || fallback == 0 {
		t.Fatalf("the sequences recycled %d blocks in place and fell back %d times; want both", inPlace, fallback)
	}
}

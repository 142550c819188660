package mem

import (
	"fmt"
	"math/bits"
	"sort"

	"hpmmap/internal/invariant"
)

// Zone is one NUMA zone of physical memory managed by an order-based buddy
// allocator, mirroring the Linux zoned page allocator. Frame numbers are
// global (node-wide): a zone spans [Base, Base+Pages).
type Zone struct {
	ID    int
	Base  PFN
	Pages uint64 // total managed base pages

	free      [MaxOrder + 1]*freeList
	freePages uint64

	// Watermarks, in base pages, following Linux's min/low/high scheme.
	// Allocation below min fails for normal requests; below low wakes
	// reclaim (modelled by callers observing Pressure).
	WatermarkMin  uint64
	WatermarkLow  uint64
	WatermarkHigh uint64

	offlined []Extent // hot-removed ranges, no longer managed

	// Statistics.
	Allocs, Frees, Splits, Merges, Failures uint64
}

// Extent is a contiguous physical range.
type Extent struct {
	Base  PFN
	Pages uint64
}

// Bytes returns the size of the extent in bytes.
func (e Extent) Bytes() uint64 { return e.Pages * PageSize }

// End returns one past the last frame.
func (e Extent) End() PFN { return e.Base + PFN(e.Pages) }

// NewZone creates a zone of the given size whose free memory starts fully
// coalesced. pages must be a multiple of the max-order block size so the
// initial free lists are exact.
func NewZone(id int, base PFN, pages uint64) *Zone {
	maxBlock := PagesPerOrder(MaxOrder)
	if pages == 0 || pages%maxBlock != 0 {
		panic(fmt.Sprintf("mem: zone size %d pages not a multiple of max-order block (%d)", pages, maxBlock))
	}
	if uint64(base)%maxBlock != 0 {
		// Programmer error: zone construction with a misaligned base.
		panic(fmt.Sprintf("mem: NewZone base %d not aligned to the max-order block (%d pages)", base, maxBlock))
	}
	z := &Zone{ID: id, Base: base, Pages: pages}
	for o := range z.free {
		z.free[o] = newFreeList(base, o, pages)
	}
	for p := base; p < base+PFN(pages); p += PFN(maxBlock) {
		z.free[MaxOrder].push(p)
	}
	z.freePages = pages
	// Default watermarks: roughly Linux's proportions.
	z.WatermarkMin = pages / 256
	z.WatermarkLow = pages / 128
	z.WatermarkHigh = pages / 64
	return z
}

// FreePages returns the number of free base pages.
func (z *Zone) FreePages() uint64 { return z.freePages }

// buddyOf returns the buddy block of p at the given order.
func (z *Zone) buddyOf(p PFN, order int) PFN {
	rel := uint64(p - z.Base)
	return z.Base + PFN(rel^PagesPerOrder(order))
}

// ancestorOf returns the block of the given order that contains p.
func (z *Zone) ancestorOf(p PFN, order int) PFN {
	return z.Base + (p-z.Base)&^PFN(PagesPerOrder(order)-1)
}

// AllocPages allocates a block of 2^order base pages. It returns the first
// frame of the block. Allocation fails (ok=false) when no block of the
// requested or any higher order is free — exactly the condition under
// which Linux would enter reclaim/compaction.
func (z *Zone) AllocPages(order int) (PFN, bool) {
	if order < 0 || order > MaxOrder {
		// Programmer error: order outside [0, MaxOrder].
		panic(fmt.Sprintf("mem: AllocPages order %d out of range [0,%d]", order, MaxOrder))
	}
	p, _, ok := z.take(order, 1)
	return p, ok
}

// take is the zone's one search-and-split path. It pops the most recently
// freed block of the smallest free order o >= order and hands out its
// first k = min(n, 2^(o-order)) pieces of the requested order, ascending.
// That is exactly what k consecutive AllocPages calls return: every list
// in [order, o) was empty at the pop, so each later call pops the lowest
// untaken piece of the same block. The untaken tail goes back as
// one aligned piece per set bit of 2^(o-order) - k, each alone on its
// list, which is where those calls would leave it; the calls' splits
// number k-1 plus those pieces. n must be at least 1.
//
//detsim:hotpath
func (z *Zone) take(order int, n uint64) (PFN, uint64, bool) {
	for o := order; o <= MaxOrder; o++ {
		p, ok := z.free[o].pop()
		if !ok {
			continue
		}
		m := uint64(1) << uint(o-order)
		k := min(n, m)
		z.Splits += k - 1
		// The piece at block offset pos spans its lowest set bit.
		for pos := k; pos < m; pos += pos & -pos {
			z.free[order+bits.TrailingZeros64(pos)].push(p + PFN(pos<<uint(order)))
			z.Splits++
		}
		z.freePages -= k << uint(order)
		z.Allocs += k
		return p, k, true
	}
	z.Failures++
	return 0, 0, false
}

// FreeBlock returns a block to the allocator, coalescing with free buddies
// as far as possible.
func (z *Zone) FreeBlock(p PFN, order int) {
	if order < 0 || order > MaxOrder {
		// Programmer error: order outside [0, MaxOrder].
		panic(fmt.Sprintf("mem: FreeBlock order %d out of range [0,%d]", order, MaxOrder))
	}
	z.checkFreed("FreeBlock", p, order)
	z.Frees++
	z.freePages += PagesPerOrder(order)
	for order < MaxOrder {
		buddy := z.buddyOf(p, order)
		if !z.free[order].remove(buddy) {
			break
		}
		z.Merges++
		if buddy < p {
			p = buddy
		}
		order++
	}
	z.free[order].push(p)
}

// checkFreed reports a block being freed that this zone cannot have
// handed out: one outside its managed span or misaligned for its order.
// op names the freeing call.
func (z *Zone) checkFreed(op string, p PFN, order int) {
	// p below Base wraps rel past Pages.
	rel, n := uint64(p-z.Base), PagesPerOrder(order)
	if rel >= z.Pages || z.Pages-rel < n || rel&(n-1) != 0 {
		z.badFree(op, p, order)
	}
}

// badFree raises the violation for a block checkFreed refused.
func (z *Zone) badFree(op string, p PFN, order int) {
	if p < z.Base || p+PFN(PagesPerOrder(order)) > z.Base+PFN(z.Pages) {
		// Simulated-state violation: the block being freed does not lie
		// inside this zone's managed span — an owner mixed up zones or
		// freed a stale/offlined frame.
		invariant.Failf("free_outside_zone", "mem",
			"%s [%d,+2^%d) outside zone %d span [%d,%d)",
			op, p, order, z.ID, z.Base, z.Base+PFN(z.Pages))
	}
	if uint64(p-z.Base)&(PagesPerOrder(order)-1) != 0 {
		// Simulated-state violation: the freed address is not aligned to
		// its order, so it cannot be a block this allocator handed out.
		invariant.Failf("free_misaligned", "mem",
			"%s(%d, order %d) misaligned within zone %d", op, p, order, z.ID)
	}
}

// Recycle stands for FreeBlock(p, order) followed by AllocPages(order)
// when that pair hands p back and leaves every free list as it was:
// exactly when neither p nor its buddy is free, so the free pushes p
// without merging and the allocation pops it off the top. It then
// counts one free and one allocation and returns true; otherwise it
// changes nothing and returns false. It checks p as FreeBlock does.
//
//detsim:hotpath
func (z *Zone) Recycle(p PFN, order int) bool {
	z.checkFreed("Recycle", p, order)
	f := z.free[order]
	if f.contains(p) || order < MaxOrder && f.contains(z.buddyOf(p, order)) {
		return false
	}
	z.Frees++
	z.Allocs++
	return true
}

// FreeBlocksAt returns the number of free blocks at exactly the given
// order.
func (z *Zone) FreeBlocksAt(order int) int { return z.free[order].len() }

// CanAlloc reports whether an allocation of the given order would succeed
// right now.
func (z *Zone) CanAlloc(order int) bool {
	for o := order; o <= MaxOrder; o++ {
		if z.free[o].len() > 0 {
			return true
		}
	}
	return false
}

// FragmentationIndex returns Linux's fragmentation index for the given
// order: 0 means failures are due to lack of memory, values approaching 1
// mean failures are due to fragmentation. Returns -1 when a request of the
// order would currently succeed (the index is only meaningful on failure
// paths), matching the kernel's convention.
func (z *Zone) FragmentationIndex(order int) float64 {
	var requested, total, blocks uint64
	requested = PagesPerOrder(order)
	for o := 0; o <= MaxOrder; o++ {
		n := uint64(z.free[o].len())
		blocks += n
		total += n * PagesPerOrder(o)
		if o >= order && n > 0 {
			return -1
		}
	}
	if blocks == 0 {
		return 0
	}
	return 1 - float64(total)/float64(requested)/float64(blocks)
}

// Pressure returns a [0,1] load factor describing how close the zone is to
// its watermarks: 0 when free memory is at or above the high watermark, 1
// when at or below min.
func (z *Zone) Pressure() float64 {
	f := z.freePages
	if f >= z.WatermarkHigh {
		return 0
	}
	if f <= z.WatermarkMin {
		return 1
	}
	return float64(z.WatermarkHigh-f) / float64(z.WatermarkHigh-z.WatermarkMin)
}

// Offline hot-removes bytes of memory from the zone in SectionSize units,
// as Linux Memory Hot Remove does. It requires the sections to be fully
// free (the simulator offlines at boot, exactly as the paper configures).
// The removed extents are returned for an external manager (HPMMAP) to
// own; they will never again be handed out by this zone.
func (z *Zone) Offline(bytes uint64) ([]Extent, error) {
	if bytes == 0 {
		return nil, nil
	}
	if bytes%SectionSize != 0 {
		return nil, fmt.Errorf("mem: offline size %d not a multiple of the %dMB section size", bytes, SectionSize>>20)
	}
	pages := bytes / PageSize
	if pages > z.freePages {
		return nil, fmt.Errorf("mem: zone %d has only %d free pages, cannot offline %d", z.ID, z.freePages, pages)
	}
	sectionPages := uint64(SectionSize / PageSize)
	want := pages / sectionPages

	// Gather candidate max-order blocks from the top of the zone first:
	// hot-remove prefers movable, high blocks. We take fully free,
	// section-aligned spans.
	var starts []PFN
	z.free[MaxOrder].each(func(p PFN) { starts = append(starts, p) })
	sort.Slice(starts, func(i, j int) bool { return starts[i] > starts[j] })

	blocksPerSection := sectionPages / PagesPerOrder(MaxOrder)
	if blocksPerSection == 0 {
		blocksPerSection = 1
	}

	// Group contiguous runs of max-order blocks into sections.
	var got []Extent
	run := make(map[PFN]bool, len(starts))
	for _, s := range starts {
		run[s] = true
	}
	// Walk section-aligned addresses inside the (original) zone span from
	// the top; hot-remove prefers the highest movable sections.
	origPages := z.Pages
	maxSections := origPages / sectionPages
	for i := uint64(0); i < maxSections && uint64(len(got)) < want; i++ {
		base := z.Base + PFN(origPages) - PFN((i+1)*sectionPages)
		ok := true
		for b := uint64(0); b < blocksPerSection; b++ {
			if !run[base+PFN(b*PagesPerOrder(MaxOrder))] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for b := uint64(0); b < blocksPerSection; b++ {
			p := base + PFN(b*PagesPerOrder(MaxOrder))
			if !z.free[MaxOrder].remove(p) {
				// Simulated-state violation: a block the offline scan just
				// observed free disappeared from the free list mid-pass.
				invariant.Failf("offline_lost_block", "mem",
					"offline: max-order block %d vanished from zone %d's free list", p, z.ID)
			}
			delete(run, p)
		}
		z.freePages -= sectionPages
		got = append(got, Extent{Base: base, Pages: sectionPages})
	}
	if uint64(len(got)) < want {
		// Roll back.
		for _, e := range got {
			z.freePages += e.Pages
			for b := uint64(0); b < e.Pages; b += PagesPerOrder(MaxOrder) {
				z.free[MaxOrder].push(e.Base + PFN(b))
			}
		}
		return nil, fmt.Errorf("mem: zone %d could not find %d free sections (found %d); memory too fragmented", z.ID, want, len(got))
	}
	// The zone keeps a contiguous managed span: removal is only supported
	// for the topmost sections (always the case at boot, when the whole
	// zone is free — the configuration the paper uses).
	lowest := got[0].Base
	for _, e := range got {
		if e.Base < lowest {
			lowest = e.Base
		}
	}
	if lowest != z.Base+PFN(origPages)-PFN(uint64(len(got))*sectionPages) {
		for _, e := range got {
			z.freePages += e.Pages
			for b := uint64(0); b < e.Pages; b += PagesPerOrder(MaxOrder) {
				z.free[MaxOrder].push(e.Base + PFN(b))
			}
		}
		return nil, fmt.Errorf("mem: zone %d free sections are not contiguous at the top; offline after boot is unsupported", z.ID)
	}
	z.Pages -= uint64(len(got)) * sectionPages
	// Recompute watermarks against the shrunken zone.
	z.WatermarkMin = z.Pages / 256
	z.WatermarkLow = z.Pages / 128
	z.WatermarkHigh = z.Pages / 64
	z.offlined = append(z.offlined, got...)
	return got, nil
}

// CheckInvariants validates the zone's full internal consistency:
// everything CheckAccounting checks, plus that no frame is free twice.
// Aligned buddy blocks either nest or are disjoint, so two free blocks
// share a frame exactly when one block is listed twice at its order or
// an aligned ancestor of a free block is itself free at a higher order.
// The first shows as a list item that does not own its index slot (idx
// can point at only one copy), the second as one membership lookup per
// higher order: at most MaxOrder+1 O(1) probes per free block, no
// allocation. Used by tests and by the opt-in invariant auditor
// (internal/invariant) on its strided deep pass.
func (z *Zone) CheckInvariants() error {
	if err := z.CheckAccounting(); err != nil {
		return err
	}
	for o := 0; o <= MaxOrder; o++ {
		f := z.free[o]
		for i, p := range f.items {
			if f.idx[f.slot(p)] != int32(i+1) {
				return invariant.Errorf("zone_conservation", "mem",
					"zone %d: block %d on the order-%d free list twice", z.ID, p, o)
			}
			for a := o + 1; a <= MaxOrder; a++ {
				if z.free[a].owns(z.ancestorOf(p, a)) {
					return invariant.Errorf("zone_conservation", "mem",
						"zone %d: frame %d on free lists twice (orders %d and %d)", z.ID, p, o, a)
				}
			}
		}
	}
	return nil
}

// CheckAccounting is the cheap part of CheckInvariants: free-page
// conservation (per-order list lengths sum to freePages), block bounds,
// alignment and buddy coalescing (no two buddy blocks sit free at the
// same order below MaxOrder, which FreeBlock's eager coalescing must
// never allow), one pass over the free blocks. The invariant auditor
// runs it at every tick and the full CheckInvariants on a strided deep
// pass.
func (z *Zone) CheckAccounting() error {
	limit := z.Base + PFN(z.Pages) + PFN(offlinedPages(z))
	var total uint64
	for o := 0; o <= MaxOrder; o++ {
		total += uint64(z.free[o].len()) * PagesPerOrder(o)
		for _, p := range z.free[o].items {
			if p < z.Base || p+PFN(PagesPerOrder(o)) > limit {
				return invariant.Errorf("zone_conservation", "mem",
					"zone %d: free block %d order %d outside zone", z.ID, p, o)
			}
			if uint64(p-z.Base)&(PagesPerOrder(o)-1) != 0 {
				return invariant.Errorf("zone_conservation", "mem",
					"zone %d: free block %d misaligned for order %d", z.ID, p, o)
			}
			if o < MaxOrder {
				if buddy := z.buddyOf(p, o); buddy > p && z.free[o].contains(buddy) {
					return invariant.Errorf("zone_coalescing", "mem",
						"zone %d: blocks %d and %d are free buddies at order %d but unmerged",
						z.ID, p, buddy, o)
				}
			}
		}
	}
	if total != z.freePages {
		return invariant.Errorf("zone_conservation", "mem",
			"zone %d: free list total %d != freePages %d", z.ID, total, z.freePages)
	}
	return nil
}

func offlinedPages(z *Zone) uint64 {
	var n uint64
	for _, e := range z.offlined {
		n += e.Pages
	}
	return n
}

package mem

import (
	"fmt"
	"testing"

	"hpmmap/internal/sim"
)

// refCheckInvariants is the map-based zone check CheckInvariants is
// checked against: it records every free frame in a map and reports the
// first one seen twice, then checks the per-order totals and buddy
// coalescing.
func refCheckInvariants(z *Zone) error {
	var total uint64
	seen := make(map[PFN]int)
	for o := 0; o <= MaxOrder; o++ {
		var err error
		z.free[o].each(func(p PFN) {
			if err != nil {
				return
			}
			if p < z.Base || p+PFN(PagesPerOrder(o)) > z.Base+PFN(z.Pages)+PFN(offlinedPages(z)) {
				err = fmt.Errorf("free block %d order %d outside zone", p, o)
				return
			}
			if uint64(p-z.Base)%PagesPerOrder(o) != 0 {
				err = fmt.Errorf("free block %d misaligned for order %d", p, o)
				return
			}
			for i := uint64(0); i < PagesPerOrder(o); i++ {
				if prev, dup := seen[p+PFN(i)]; dup {
					err = fmt.Errorf("frame %d on free lists twice (orders %d and %d)", p+PFN(i), prev, o)
					return
				}
				seen[p+PFN(i)] = o
			}
			total += PagesPerOrder(o)
		})
		if err != nil {
			return err
		}
	}
	if total != z.freePages {
		return fmt.Errorf("free list total %d != freePages %d", total, z.freePages)
	}
	for o := 0; o < MaxOrder; o++ {
		for _, p := range z.free[o].items {
			if buddy := z.buddyOf(p, o); buddy > p && z.free[o].contains(buddy) {
				return fmt.Errorf("blocks %d and %d are free buddies at order %d but unmerged", p, buddy, o)
			}
		}
	}
	return nil
}

// zoneCorruption is a state bug planted in a zone's free lists.
type zoneCorruption int

const (
	corruptNone zoneCorruption = iota
	// A sub-block of an allocated block pushed onto a free list: the
	// frames are now free and allocated, which no free-list check can
	// see, so both checks must pass unless it breaks coalescing.
	corruptAllocatedSubBlock
	// An ancestor of a free block pushed at a higher order.
	corruptAncestor
	// A free block appended again at its order without updating idx.
	corruptDuplicate
	// An idx entry left set at an ancestor slot of a free block, as a
	// split whose pop forgot to clear it would leave: it points past the
	// end of items or at another block's position.
	corruptStaleIdx
	numZoneCorruptions
)

// zoneBlock is an allocated or free block.
type zoneBlock struct {
	p     PFN
	order int
}

// freeBlocks lists every free block of z, lowest order first.
func freeBlocks(z *Zone) []zoneBlock {
	var out []zoneBlock
	for o := 0; o <= MaxOrder; o++ {
		for _, p := range z.free[o].items {
			out = append(out, zoneBlock{p, o})
		}
	}
	return out
}

// pickBelowMaxOrder picks a free block that has ancestors.
func pickBelowMaxOrder(r *sim.Rand, free []zoneBlock) (zoneBlock, bool) {
	var small []zoneBlock
	for _, b := range free {
		if b.order < MaxOrder {
			small = append(small, b)
		}
	}
	if len(small) == 0 {
		return zoneBlock{}, false
	}
	return small[r.Intn(len(small))], true
}

// randomZoneState builds a four-max-block zone at a random aligned base,
// drives random allocations (biased toward small orders) and frees, and
// returns it with the blocks still allocated.
func randomZoneState(r *sim.Rand) (*Zone, []zoneBlock) {
	z := NewZone(0, PFN(uint64(r.Intn(4))*PagesPerOrder(MaxOrder)), 4*PagesPerOrder(MaxOrder))
	var live []zoneBlock
	for op, n := 0, 20+r.Intn(200); op < n; op++ {
		if len(live) == 0 || r.Bool(0.6) {
			order := r.Intn(r.Intn(MaxOrder+1) + 1)
			if p, ok := z.AllocPages(order); ok {
				live = append(live, zoneBlock{p, order})
			}
			continue
		}
		i := r.Intn(len(live))
		z.FreeBlock(live[i].p, live[i].order)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return z, live
}

// plantZoneCorruption applies kind to z, adjusting freePages so the
// per-order totals still balance and only the overlap (if any) shows. It
// returns false when z has no block to plant it on.
func plantZoneCorruption(r *sim.Rand, z *Zone, live []zoneBlock, kind zoneCorruption) bool {
	free := freeBlocks(z)
	switch kind {
	case corruptAllocatedSubBlock:
		if len(live) == 0 {
			return false
		}
		b := live[r.Intn(len(live))]
		o := r.Intn(b.order + 1)
		sub := b.p + PFN(uint64(r.Intn(1<<uint(b.order-o)))*PagesPerOrder(o))
		z.free[o].push(sub)
		z.freePages += PagesPerOrder(o)
	case corruptAncestor:
		b, ok := pickBelowMaxOrder(r, free)
		if !ok {
			return false
		}
		a := b.order + 1 + r.Intn(MaxOrder-b.order)
		z.free[a].push(z.ancestorOf(b.p, a))
		z.freePages += PagesPerOrder(a)
	case corruptDuplicate:
		if len(free) == 0 {
			return false
		}
		b := free[r.Intn(len(free))]
		z.free[b.order].items = append(z.free[b.order].items, b.p)
		z.freePages += PagesPerOrder(b.order)
	case corruptStaleIdx:
		b, ok := pickBelowMaxOrder(r, free)
		if !ok {
			return false
		}
		a := b.order + 1 + r.Intn(MaxOrder-b.order)
		f := z.free[a]
		if f.idx == nil { // never pushed to: allocate the index to plant in
			f.idx = make([]int32, f.slots)
		}
		k := len(f.items) + 1 // a popped last item: past the end of items
		if len(f.items) > 0 && r.Bool(0.5) {
			k = 1 + r.Intn(len(f.items)) // now another block's position
		}
		f.idx[f.slot(z.ancestorOf(b.p, a))] = int32(k)
	}
	return true
}

// TestZoneCheckMatchesReference builds random allocate/free states, plants
// one corruption in about half of them, and requires CheckInvariants and
// the map-based reference to agree on every state. Both must flag every
// planted ancestor and duplicate, and pass every uncorrupted state.
func TestZoneCheckMatchesReference(t *testing.T) {
	r := sim.NewRand(0x2c0e)
	var flagged, planted [numZoneCorruptions]int
	const states = 3000
	for n := 0; n < states; n++ {
		z, live := randomZoneState(r)
		kind := corruptNone
		if r.Bool(0.5) {
			kind = zoneCorruption(1 + r.Intn(int(numZoneCorruptions)-1))
			if !plantZoneCorruption(r, z, live, kind) {
				kind = corruptNone
			}
		}
		planted[kind]++
		err, ref := z.CheckInvariants(), refCheckInvariants(z)
		if (err == nil) != (ref == nil) {
			t.Fatalf("state %d (corruption %d): CheckInvariants = %v; reference = %v", n, kind, err, ref)
		}
		overlap := kind == corruptAncestor || kind == corruptDuplicate
		if overlap && err == nil || kind == corruptNone && err != nil {
			t.Fatalf("state %d (corruption %d): CheckInvariants = %v", n, kind, err)
		}
		if err != nil {
			flagged[kind]++
		}
	}
	t.Logf("%d states; planted per corruption %v, flagged %v", states, planted, flagged)
}

// TestZoneCheckAllocationFree checks that the full zone check allocates
// nothing on a zone with thousands of free blocks.
func TestZoneCheckAllocationFree(t *testing.T) {
	z := newTestZone(t, 16)
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
	if n := z.FreeBlocksAt(0); n < 1000 {
		t.Fatalf("%d free blocks, want at least 1000", n)
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { err = z.CheckInvariants() }); allocs != 0 || err != nil {
		t.Fatalf("CheckInvariants = %v with %v allocations per run, want nil and 0", err, allocs)
	}
}

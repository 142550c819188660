package mem

import "hpmmap/internal/invariant"

// freeList holds the free blocks of a single buddy order. It supports O(1)
// push, O(1) pop (LIFO, which matches the hot-cache preference of real
// allocators), and O(1) removal by address (needed when a buddy is
// absorbed during coalescing). Iteration order is deterministic for a
// deterministic call sequence.
//
// Blocks of one order within one zone are order-aligned frames in the
// zone's span, so each maps to a dense slot (pfn-base)>>order. Membership
// and positions live in a slot-indexed array instead of a map: the fault
// hot path does no hashing (ISSUE 6 — the map[PFN]int representation put
// memhash/mapaccess/mapassign at ~25% of simulator CPU). idx[slot] holds
// position+1 in items, 0 means absent. The array is sized from the zone's
// span on the list's first push and never shrinks: Offline removes only
// topmost sections, so stale high slots simply stay zero. Until then idx
// is nil, which contains, owns and remove read as empty: nothing in the
// simulator allocates below order 3, so the lists of orders 0–2, 7/8 of
// every zone's index, are never pushed to.
type freeList struct {
	items []PFN
	base  PFN
	shift uint
	slots uint64  // len(idx) once allocated
	idx   []int32 // slot -> position+1 in items; 0 = absent; nil until the first push
}

// newFreeList builds the list for one order of a zone spanning pages base
// pages starting at base.
func newFreeList(base PFN, order int, pages uint64) *freeList {
	return &freeList{
		base:  base,
		shift: uint(order),
		slots: pages >> uint(order),
	}
}

func (f *freeList) slot(p PFN) uint64 { return uint64(p-f.base) >> f.shift }

func (f *freeList) len() int { return len(f.items) }

//detsim:hotpath
func (f *freeList) contains(p PFN) bool {
	s := f.slot(p)
	return s < uint64(len(f.idx)) && f.idx[s] != 0
}

// owns reports whether p is on the list with its index slot pointing at
// it. Unlike contains it reads items, so a stale idx entry (a slot left
// set by a buggy removal, possibly past the end of items) is not
// mistaken for a free block.
func (f *freeList) owns(p PFN) bool {
	s := f.slot(p)
	if s >= uint64(len(f.idx)) {
		return false
	}
	k := f.idx[s]
	return k > 0 && int(k) <= len(f.items) && f.items[k-1] == p
}

//detsim:hotpath
func (f *freeList) push(p PFN) {
	if f.idx == nil {
		//detsim:allow lazy index: allocated once, on the list's first push, and kept for the zone's lifetime (DESIGN.md §10)
		f.idx = make([]int32, f.slots)
	}
	s := f.slot(p)
	if f.idx[s] != 0 {
		// Simulated-state violation: the same physical block entered a
		// free list twice (a double free somewhere upstream).
		invariant.Failf("free_list_double_push", "mem",
			"frame %d pushed onto a free list it is already on", p)
	}
	//detsim:allow pooled capacity: items is sized to the region at construction and only refills freed slots; growth beyond the high-water mark is amortised once per region (DESIGN.md §10)
	f.items = append(f.items, p)
	f.idx[s] = int32(len(f.items))
}

// pop removes and returns the most recently freed block.
//
//detsim:hotpath
func (f *freeList) pop() (PFN, bool) {
	n := len(f.items)
	if n == 0 {
		return 0, false
	}
	p := f.items[n-1]
	f.items = f.items[:n-1]
	f.idx[f.slot(p)] = 0
	return p, true
}

// remove deletes a specific block (swap-remove). Reports whether it was
// present.
//
//detsim:hotpath
func (f *freeList) remove(p PFN) bool {
	s := f.slot(p)
	if s >= uint64(len(f.idx)) || f.idx[s] == 0 {
		return false
	}
	i := f.idx[s] - 1
	last := len(f.items) - 1
	moved := f.items[last]
	f.items[i] = moved
	f.idx[f.slot(moved)] = i + 1
	f.items = f.items[:last]
	f.idx[s] = 0 // also correct when moved == p (slot re-written above)
	return true
}

// each calls fn for every free block, in internal (deterministic) order.
func (f *freeList) each(fn func(PFN)) {
	for _, p := range f.items {
		fn(p)
	}
}

// Package buddy implements a binary buddy allocator in the style of the
// Kitten lightweight kernel. HPMMAP uses it to manage memory that has been
// hot-removed (offlined) from Linux: the allocator is seeded with the
// offlined extents and hands out power-of-two blocks, 2MB large pages
// being the fundamental unit of allocation.
package buddy

import (
	"fmt"
	"math/bits"

	"hpmmap/internal/invariant"
)

// Allocator manages one or more physically contiguous regions with a
// binary buddy scheme. The zero value is not usable; call New.
type Allocator struct {
	minShift uint // log2 of the minimum block size
	regions  []*region

	total uint64 // managed bytes
	free  uint64 // free bytes

	// Statistics.
	Allocs, Frees, Splits, Merges, Failures uint64
}

// region is a contiguous managed range [base, base+size).
type region struct {
	base, size uint64
	shift      uint // the allocator's minShift, cached for slot arithmetic
	// free[o] marks which base-relative offsets hold a free block of
	// size minBlock<<o, one bit per slot off>>(shift+o): bit s%64 of
	// word s/64. Offsets (not absolute addresses) keep the buddy XOR
	// arithmetic independent of where the extent sits in physical
	// memory; the dense slot index replaces a map[uint64]struct{} so
	// membership tests do no hashing (DESIGN.md §10), and packing the
	// bits lets CheckInvariants skip 64 clear slots per word.
	free [][]uint64
	// count[o] is the number of free blocks at exactly order o.
	count []int
	// order of the largest block this region can hold.
	maxOrder int
	// stack[o] gives deterministic LIFO pop order per order; stale
	// entries (removed out-of-band by coalescing) are skipped lazily, and
	// that skip order is part of the pinned allocation sequence.
	stack [][]uint64
}

func (r *region) slot(order int, off uint64) uint64 { return off >> (r.shift + uint(order)) }

// slots returns the number of slots at the given order.
func (r *region) slots(order int) uint64 { return r.size >> (r.shift + uint(order)) }

// freeAt reports whether slot s of the given order holds a free block.
func (r *region) freeAt(order int, s uint64) bool { return r.free[order][s/64]>>(s%64)&1 != 0 }

// flip marks a clear slot free or a free slot clear.
func (r *region) flip(order int, s uint64) { r.free[order][s/64] ^= 1 << (s % 64) }

// New returns an allocator whose minimum block size is minBlock (a power
// of two; HPMMAP uses 2MB).
func New(minBlock uint64) *Allocator {
	if minBlock == 0 || minBlock&(minBlock-1) != 0 {
		panic(fmt.Sprintf("buddy: min block %d not a power of two", minBlock))
	}
	return &Allocator{minShift: uint(bits.TrailingZeros64(minBlock))}
}

// MinBlock returns the minimum allocation size.
func (a *Allocator) MinBlock() uint64 { return 1 << a.minShift }

// TotalBytes returns the managed pool size.
func (a *Allocator) TotalBytes() uint64 { return a.total }

// FreeBytes returns the currently free pool size.
func (a *Allocator) FreeBytes() uint64 { return a.free }

// AddRegion donates [base, base+size) to the allocator. base and size must
// be multiples of the minimum block size. Contiguous with an existing
// region or not, the range is managed as its own buddy arena.
func (a *Allocator) AddRegion(base, size uint64) error {
	min := a.MinBlock()
	if size == 0 {
		return nil
	}
	if base%min != 0 || size%min != 0 {
		return fmt.Errorf("buddy: region [%#x,+%#x) not aligned to min block %#x", base, size, min)
	}
	for _, r := range a.regions {
		if base < r.base+r.size && r.base < base+size {
			return fmt.Errorf("buddy: region [%#x,+%#x) overlaps existing [%#x,+%#x)", base, size, r.base, r.size)
		}
	}
	blocks := size >> a.minShift
	maxOrder := bits.Len64(blocks) - 1
	r := &region{base: base, size: size, shift: a.minShift, maxOrder: maxOrder}
	r.free = make([][]uint64, maxOrder+1)
	r.count = make([]int, maxOrder+1)
	r.stack = make([][]uint64, maxOrder+1)
	for o := range r.free {
		r.free[o] = make([]uint64, (r.slots(o)+63)/64)
	}
	// Seed with the greedy aligned decomposition of the range.
	off := uint64(0)
	for off < size {
		o := maxOrder
		for o > 0 {
			bs := min << uint(o)
			if off%bs == 0 && off+bs <= size {
				break
			}
			o--
		}
		r.push(o, off)
		off += min << uint(o)
	}
	a.regions = append(a.regions, r)
	a.total += size
	a.free += size
	return nil
}

//detsim:hotpath
func (r *region) push(order int, off uint64) {
	s := r.slot(order, off)
	if r.freeAt(order, s) {
		// Simulated-state violation: a block entered the free pool twice
		// (double free in the HPMMAP path).
		invariant.Failf("pool_double_push", "buddy",
			"offset %#x order %d pushed onto the free pool it is already on", off, order)
	}
	r.flip(order, s)
	r.count[order]++
	//detsim:allow pooled capacity: the per-order free stack refills capacity released by pop; growth is bounded by region size and amortised (DESIGN.md §10)
	r.stack[order] = append(r.stack[order], off)
}

// pop returns a free block of exactly the given order.
//
//detsim:hotpath
func (r *region) pop(order int) (uint64, bool) {
	s := r.stack[order]
	// The stack may contain offsets that were removed out-of-band during
	// coalescing; skip them lazily.
	for len(s) > 0 {
		off := s[len(s)-1]
		s = s[:len(s)-1]
		if slot := r.slot(order, off); r.freeAt(order, slot) {
			r.stack[order] = s
			r.flip(order, slot)
			r.count[order]--
			return off, true
		}
	}
	r.stack[order] = s
	return 0, false
}

// take removes a specific free block, returning false if absent.
//
//detsim:hotpath
func (r *region) take(order int, off uint64) bool {
	s := r.slot(order, off)
	if !r.freeAt(order, s) {
		return false
	}
	r.flip(order, s)
	r.count[order]--
	return true
}

// orderFor returns the smallest order whose block size fits size bytes.
func (a *Allocator) orderFor(size uint64) int {
	min := a.MinBlock()
	o := 0
	for min<<uint(o) < size {
		o++
	}
	return o
}

// BlockSize returns the actual allocation size for a request of size
// bytes: the request rounded up to the next power-of-two multiple of the
// minimum block.
func (a *Allocator) BlockSize(size uint64) uint64 {
	return a.MinBlock() << uint(a.orderFor(size))
}

// Alloc returns the physical base address of a free block of at least size
// bytes (rounded up to a power-of-two block). The second result is the
// actual block size.
//
//detsim:hotpath
func (a *Allocator) Alloc(size uint64) (uint64, uint64, error) {
	if size == 0 {
		return 0, 0, fmt.Errorf("buddy: Alloc(0)")
	}
	want := a.orderFor(size)
	for _, r := range a.regions {
		if want > r.maxOrder {
			continue
		}
		for o := want; o <= r.maxOrder; o++ {
			off, ok := r.pop(o)
			if !ok {
				continue
			}
			for o > want {
				o--
				a.Splits++
				r.push(o, off+(a.MinBlock()<<uint(o)))
			}
			bs := a.MinBlock() << uint(want)
			a.free -= bs
			a.Allocs++
			return r.base + off, bs, nil
		}
	}
	a.Failures++
	return 0, 0, fmt.Errorf("buddy: out of memory for %d-byte block (free %d)", a.BlockSize(size), a.free)
}

// Free returns a block previously obtained from Alloc. size must be the
// block size Alloc returned.
//
//detsim:hotpath
func (a *Allocator) Free(addr, size uint64) {
	r := a.regionOf(addr)
	if r == nil {
		// Simulated-state violations, all three: the address/size pair
		// being freed cannot be a block this allocator handed out —
		// HPMMAP's bookkeeping diverged from the pool.
		invariant.Failf("free_outside_regions", "buddy",
			"Free(%#x, %#x): address belongs to no managed region", addr, size)
	}
	order := a.orderFor(size)
	if a.MinBlock()<<uint(order) != size {
		invariant.Failf("free_bad_size", "buddy",
			"Free(%#x, %#x): size is not a power-of-two block size (min block %#x)",
			addr, size, a.MinBlock())
	}
	off := addr - r.base
	if off%size != 0 {
		invariant.Failf("free_misaligned", "buddy",
			"Free(%#x) misaligned for size %#x within region [%#x,+%#x)",
			addr, size, r.base, r.size)
	}
	a.Frees++
	a.free += size
	for order < r.maxOrder {
		bs := a.MinBlock() << uint(order)
		buddy := off ^ bs
		if buddy+bs > r.size || !r.take(order, buddy) {
			break
		}
		a.Merges++
		if buddy < off {
			off = buddy
		}
		order++
	}
	r.push(order, off)
}

func (a *Allocator) regionOf(addr uint64) *region {
	for _, r := range a.regions {
		if addr >= r.base && addr < r.base+r.size {
			return r
		}
	}
	return nil
}

// LargestFreeBlock returns the size of the largest currently free block.
func (a *Allocator) LargestFreeBlock() uint64 {
	var best uint64
	for _, r := range a.regions {
		for o := r.maxOrder; o >= 0; o-- {
			if r.count[o] > 0 {
				if bs := a.MinBlock() << uint(o); bs > best {
					best = bs
				}
				break
			}
		}
	}
	return best
}

// CheckInvariants validates the allocator's internal consistency: each
// order's count matches its free bits, the free bytes match the bits,
// and no unit is free twice. Aligned buddy blocks either nest or are
// disjoint, so a unit is free twice exactly when an aligned ancestor of
// a free block is itself free: one bit lookup per higher order, with no
// allocation. Set bits are visited in ascending slot order, a word at a
// time, so clear words cost one test. Exported for tests and the
// invariant auditor.
func (a *Allocator) CheckInvariants() error {
	var free uint64
	for _, r := range a.regions {
		for o := 0; o <= r.maxOrder; o++ {
			n := 0
			for w, word := range r.free[o] {
				for ; word != 0; word &= word - 1 {
					slot := uint64(w)*64 + uint64(bits.TrailingZeros64(word))
					n++
					free += a.MinBlock() << uint(o)
					for up := o + 1; up <= r.maxOrder; up++ {
						// A region whose size is not a power of two has no
						// slot at high orders for its tail blocks.
						if s := slot >> uint(up-o); s < r.slots(up) && r.freeAt(up, s) {
							return fmt.Errorf("buddy: unit %#x free twice (orders %d, %d)",
								slot<<(r.shift+uint(o)), o, up)
						}
					}
				}
			}
			if n != r.count[o] {
				return fmt.Errorf("buddy: order %d count %d != set bits %d", o, r.count[o], n)
			}
		}
	}
	if free != a.free {
		return fmt.Errorf("buddy: free accounting %d != lists %d", a.free, free)
	}
	return nil
}

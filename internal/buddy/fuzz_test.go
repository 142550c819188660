package buddy

import (
	"testing"

	"hpmmap/internal/sim"
)

// refRegion is one region of the reference allocator: a set of free
// offsets per order, and per order a LIFO stack of pushed offsets from
// which pops skip, lazily, those no longer in the set.
type refRegion struct {
	base, size uint64
	maxOrder   int
	free       []map[uint64]bool
	stack      [][]uint64
}

// refAllocator is the textbook split/coalesce buddy allocator the pool is
// checked against, with maps for membership.
type refAllocator struct {
	min     uint64
	regions []*refRegion
	free    uint64

	allocs, frees, splits, merges, failures uint64
}

func (r *refRegion) push(order int, off uint64) {
	r.free[order][off] = true
	r.stack[order] = append(r.stack[order], off)
}

func (r *refRegion) pop(order int) (uint64, bool) {
	for len(r.stack[order]) > 0 {
		off := r.stack[order][len(r.stack[order])-1]
		r.stack[order] = r.stack[order][:len(r.stack[order])-1]
		if r.free[order][off] {
			delete(r.free[order], off)
			return off, true
		}
	}
	return 0, false
}

// addRegion seeds a region with the largest aligned blocks that fit,
// lowest offset first.
func (a *refAllocator) addRegion(base, size uint64) {
	r := &refRegion{base: base, size: size}
	for a.min<<uint(r.maxOrder+1) <= size {
		r.maxOrder++
	}
	for o := 0; o <= r.maxOrder; o++ {
		r.free = append(r.free, map[uint64]bool{})
		r.stack = append(r.stack, nil)
	}
	for off := uint64(0); off < size; {
		o := r.maxOrder
		for bs := a.min << uint(o); o > 0 && (off%bs != 0 || off+bs > size); bs = a.min << uint(o) {
			o--
		}
		r.push(o, off)
		off += a.min << uint(o)
	}
	a.regions = append(a.regions, r)
	a.free += size
}

func (a *refAllocator) alloc(size uint64) (uint64, uint64, bool) {
	want := 0
	for a.min<<uint(want) < size {
		want++
	}
	for _, r := range a.regions {
		for o := want; o <= r.maxOrder; o++ {
			off, ok := r.pop(o)
			if !ok {
				continue
			}
			for ; o > want; o-- {
				a.splits++
				r.push(o-1, off+a.min<<uint(o-1))
			}
			a.allocs++
			a.free -= a.min << uint(want)
			return r.base + off, a.min << uint(want), true
		}
	}
	a.failures++
	return 0, 0, false
}

func (a *refAllocator) release(addr, size uint64) {
	for _, r := range a.regions {
		if addr < r.base || addr >= r.base+r.size {
			continue
		}
		order := 0
		for a.min<<uint(order) < size {
			order++
		}
		a.frees++
		a.free += size
		off := addr - r.base
		for ; order < r.maxOrder; order++ {
			bs := a.min << uint(order)
			buddy := off ^ bs
			if buddy+bs > r.size || !r.free[order][buddy] {
				break
			}
			delete(r.free[order], buddy)
			a.merges++
			off = min(off, buddy)
		}
		r.push(order, off)
		return
	}
}

func (a *refAllocator) largestFreeBlock() uint64 {
	var best uint64
	for _, r := range a.regions {
		for o := r.maxOrder; o >= 0; o-- {
			if len(r.free[o]) > 0 {
				best = max(best, a.min<<uint(o))
				break
			}
		}
	}
	return best
}

// checkAllocator decodes data into a pool of one or two regions and a
// stream of allocations and frees, applies them to the pool and to the
// reference, and fails unless, after every step, both hand out the same
// block (or both fail), and agree on FreeBytes, LargestFreeBlock and the
// five counters, and CheckInvariants passes. Byte 0 picks one or two
// regions, bytes 1 and 2 their sizes in minimum blocks (1 to 128, most
// not a power of two); then each step is two bytes: an allocation of
// 1 to 64 blocks' worth of bytes (a size that is not a block multiple
// one time in four), or a free of one live block.
func checkAllocator(t *testing.T, data []byte) {
	const minBlock, maxSteps = 2 * mb, 512
	if len(data) < 3 {
		return
	}
	a, ref := New(minBlock), &refAllocator{min: minBlock}
	base := uint64(1 << 32)
	for i := 0; i <= int(data[0]%2); i++ {
		size := (1 + uint64(data[1+i]%128)) * minBlock
		if err := a.AddRegion(base, size); err != nil {
			t.Fatal(err)
		}
		ref.addRegion(base, size)
		base += size + uint64(1+data[0]>>4)*minBlock
	}
	type block struct{ addr, size uint64 }
	var live []block
	data = data[3:]
	for step := 0; len(data) >= 2 && step < maxSteps; step++ {
		op, arg := data[0], data[1]
		data = data[2:]
		if op%3 != 0 || len(live) == 0 {
			size := uint64(1+arg%64) * minBlock
			if op&0x30 == 0x30 {
				size -= minBlock / 2
			}
			addr, got, err := a.Alloc(size)
			wantAddr, want, ok := ref.alloc(size)
			if (err == nil) != ok || addr != wantAddr || got != want {
				t.Fatalf("step %d: Alloc(%#x) = %#x, %#x, %v; reference %#x, %#x, %v", step, size, addr, got, err, wantAddr, want, ok)
			}
			if ok {
				live = append(live, block{addr, got})
			}
		} else {
			i := int(arg) % len(live)
			a.Free(live[i].addr, live[i].size)
			ref.release(live[i].addr, live[i].size)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		got := [...]uint64{a.FreeBytes(), a.LargestFreeBlock(), a.Allocs, a.Frees, a.Splits, a.Merges, a.Failures}
		want := [...]uint64{ref.free, ref.largestFreeBlock(), ref.allocs, ref.frees, ref.splits, ref.merges, ref.failures}
		if got != want {
			t.Fatalf("step %d: free bytes, largest block, allocs, frees, splits, merges, failures = %v; reference %v", step, got, want)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// FuzzAllocator differentially checks the pool against the map-based
// reference allocator above: the same blocks in the same order, which
// pins the lazy-deletion stacks' pop order as well as the free sets. The
// seed corpus replays in plain `go test`; `make fuzz` explores further.
func FuzzAllocator(f *testing.F) {
	// One 7-block region: allocate four single blocks, free the first
	// and third, which cannot coalesce, then allocate two more, which
	// the order-0 stack hands out last freed first.
	f.Add([]byte{0, 6, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 2, 1, 0, 1, 0})
	// Two regions of 5 and 24 blocks: mixed orders until the first is
	// exhausted, frees that coalesce across orders, refills.
	f.Add([]byte{1, 4, 23, 1, 1, 1, 3, 1, 0, 2, 7, 0, 0, 0, 1, 1, 2, 2, 1, 0, 5, 3, 1, 1, 0, 4, 0, 2, 1, 15, 0, 0})
	f.Fuzz(checkAllocator)
}

// TestAllocatorMatchesReference runs the fuzz check over random operation
// streams, so plain `go test` covers more than the corpus.
func TestAllocatorMatchesReference(t *testing.T) {
	r := sim.NewRand(0xb0d1)
	data := make([]byte, 3+2*512)
	for seed := 0; seed < 200; seed++ {
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkAllocator(t, data)
	}
}

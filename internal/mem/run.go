package mem

import "math/bits"

// Run is an ascending run of physically contiguous blocks of one order:
// Blocks blocks, the i-th starting at Base + i·2^order. The order is the
// caller's; a Run does not record it.
type Run struct {
	Base   PFN
	Blocks uint64
}

// End returns the first frame past a run of blocks of the given order.
func (r Run) End(order int) PFN { return r.Base + PFN(r.Blocks<<uint(order)) }

// AllocRun makes up to n allocations of 2^order pages, each only while the
// zone has at least reserve free pages, and appends the blocks to dst as
// ascending runs of contiguous blocks; it returns dst and the number of
// blocks allocated. The blocks, their order, and the zone's state after —
// every free list item for item, free pages, and the Allocs, Splits and
// Failures counters — are exactly those of calling AllocPages once per
// block while the gate holds, stopping at the first refused gate or
// failed search (which, as there, counts one Failure). Runs are merged
// only within one call, so a run never spans two calls' blocks.
//
//detsim:hotpath
func (z *Zone) AllocRun(order int, n, reserve uint64, dst []Run) ([]Run, uint64) {
	start := len(dst)
	var got uint64
	for got < n && z.freePages >= reserve {
		// The gate is checked before each allocation and each takes
		// 2^order pages, so it admits this many more.
		admitted := (z.freePages-reserve)>>uint(order) + 1
		p, k, ok := z.take(order, min(n-got, admitted))
		if !ok {
			break
		}
		got += k
		if last := len(dst) - 1; last >= start && dst[last].End(order) == p {
			dst[last].Blocks += k
		} else {
			dst = append(dst, Run{Base: p, Blocks: k})
		}
	}
	return dst, got
}

// FreeRun frees an ascending run of blocks contiguous blocks of 2^order
// pages starting at base, leaving exactly the state of FreeBlock called
// on each block in ascending order. It cuts the run into maximal aligned
// pieces and frees each piece with one FreeBlock, ascending. Inside an
// aligned piece every block's buddy lies in the piece, and each block
// pushed while the piece is freed comes off its list's tail before
// anything else touches that list, so the lists below the piece's order
// come back unchanged and the last block's climb is exactly the piece's.
// Each piece of 2^(o-order) blocks is credited the 2^(o-order) - 1 frees
// and merges its blocks make among themselves.
//
//detsim:hotpath
func (z *Zone) FreeRun(base PFN, blocks uint64, order int) {
	p := base
	for blocks > 0 {
		// The largest piece aligned at p that fits in what is left; an
		// address misaligned for order yields a piece FreeBlock rejects.
		o := min(bits.TrailingZeros64(uint64(p-z.Base)|1<<MaxOrder), order+bits.Len64(blocks)-1)
		o = max(o, order)
		z.FreeBlock(p, o)
		k := uint64(1) << uint(o-order)
		z.Frees += k - 1
		z.Merges += k - 1
		p += PFN(k << uint(order))
		blocks -= k
	}
}

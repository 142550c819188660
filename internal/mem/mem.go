// Package mem models the physical memory of a compute node: page frames,
// NUMA zones managed by a Linux-style order-based buddy allocator,
// allocation watermarks, fragmentation measurement, and the memory
// hot-remove ("offlining") capability HPMMAP builds on.
//
// Everything here is deterministic: the same sequence of calls produces the
// same placements, which keeps whole-system simulations reproducible.
package mem

// Fundamental page geometry (x86-64).
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4KB base page

	LargePageShift = 21
	LargePageSize  = 1 << LargePageShift // 2MB large page

	HugePageShift = 30
	HugePageSize  = 1 << HugePageShift // 1GB huge page

	// SectionSize is the granularity of memory hotplug (hot-remove), as on
	// Linux x86-64: 128MB. The paper relies on offlined memory arriving in
	// blocks "no less than 128MB".
	SectionSize = 128 << 20

	// MaxOrder is the largest buddy order (inclusive), as in Linux:
	// order 11 = 2^11 pages = 8MB blocks.
	MaxOrder = 11

	// LargePageOrder is the buddy order of one 2MB page.
	LargePageOrder = LargePageShift - PageShift // 9
)

// PFN is a page frame number: physical address >> PageShift.
type PFN uint64

// Addr returns the physical byte address of the frame.
func (p PFN) Addr() uint64 { return uint64(p) << PageShift }

// PagesPerOrder returns the number of base pages in a block of the given
// order.
func PagesPerOrder(order int) uint64 { return 1 << uint(order) }

// BytesPerOrder returns the byte size of a block of the given order.
func BytesPerOrder(order int) uint64 { return PageSize << uint(order) }

// Package linuxmm implements the commodity Linux memory-management model:
// purely demand-paged allocation, with large pages provided either by
// Transparent Huge Pages (fault-path 2MB allocation plus khugepaged
// merging) or by HugeTLBfs (preallocated pools via a libhugetlbfs-style
// heap), per the paper's Section II. Every physical page a process
// touches is really allocated from the simulated zoned buddy allocator,
// so memory pressure, fragmentation and reclaim emerge from actual state
// rather than scripted schedules.
package linuxmm

import (
	"fmt"
	"slices"
	"sort"

	"hpmmap/internal/fault"
	"hpmmap/internal/hugetlb"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// Mode selects the large-page policy applied to a process.
type Mode int

// Modes.
const (
	// Mode4KOnly: no large pages at all (the commodity side of the
	// paper's HugeTLBfs configuration).
	Mode4KOnly Mode = iota
	// ModeTHP: transparent huge pages with khugepaged.
	ModeTHP
	// ModeHugeTLB: libhugetlbfs-style hugetlb-backed heap and data;
	// stacks and file maps stay 4KB.
	ModeHugeTLB
)

func (m Mode) String() string {
	switch m {
	case Mode4KOnly:
		return "4k"
	case ModeTHP:
		return "thp"
	case ModeHugeTLB:
		return "hugetlbfs"
	}
	return "?"
}

// smallBatchOrder is the buddy order used to back 4KB-mapped process
// memory in batches (order 3 = 32KB), matching the page-cache granularity
// so commodity churn fragments the pool realistically without per-frame
// bookkeeping cost.
const smallBatchOrder = 3

// HugeTLBMmapThreshold is the minimum anonymous mapping size that
// libhugetlbfs redirects to hugetlbfs.
const HugeTLBMmapThreshold = 8 << 20

// Manager is the Linux memory manager. One instance serves every process
// on a node; the per-process large-page policy is fixed at Attach time:
// HPC processes get HPCMode, commodity processes CommodityMode.
type Manager struct {
	node *kernel.Node
	rand *sim.Rand

	// HPCMode / CommodityMode select policy by Process.Commodity.
	HPCMode       Mode
	CommodityMode Mode

	// Pools backs ModeHugeTLB processes; nil otherwise.
	Pools *hugetlb.Pools

	// THPFallbackBase is the probability that a THP fault falls back to
	// small pages even when a 2MB block is available (alignment and
	// accounting constraints; produces the paper's unloaded merge
	// activity).
	THPFallbackBase float64
	// THPFragSensitivity scales the extra fallback probability induced by
	// concurrent commodity allocation churn fragmenting the free lists
	// faster than the buddy's coarse block model expresses.
	THPFragSensitivity float64

	// procs tracks attached processes in attach order (deterministic
	// khugepaged scans); scanCursor rotates over them.
	procs      []*kernel.Process
	scanCursor int

	// tc is the scratch touch context reused across TouchRange calls
	// (the manager is single-threaded per node; TouchRange does not
	// reenter), and regionPool recycles munmapped region structs so
	// churn-heavy workloads reuse the backing-slice capacity of
	// largeFrames/smallBlocks/fallback instead of reallocating them
	// every mmap cycle (ISSUE 6 hot-path contract).
	tc         touchCtx
	regionPool []*region
	// psPool recycles per-process state for the kernel's lifecycle fast
	// path (DetachReap): the regions slice keeps its capacity across
	// pod/compile churn.
	psPool []*procState

	// touchDetail is touchSmall's micro-fidelity path:
	// (*Manager).touchSmallDetail, or in tests the per-page loop it is
	// checked against.
	touchDetail func(m *Manager, tc *touchCtx, kind fault.Kind, va pgtable.VirtAddr, pages uint64)

	// Scratch buffers for gatedAllocRun (one zone's AllocRun runs, block
	// PFNs and per-zone run segments), reused across calls.
	runs    []mem.Run
	runPFNs []mem.PFN
	runSegs []allocSeg

	// Statistics.
	LargeFaults, SmallFaults, FallbackFaults uint64
	Compactions, ReclaimStorms               uint64
	StormsHPC                                uint64
	SplitOnMlock                             uint64
	SwappedOutPages                          uint64
	// Hot-path efficiency tallies (ISSUE 6): batched gated allocation
	// passes, the blocks they returned, and region structs served from
	// the recycling pool instead of fresh allocation.
	GatedAllocRuns   uint64
	GatedAllocBlocks uint64
	RegionPoolReuses uint64
}

// New creates the manager. pools may be nil when no mode uses HugeTLBfs.
func New(node *kernel.Node, hpcMode, commodityMode Mode, pools *hugetlb.Pools) *Manager {
	if (hpcMode == ModeHugeTLB || commodityMode == ModeHugeTLB) && pools == nil {
		// Programmer error (API misuse): the caller selected HugeTLB mode
		// without reserving pools via hugetlb.Reserve first.
		panic("linuxmm: New with HugeTLB mode requires non-nil hugetlb pools (call hugetlb.Reserve at boot)")
	}
	return &Manager{
		node:               node,
		rand:               node.Rand().Split(),
		HPCMode:            hpcMode,
		CommodityMode:      commodityMode,
		Pools:              pools,
		THPFallbackBase:    0.025,
		THPFragSensitivity: 0.55,
		touchDetail:        (*Manager).touchSmallDetail,
	}
}

// Name implements kernel.MemoryManager.
func (m *Manager) Name() string {
	return fmt.Sprintf("linux(hpc=%s,commodity=%s)", m.HPCMode, m.CommodityMode)
}

// modeFor returns the large-page policy of a process.
func (m *Manager) modeFor(p *kernel.Process) Mode {
	if p.Commodity {
		return m.CommodityMode
	}
	return m.HPCMode
}

// region is the manager's view of one mapped range. Demand paging
// materializes it lazily as the process touches it.
type region struct {
	start  pgtable.VirtAddr
	length uint64
	prot   pgtable.Prot
	kind   vma.Kind

	// touched is the materialized prefix in bytes (first-touch order).
	touched uint64

	// THP: the interior span [largeLo, largeHi) is 2MB-alignable.
	largeLo, largeHi uint64 // offsets from start

	// hugetlb marks a pool-backed region (ModeHugeTLB anon/heap).
	hugetlb bool
	// slabs already materialized (hugetlb only).
	slabs uint64

	// fallback lists chunk offsets where a THP fault fell back to small
	// pages — khugepaged's merge candidates.
	fallback []uint64

	// heapStyle marks a brk-grown region under THP: it is extended in
	// small increments, so the VMA tail never covers a whole 2MB chunk at
	// fault time and every fault is served small (glibc heap behaviour on
	// real THP systems). Fully-touched chunks become merge candidates.
	heapStyle bool
	// heapChunks counts the full 2MB span chunks already queued for
	// merging.
	heapChunks uint64

	// Backing frames, for teardown.
	largeFrames []largeFrame
	smallBlocks []smallBlock
	// Residency accounting mirrors what we added to the process counters.
	smallBytes, largeBytes uint64
	remoteBytes            uint64

	// cow marks the prefix [0, cow) as copy-on-write: the frames belong
	// to the fork parent until this process writes them.
	cow uint64

	// swappedPages counts base pages of this region paged out to the
	// swap device; the slots are released at teardown.
	swappedPages uint64

	// down marks a region whose touch order is descending (the stack).
	down bool
}

type largeFrame struct {
	pfn  mem.PFN
	zone int
	pool bool // from the hugetlb pool rather than the buddy
}

// smallBlock is one buddy block backing 4KB-mapped memory.
type smallBlock struct {
	pfn   mem.PFN
	order int
}

// procState is the manager's per-process state.
type procState struct {
	mode Mode
	// regions is sorted by start. Starts are unique: Mmap places each
	// region with vma.FindUnmapped, outside every mapping, the stack
	// lies above the mmap area and the heap starts at its bottom.
	regions []*region
	stack   *region
	heap    *region
	// mergeCursor remembers where khugepaged last worked in this process.
	mergeCursor int
}

// search returns the position of the first region starting at or
// above va.
func (ps *procState) search(va pgtable.VirtAddr) int {
	return sort.Search(len(ps.regions), func(i int) bool { return ps.regions[i].start >= va })
}

func (ps *procState) insert(r *region) {
	ps.regions = slices.Insert(ps.regions, ps.search(r.start), r)
}

// findRegion returns the region containing va, or nil.
func (ps *procState) findRegion(va pgtable.VirtAddr) *region {
	i := sort.Search(len(ps.regions), func(i int) bool { return ps.regions[i].start > va })
	if i == 0 {
		return nil
	}
	r := ps.regions[i-1]
	if va < r.start+pgtable.VirtAddr(r.length) {
		return r
	}
	return nil
}

func state(p *kernel.Process) *procState { return p.MMState().(*procState) }

// newRegion returns a region struct from the recycle pool (keeping its
// slice capacity) or a fresh one.
func (m *Manager) newRegion() *region {
	if n := len(m.regionPool); n > 0 {
		r := m.regionPool[n-1]
		m.regionPool = m.regionPool[:n-1]
		lf, sb, fb := r.largeFrames[:0], r.smallBlocks[:0], r.fallback[:0]
		*r = region{largeFrames: lf, smallBlocks: sb, fallback: fb}
		m.RegionPoolReuses++
		return r
	}
	return &region{}
}

// newProcState returns per-process state from the recycle pool (keeping
// its slice capacity) or a fresh struct.
func (m *Manager) newProcState() *procState {
	if n := len(m.psPool); n > 0 {
		ps := m.psPool[n-1]
		m.psPool[n-1] = nil
		m.psPool = m.psPool[:n-1]
		return ps
	}
	return &procState{}
}

// Attach implements kernel.MemoryManager.
func (m *Manager) Attach(p *kernel.Process) error {
	ps := m.newProcState()
	ps.mode = m.modeFor(p)
	// The stack region: fixed ceiling, grows down, always 4KB pages
	// (HugeTLBfs cannot map stacks; THP does not back stacks either).
	layout := p.Space.Layout()
	stack := m.newRegion()
	stack.start = layout.StackTop - pgtable.VirtAddr(layout.StackMax)
	stack.length = layout.StackMax
	stack.prot = pgtable.ProtRead | pgtable.ProtWrite
	stack.kind = vma.KindStack
	stack.down = true
	ps.stack = stack
	ps.insert(ps.stack)
	p.SetMMState(ps)
	m.procs = append(m.procs, p)
	return nil
}

// Detach implements kernel.MemoryManager: frees every frame the process
// holds.
func (m *Manager) Detach(p *kernel.Process) {
	ps := state(p)
	for _, r := range ps.regions {
		m.releaseRegion(p, r)
	}
	clear(ps.regions)
	ps.regions = ps.regions[:0]
	for i, q := range m.procs {
		if q == p {
			m.procs = append(m.procs[:i], m.procs[i+1:]...)
			break
		}
	}
}

// DetachReap implements kernel.ReapDetacher: same teardown as Detach —
// frames freed region by region in ascending start order, so the buddy
// free lists end in the identical state — but the region structs and the
// per-process state are recycled rather than dropped, and MMState is
// cleared so a stale post-exit call fails loudly instead of reading
// recycled state.
func (m *Manager) DetachReap(p *kernel.Process) {
	ps := state(p)
	for _, r := range ps.regions {
		m.releaseRegion(p, r)
		m.regionPool = append(m.regionPool, r)
	}
	clear(ps.regions)
	ps.regions = ps.regions[:0]
	ps.stack, ps.heap = nil, nil
	ps.mergeCursor = 0
	ps.mode = 0
	m.psPool = append(m.psPool, ps)
	p.SetMMState(nil)
	for i, q := range m.procs {
		if q == p {
			m.procs = append(m.procs[:i], m.procs[i+1:]...)
			break
		}
	}
}

// releaseRegion frees the region's frames and page-table entries.
func (m *Manager) releaseRegion(p *kernel.Process, r *region) {
	for _, lf := range r.largeFrames {
		if lf.pool {
			m.Pools.Free2M(lf.pfn, lf.zone)
		} else {
			m.node.Mem.Free(lf.pfn, mem.LargePageOrder)
		}
	}
	for _, b := range r.smallBlocks {
		m.node.Mem.Free(b.pfn, b.order)
	}
	p.ResidentSmall -= r.smallBytes
	p.ResidentLarge -= r.largeBytes
	p.ResidentRemote -= r.remoteBytes
	if r.swappedPages > 0 {
		m.node.Swap().Release(r.swappedPages)
		r.swappedPages = 0
	}
	if m.node.Detail {
		p.PT.UnmapRange(r.start, r.length)
	}
	r.largeFrames = r.largeFrames[:0]
	r.smallBlocks = r.smallBlocks[:0]
	r.smallBytes, r.largeBytes, r.remoteBytes = 0, 0, 0
	r.touched = 0
	r.slabs = 0
}

// Mmap implements kernel.MemoryManager: reserve address space, allocate
// nothing — Linux's demand-paged policy. Cost is VMA bookkeeping only.
func (m *Manager) Mmap(p *kernel.Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error) {
	ps := state(p)
	align := uint64(0)
	vkind := kind
	// libhugetlbfs backs the heap and large mappings; small anonymous
	// mmaps (MPI bounce buffers, loader scratch) stay on 4KB pages.
	useHugetlb := ps.mode == ModeHugeTLB &&
		(kind == vma.KindHeap || (kind == vma.KindAnon && length >= HugeTLBMmapThreshold))
	if useHugetlb {
		align = mem.LargePageSize
		length = roundUp(length, mem.LargePageSize)
		vkind = vma.KindHugeTLB
	}
	// Resolve placement first: the VMA layer may merge the new mapping
	// into a neighbour, but the manager's region identity is the address
	// mmap returns to userspace.
	searchAlign := align
	if searchAlign == 0 {
		searchAlign = mem.PageSize
	}
	addr, err := p.Space.FindUnmapped(roundUp(length, mem.PageSize), searchAlign)
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.Space.MapAligned(addr, length, prot, vkind, align); err != nil {
		return 0, 0, err
	}
	r := m.newRegion()
	r.start, r.length, r.prot, r.kind, r.hugetlb = addr, roundUp(length, mem.PageSize), prot, kind, useHugetlb
	m.computeLargeSpan(ps, r)
	ps.insert(r)
	// A VMA insert walks the rbtree and possibly merges: small cost.
	return addr, sim.Cycles(m.rand.Jitter(1200, 0.3)), nil
}

// computeLargeSpan records the THP-eligible interior of the region.
func (m *Manager) computeLargeSpan(ps *procState, r *region) {
	if ps.mode != ModeTHP || r.kind == vma.KindStack || r.kind == vma.KindFile {
		r.largeLo, r.largeHi = 0, 0
		return
	}
	lo := roundUp(uint64(r.start), mem.LargePageSize) - uint64(r.start)
	hi := (uint64(r.start)+r.length)/mem.LargePageSize*mem.LargePageSize - uint64(r.start)
	if hi <= lo {
		r.largeLo, r.largeHi = 0, 0
		return
	}
	r.largeLo, r.largeHi = lo, hi
}

// Munmap implements kernel.MemoryManager. Only whole-region unmaps are
// supported (HPC allocators release whole arenas; partial unmap of a
// demand-paged region is not exercised by the paper's workloads).
func (m *Manager) Munmap(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	ps := state(p)
	i := ps.search(addr)
	var r *region
	if i < len(ps.regions) && ps.regions[i].start == addr {
		r = ps.regions[i]
	}
	lengthOK := func() bool {
		// munmap of zero bytes is EINVAL, even on a heap left empty.
		if r == nil || length == 0 {
			return false
		}
		if r.length == roundUp(length, mem.PageSize) {
			return true
		}
		// hugetlb-backed regions were rounded up to 2MB at mmap time;
		// munmap with the original length still unmaps the region.
		return r.hugetlb && r.length == roundUp(length, mem.LargePageSize)
	}
	if !lengthOK() {
		got := uint64(0)
		if r != nil {
			got = r.length
		}
		return 0, fmt.Errorf("linuxmm: munmap %#x+%#x (pid %d) does not match a mapped region (have %#x)", uint64(addr), length, p.PID, got)
	}
	length = r.length
	pages := r.smallBytes/mem.PageSize + r.largeBytes/mem.LargePageSize
	m.releaseRegion(p, r)
	ps.regions = slices.Delete(ps.regions, i, i+1)
	if r != ps.heap && r != ps.stack {
		m.regionPool = append(m.regionPool, r)
	}
	if err := p.Space.Unmap(addr, length); err != nil {
		return 0, err
	}
	// Teardown walks every PTE: cost scales with resident pages.
	return sim.Cycles(m.rand.Jitter(sim.Cycles(800+30*pages), 0.2)), nil
}

// Brk implements kernel.MemoryManager.
func (m *Manager) Brk(p *kernel.Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error) {
	ps := state(p)
	cur := p.Space.Brk()
	if newBrk == 0 {
		return cur, sim.Cycles(m.rand.Jitter(600, 0.2)), nil
	}
	got, err := p.Space.SetBrk(newBrk)
	if err != nil {
		return cur, 0, err
	}
	start := p.Space.Layout().BrkStart
	if ps.heap == nil {
		ps.heap = &region{
			start:     start,
			prot:      pgtable.ProtRead | pgtable.ProtWrite,
			kind:      vma.KindHeap,
			hugetlb:   ps.mode == ModeHugeTLB,
			heapStyle: ps.mode == ModeTHP,
		}
		ps.insert(ps.heap)
		m.computeLargeSpan(ps, ps.heap)
	}
	newLen := uint64(got - start)
	if newLen < ps.heap.touched {
		// Shrink below the materialized prefix: release and re-demand.
		// (Rare; the workloads grow monotonically.)
		ps.heap.touched = newLen
	}
	ps.heap.length = roundUp(newLen, mem.PageSize)
	m.computeLargeSpan(ps, ps.heap)
	return got, sim.Cycles(m.rand.Jitter(900, 0.2)), nil
}

// Mprotect implements kernel.MemoryManager.
func (m *Manager) Mprotect(p *kernel.Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error) {
	if err := p.Space.Protect(addr, length, prot); err != nil {
		return 0, err
	}
	ps := state(p)
	if r := ps.findRegion(addr); r != nil {
		r.prot = prot
		// A protection change inside a region fragments its THP span,
		// one of the paper's "permission conflict" layout problems.
		if uint64(addr) > uint64(r.start) || length < r.length {
			r.largeLo, r.largeHi = 0, 0
		}
	}
	return sim.Cycles(m.rand.Jitter(1500, 0.3)), nil
}

// PageSizeAt implements kernel.MemoryManager.
func (m *Manager) PageSizeAt(p *kernel.Process, va pgtable.VirtAddr) pgtable.PageSize {
	r := state(p).findRegion(va)
	if r == nil {
		return pgtable.Page4K
	}
	off := uint64(va - r.start)
	if r.hugetlb && off < r.slabs*m.Pools.SlabBytes {
		return pgtable.Page2M
	}
	if off >= r.largeLo && off < r.largeHi && r.largeBytes > 0 {
		return pgtable.Page2M
	}
	return pgtable.Page4K
}

// StackRange implements kernel.MemoryManager: the Linux stack grows down
// from StackTop.
func (m *Manager) StackRange(p *kernel.Process, bytes uint64) (pgtable.VirtAddr, uint64) {
	layout := p.Space.Layout()
	if bytes > layout.StackMax {
		bytes = layout.StackMax
	}
	return layout.StackTop - pgtable.VirtAddr(bytes), bytes
}

func roundUp(v, to uint64) uint64 { return (v + to - 1) / to * to }

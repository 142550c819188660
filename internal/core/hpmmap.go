// Package core implements HPMMAP (High Performance Memory Mapping and
// Allocation Platform), the paper's contribution: a lightweight memory
// manager that plugs into a commodity kernel as a loadable module.
//
// Architecture (paper §III, Figure 6):
//
//   - Physical memory is hot-removed ("offlined") from Linux at install
//     time and handed to a Kitten-style buddy allocator. Linux will never
//     allocate from it, so commodity memory pressure cannot touch it.
//   - A user-level launch tool registers HPC process IDs in a hash table.
//     Memory-management system calls check the table: registered
//     processes are redirected to HPMMAP's implementations of mmap,
//     munmap, brk and mprotect; everyone else falls through to Linux
//     untouched — zero overhead when not in use.
//   - Allocation is "on-request": every virtual region is backed with
//     physical memory eagerly at the system call, with 2MB pages as the
//     fundamental allocation unit, in a part of the 48-bit address space
//     Linux never uses. Valid accesses therefore take no page faults at
//     all, and the entire address space (stack included) is large-page
//     mapped.
package core

import (
	"fmt"
	"slices"
	"sort"

	"hpmmap/internal/buddy"
	"hpmmap/internal/invariant"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// RegionBase is the bottom of the virtual range HPMMAP maps into — an
// unused portion of the canonical lower half, far above Linux's mmap
// ceiling so the two VM systems never collide.
const RegionBase pgtable.VirtAddr = 0x0000_6000_0000_0000

// stackBytes is the eagerly mapped stack size for registered processes.
const stackBytes = 8 << 20

// Manager is the HPMMAP kernel module. It implements kernel.Interposer.
type Manager struct {
	node *kernel.Node
	rand *sim.Rand
	// pools holds one Kitten buddy allocator per NUMA zone's offlined
	// extents, so registered processes always get zone-local memory when
	// their zone's pool has room — a guarantee Linux cannot give under
	// pressure.
	pools []*buddy.Allocator

	// registry holds the registered PIDs: Figure 6's hash table.
	registry pidSet

	// Use1GPages maps regions of 1GB or more with 1GB pages where the
	// pool has gigabyte-contiguous blocks ("2MB by default, but up to 1GB
	// where supported by hardware").
	Use1GPages bool

	// Per-block bookkeeping costs (cycles), on top of the page clear.
	AllocBookkeeping float64
	PTSetupCost      float64

	// regionPool and psPool recycle per-region and per-process structs
	// for the kernel's lifecycle fast path (DetachReap) and Munmap churn,
	// keeping block-slice and map capacity across pod lifecycles.
	regionPool []*region
	psPool     []*procState

	// Statistics.
	Registrations, MapCalls, UnmapCalls, BrkCalls uint64
	BytesMapped                                   uint64
}

// Install offlines offlineBytes of memory (split evenly across NUMA
// zones, as the paper configures) and loads the module: the node's
// system-call layer begins checking the registry. Returns an error if the
// memory cannot be offlined.
func Install(node *kernel.Node, offlineBytes uint64) (*Manager, error) {
	zones := node.Mem.Zones
	per := offlineBytes / uint64(len(zones))
	per -= per % mem.SectionSize
	var pools []*buddy.Allocator
	for _, z := range zones {
		extents, err := z.Offline(per)
		if err != nil {
			return nil, fmt.Errorf("hpmmap: offline failed: %w", err)
		}
		pool := buddy.New(mem.LargePageSize)
		// Hot-remove returns 128MB sections; physically adjacent ones are
		// donated as single arenas so the pool retains its gigabyte-scale
		// contiguity ("no less than 128MB, and generally much more").
		for _, e := range coalesce(extents) {
			if err := pool.AddRegion(e.Base.Addr(), e.Bytes()); err != nil {
				return nil, fmt.Errorf("hpmmap: pool init: %w", err)
			}
		}
		pools = append(pools, pool)
	}
	m := &Manager{
		node:             node,
		rand:             node.Rand().Split(),
		pools:            pools,
		AllocBookkeeping: 350,
		PTSetupCost:      250,
	}
	node.SetInterposer(m)
	return m, nil
}

// coalesce merges physically adjacent extents into maximal runs.
func coalesce(extents []mem.Extent) []mem.Extent {
	if len(extents) == 0 {
		return nil
	}
	sorted := append([]mem.Extent(nil), extents...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	out := []mem.Extent{sorted[0]}
	for _, e := range sorted[1:] {
		last := &out[len(out)-1]
		if last.End() == e.Base {
			last.Pages += e.Pages
			continue
		}
		out = append(out, e)
	}
	return out
}

// Uninstall removes the interposition hook. Registered processes must
// have exited first.
func (m *Manager) Uninstall() error {
	if m.registry.n != 0 {
		return fmt.Errorf("hpmmap: %d processes still registered", m.registry.n)
	}
	m.node.SetInterposer(nil)
	return nil
}

// PoolFreeBytes returns the free offlined memory across all zone pools.
func (m *Manager) PoolFreeBytes() uint64 {
	var t uint64
	for _, p := range m.pools {
		t += p.FreeBytes()
	}
	return t
}

// PoolTotalBytes returns the offlined memory under management.
func (m *Manager) PoolTotalBytes() uint64 {
	var t uint64
	for _, p := range m.pools {
		t += p.TotalBytes()
	}
	return t
}

// ZonePool exposes one zone's allocator (for stats and tests).
func (m *Manager) ZonePool(zone int) *buddy.Allocator { return m.pools[zone] }

// allocBlock takes one 2MB block, preferring the process's zone pool.
// Reports the zone used.
func (m *Manager) allocBlock(preferred int) (uint64, int, error) {
	if preferred < 0 || preferred >= len(m.pools) {
		preferred = 0
	}
	if addr, _, err := m.pools[preferred].Alloc(mem.LargePageSize); err == nil {
		return addr, preferred, nil
	}
	for i, p := range m.pools {
		if i == preferred {
			continue
		}
		if addr, _, err := p.Alloc(mem.LargePageSize); err == nil {
			return addr, i, nil
		}
	}
	return 0, 0, fmt.Errorf("hpmmap: all zone pools exhausted")
}

// freeBlock returns a block to its zone pool.
func (m *Manager) freeBlock(b block) {
	size := uint64(mem.LargePageSize)
	if b.huge {
		size = mem.HugePageSize
	}
	m.pools[b.zone].Free(b.addr, size)
}

// allocHuge takes one 1GB block, preferring the process's zone pool.
func (m *Manager) allocHuge(preferred int) (uint64, int, error) {
	if preferred < 0 || preferred >= len(m.pools) {
		preferred = 0
	}
	if addr, _, err := m.pools[preferred].Alloc(mem.HugePageSize); err == nil {
		return addr, preferred, nil
	}
	for i, p := range m.pools {
		if i == preferred {
			continue
		}
		if addr, _, err := p.Alloc(mem.HugePageSize); err == nil {
			return addr, i, nil
		}
	}
	return 0, 0, fmt.Errorf("hpmmap: no 1GB-contiguous pool block")
}

// Name implements kernel.MemoryManager.
func (m *Manager) Name() string { return "hpmmap" }

// Registered implements kernel.Interposer: the hash-table check on every
// interposed system call.
func (m *Manager) Registered(pid int) bool { return m.registry.has(pid) }

// Register inserts a PID into the hash table. The paper's launch tool
// calls this before exec.
func (m *Manager) Register(pid int) {
	m.registry.add(pid)
	m.Registrations++
}

// Launch mimics the user-level tool: register the PID the next process
// will get, then create it, so its very first memory system call is
// already interposed.
func (m *Manager) Launch(name string, preferredZone int) (*kernel.Process, error) {
	m.Register(m.node.NextPID())
	p, err := m.node.NewProcess(name, false, preferredZone)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// block is one backing unit (2MB, or 1GB when huge) with its source zone.
type block struct {
	addr uint64
	zone int
	huge bool
}

// region is one eagerly backed HPMMAP mapping.
type region struct {
	start  pgtable.VirtAddr
	length uint64 // rounded to 2MB
	blocks []block
	kind   vma.Kind
	remote uint64 // bytes from non-preferred zones
}

type procState struct {
	// regions is in mapping order. Starts are unique: Mmap places
	// each region at the advancing cursor, and the heap lies in its own
	// sub-range above the cursor's.
	regions []*region
	cursor  pgtable.VirtAddr
	heap    *region
	brk     pgtable.VirtAddr
}

func state(p *kernel.Process) *procState { return p.MMState().(*procState) }

// newRegion returns a region struct from the recycle pool (keeping its
// blocks capacity) or a fresh one.
func (m *Manager) newRegion() *region {
	if n := len(m.regionPool); n > 0 {
		r := m.regionPool[n-1]
		m.regionPool[n-1] = nil
		m.regionPool = m.regionPool[:n-1]
		*r = region{blocks: r.blocks[:0]}
		return r
	}
	return &region{}
}

// newProcState returns per-process state from the recycle pool or a
// fresh struct.
func (m *Manager) newProcState() *procState {
	if n := len(m.psPool); n > 0 {
		ps := m.psPool[n-1]
		m.psPool[n-1] = nil
		m.psPool = m.psPool[:n-1]
		return ps
	}
	return &procState{}
}

// Attach implements kernel.MemoryManager: set up the lightweight address
// space, including the eagerly mapped large-page stack.
func (m *Manager) Attach(p *kernel.Process) error {
	ps := m.newProcState()
	ps.cursor = RegionBase
	p.SetMMState(ps)
	ps.brk = RegionBase + 0x1000_0000_0000 // heap sub-range
	if _, _, err := m.mapAt(p, ps, ps.cursor, stackBytes, vma.KindStack); err != nil {
		return fmt.Errorf("hpmmap: stack setup: %w", err)
	}
	ps.cursor += stackBytes
	return nil
}

// Detach implements kernel.MemoryManager: free every block and drop the
// registry entry (the hash-table delete of Figure 6).
func (m *Manager) Detach(p *kernel.Process) {
	ps := state(p)
	for _, r := range ps.regions {
		m.release(p, r)
	}
	ps.regions = nil
	m.registry.remove(p.PID)
}

// DetachReap implements kernel.ReapDetacher: identical teardown to
// Detach — blocks freed region by region in mapping order, so the pool
// free lists end in the same state — but the region structs and the
// per-process state are recycled, and MMState is cleared so stale
// post-exit calls fail loudly.
func (m *Manager) DetachReap(p *kernel.Process) {
	ps := state(p)
	for _, r := range ps.regions {
		m.release(p, r)
		m.regionPool = append(m.regionPool, r)
	}
	clear(ps.regions)
	ps.regions = ps.regions[:0]
	ps.cursor, ps.heap, ps.brk = 0, nil, 0
	m.psPool = append(m.psPool, ps)
	p.SetMMState(nil)
	m.registry.remove(p.PID)
}

func (m *Manager) release(p *kernel.Process, r *region) {
	if r == nil {
		return
	}
	var bytes uint64
	for _, b := range r.blocks {
		m.freeBlock(b)
		if b.huge {
			bytes += mem.HugePageSize
		} else {
			bytes += mem.LargePageSize
		}
	}
	p.ResidentLarge -= bytes
	p.ResidentRemote -= r.remote
	if m.node.Detail {
		p.PT.UnmapRange(r.start, r.length)
	}
	// Truncate rather than drop: pooled reuse keeps the capacity.
	r.blocks = r.blocks[:0]
	r.remote = 0
}

// unback rolls back a failed eager backing: it frees blocks, which back
// [at, at+length), and at micro fidelity unmaps their page-table
// entries. The caller has not yet counted them resident.
func (m *Manager) unback(p *kernel.Process, blocks []block, at pgtable.VirtAddr, length uint64) {
	for _, b := range blocks {
		m.freeBlock(b)
	}
	if m.node.Detail {
		p.PT.UnmapRange(at, length)
	}
}

// mapAt eagerly backs [at, at+length) with large pages from the offlined
// pool: 1GB pages for gigabyte-scale regions when enabled, 2MB otherwise.
// Returns the region and the cycles consumed.
func (m *Manager) mapAt(p *kernel.Process, ps *procState, at pgtable.VirtAddr, length uint64, kind vma.Kind) (*region, sim.Cycles, error) {
	length = roundUp2M(length)
	// 1GB mapping needs a 1GB-aligned VA and a gigabyte of length; the
	// cursor allocator keeps RegionBase 1GB-aligned, so whole-GB prefixes
	// qualify when the region itself is GB-aligned.
	use1G := m.Use1GPages && uint64(at)%mem.HugePageSize == 0 && length >= mem.HugePageSize
	n := length / mem.LargePageSize
	r := m.newRegion()
	r.start, r.length, r.kind = at, length, kind
	if uint64(cap(r.blocks)) < n {
		r.blocks = make([]block, 0, n)
	}
	load := m.node.LoadFor(p)
	var cost float64
	off := uint64(0)
	if use1G {
		for off+mem.HugePageSize <= length {
			addr, zone, err := m.allocHuge(p.PreferredZone)
			if err != nil {
				// Fall back to 2MB blocks for the rest.
				break
			}
			r.blocks = append(r.blocks, block{addr: addr, zone: zone, huge: true})
			if zone != p.PreferredZone {
				r.remote += mem.HugePageSize
			}
			cost += m.AllocBookkeeping + m.PTSetupCost + 512*m.node.Costs().Clear2MCycles(load)
			if m.node.Detail {
				va := at + pgtable.VirtAddr(off)
				if err := p.PT.Map(va, mem.PFN(addr/mem.PageSize), pgtable.Page1G, pgtable.ProtRead|pgtable.ProtWrite); err != nil {
					// Simulated-state violation: the eager 1GB backing
					// collided with an existing mapping in a region the
					// VMA layer just carved out as free.
					invariant.Fail(invariant.Violation{
						Check: "pt_map_conflict", Subsystem: "core", PID: p.PID,
						Manager: "hpmmap",
						Detail:  fmt.Sprintf("eager 1GB map at %#x failed: %v", uint64(va), err),
					})
				}
			}
			off += mem.HugePageSize
		}
	}
	for ; off < length; off += mem.LargePageSize {
		addr, zone, err := m.allocBlock(p.PreferredZone)
		if err != nil {
			// Roll back: on-request allocation is all-or-nothing.
			m.unback(p, r.blocks, at, off)
			return nil, 0, fmt.Errorf("hpmmap: pool exhausted after %d of %d blocks: %w", off/mem.LargePageSize, n, err)
		}
		r.blocks = append(r.blocks, block{addr: addr, zone: zone})
		if zone != p.PreferredZone {
			r.remote += mem.LargePageSize
		}
		cost += m.AllocBookkeeping + m.PTSetupCost + m.node.Costs().Clear2MCycles(load)
		if m.node.Detail {
			va := at + pgtable.VirtAddr(off)
			if err := p.PT.Map(va, mem.PFN(addr/mem.PageSize), pgtable.Page2M, pgtable.ProtRead|pgtable.ProtWrite); err != nil {
				// Simulated-state violation: eager 2MB backing collided
				// with an existing mapping.
				invariant.Fail(invariant.Violation{
					Check: "pt_map_conflict", Subsystem: "core", PID: p.PID,
					Manager: "hpmmap",
					Detail:  fmt.Sprintf("eager 2MB map at %#x failed: %v", uint64(va), err),
				})
			}
		}
	}
	ps.regions = append(ps.regions, r)
	p.ResidentLarge += length
	p.ResidentRemote += r.remote
	m.BytesMapped += length
	return r, sim.Cycles(m.rand.Jitter(sim.Cycles(cost), 0.05)), nil
}

// Mmap implements kernel.MemoryManager: on-request allocation — the
// region is fully backed before the call returns, so it will never fault.
func (m *Manager) Mmap(p *kernel.Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error) {
	ps := state(p)
	at := ps.cursor
	if m.Use1GPages && length >= mem.HugePageSize {
		// Align gigabyte-scale regions so they can take 1GB mappings.
		at = pgtable.VirtAddr((uint64(at) + mem.HugePageSize - 1) &^ (mem.HugePageSize - 1))
		ps.cursor = at
	}
	r, cost, err := m.mapAt(p, ps, at, length, kind)
	if err != nil {
		return 0, 0, err
	}
	ps.cursor += pgtable.VirtAddr(r.length)
	m.MapCalls++
	return at, cost, nil
}

// Munmap implements kernel.MemoryManager.
func (m *Manager) Munmap(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	ps := state(p)
	i := slices.IndexFunc(ps.regions, func(r *region) bool { return r.start == addr })
	if i < 0 || ps.regions[i].length != roundUp2M(length) {
		return 0, fmt.Errorf("hpmmap: munmap %#x+%#x does not match a region", uint64(addr), length)
	}
	r := ps.regions[i]
	blocks := len(r.blocks)
	m.release(p, r)
	ps.regions = slices.Delete(ps.regions, i, i+1)
	if r != ps.heap {
		m.regionPool = append(m.regionPool, r)
	}
	m.UnmapCalls++
	return sim.Cycles(m.rand.Jitter(sim.Cycles(600+float64(blocks)*(m.AllocBookkeeping+m.PTSetupCost)), 0.05)), nil
}

// Brk implements kernel.MemoryManager: the heap grows in eagerly mapped
// 2MB steps inside HPMMAP's heap sub-range.
func (m *Manager) Brk(p *kernel.Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error) {
	ps := state(p)
	heapBase := RegionBase + 0x1000_0000_0000
	m.BrkCalls++
	if newBrk == 0 {
		return ps.brk, sim.Cycles(m.rand.Jitter(500, 0.1)), nil
	}
	if newBrk < heapBase {
		return ps.brk, 0, fmt.Errorf("hpmmap: brk below heap base")
	}
	wantLen := roundUp2M(uint64(newBrk - heapBase))
	if ps.heap == nil && wantLen > 0 {
		ps.heap = &region{start: heapBase, kind: vma.KindHeap}
		ps.regions = append(ps.regions, ps.heap)
	}
	var cost sim.Cycles
	if ps.heap != nil && wantLen > ps.heap.length {
		// Extend the single heap region: back the delta eagerly.
		delta := wantLen - ps.heap.length
		n := delta / mem.LargePageSize
		load := m.node.LoadFor(p)
		var c float64
		var remote uint64
		have := len(ps.heap.blocks)
		end := heapBase + pgtable.VirtAddr(ps.heap.length)
		for i := uint64(0); i < n; i++ {
			addr, zone, err := m.allocBlock(p.PreferredZone)
			if err != nil {
				// Roll back: the extension is all-or-nothing, like mapAt.
				m.unback(p, ps.heap.blocks[have:], end, i*mem.LargePageSize)
				ps.heap.blocks = ps.heap.blocks[:have]
				return ps.brk, 0, fmt.Errorf("hpmmap: brk: pool exhausted: %w", err)
			}
			if m.node.Detail {
				va := end + pgtable.VirtAddr(i*mem.LargePageSize)
				if err := p.PT.Map(va, mem.PFN(addr/mem.PageSize), pgtable.Page2M, pgtable.ProtRead|pgtable.ProtWrite); err != nil {
					// Simulated-state violation: brk's eager heap
					// extension collided with an existing mapping.
					invariant.Fail(invariant.Violation{
						Check: "pt_map_conflict", Subsystem: "core", PID: p.PID,
						Manager: "hpmmap",
						Detail:  fmt.Sprintf("brk heap map at %#x failed: %v", uint64(va), err),
					})
				}
			}
			ps.heap.blocks = append(ps.heap.blocks, block{addr: addr, zone: zone})
			if zone != p.PreferredZone {
				remote += mem.LargePageSize
			}
			c += m.AllocBookkeeping + m.PTSetupCost + m.node.Costs().Clear2MCycles(load)
		}
		ps.heap.length = wantLen
		ps.heap.remote += remote
		p.ResidentRemote += remote
		p.ResidentLarge += delta
		m.BytesMapped += delta
		cost = sim.Cycles(m.rand.Jitter(sim.Cycles(c), 0.05))
	}
	// Shrinks keep the mapping (the paper's workloads never shrink; glibc
	// keeps trimmed heap pages around as well).
	ps.brk = newBrk
	return newBrk, cost + sim.Cycles(m.rand.Jitter(500, 0.1)), nil
}

// Mprotect implements kernel.MemoryManager. HPMMAP tracks protections at
// region granularity; the call only touches HPMMAP state.
func (m *Manager) Mprotect(p *kernel.Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error) {
	ps := state(p)
	if r := findRegion(ps, addr); r != nil {
		if m.node.Detail {
			cur := addr
			end := addr + pgtable.VirtAddr(roundUp2M(length))
			for cur < end {
				if _, err := p.PT.Protect(cur, prot); err != nil {
					break
				}
				cur += mem.LargePageSize
			}
		}
		return sim.Cycles(m.rand.Jitter(700, 0.1)), nil
	}
	return 0, fmt.Errorf("hpmmap: mprotect on unmapped %#x", uint64(addr))
}

// TouchRange implements kernel.MemoryManager: valid accesses generate no
// page faults at all — the defining property of on-request allocation.
//
//detsim:hotpath
func (m *Manager) TouchRange(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	ps := state(p)
	r := findRegion(ps, addr)
	if r == nil || uint64(addr)+length > uint64(r.start)+r.length {
		// An HPMMAP process accessing unmapped memory is a segfault, not
		// a demand-paging opportunity.
		return 0, fmt.Errorf("hpmmap: segfault at %#x (pid %d)", uint64(addr), p.PID)
	}
	return 0, nil
}

// PageSizeAt implements kernel.MemoryManager: everything is large-page
// mapped.
func (m *Manager) PageSizeAt(p *kernel.Process, va pgtable.VirtAddr) pgtable.PageSize {
	return pgtable.Page2M
}

// StackRange implements kernel.MemoryManager: the eagerly mapped stack
// sits at RegionBase.
func (m *Manager) StackRange(p *kernel.Process, bytes uint64) (pgtable.VirtAddr, uint64) {
	if bytes > stackBytes {
		bytes = stackBytes
	}
	return RegionBase, bytes
}

func findRegion(ps *procState, va pgtable.VirtAddr) *region {
	// Regions are few (tens); linear scan in mapping order.
	for _, r := range ps.regions {
		if va >= r.start && va < r.start+pgtable.VirtAddr(r.length) {
			return r
		}
	}
	return nil
}

func roundUp2M(v uint64) uint64 {
	return (v + mem.LargePageSize - 1) / mem.LargePageSize * mem.LargePageSize
}

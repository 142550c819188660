package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"hpmmap/internal/fault"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/vma"
)

// Node is one simulated machine: cores, memory, the scheduler, the page
// cache, and the system-call layer that routes memory operations to the
// registered memory managers.
type Node struct {
	cfg  MachineConfig
	eng  *sim.Engine
	rand *sim.Rand

	Mem   *mem.NodeMemory
	cores []core

	defaultMM MemoryManager
	interpose Interposer

	// procs holds the live processes in ascending PID order. PIDs are
	// allocated in increasing order, so creation appends; exit removes.
	procs   []*Process
	nextPID int
	nextTID int

	// pool holds recycled Process/Task structs for the lifecycle fast
	// path (lifecycle.go); poolLifecycle gates it (default on).
	pool          lifecyclePools
	poolLifecycle bool

	// runningCommodity counts commodity-process tasks currently on a
	// runqueue, maintained by arrive/depart so LoadFor reads a summary
	// counter instead of scanning the append-only task list (which grows
	// with every fork over a macro run).
	runningCommodity int

	// bwSum caches the node-wide bandwidth weight that
	// bandwidthLoadExcluding starts from. arrive and depart, the only
	// writers of the per-core counts and weights it sums, clear bwValid,
	// and the next read reruns the same loop, so the float is the one a
	// fresh scan would give.
	bwSum   float64
	bwValid bool

	// Page cache, one FIFO run queue per zone. Blocks are order-3
	// (32KB) so commodity file I/O fragments large-page-sized regions
	// realistically. pcRuns is PageCacheAdd's AllocRun scratch.
	pageCache []pcQueue
	pcRuns    []mem.Run

	kswapd *sim.Ticker
	swap   *SwapDevice

	// Detail selects micro-level fidelity: per-fault records and real
	// page-table updates (Figures 2–5). When false, managers aggregate
	// fault costs statistically from the same cost model — required to
	// make the ~10^6-fault macro experiments (Figures 7–8) tractable.
	Detail bool

	// reservedPages counts frames reserved away from general use
	// (hugetlb pools): they are "used" in the zones but belong to no one
	// Linux can reclaim from.
	reservedPages uint64

	// Statistics.
	KswapdRuns     uint64
	PCAllocFails   uint64
	ReclaimedPages uint64
	OOMKills       uint64
	// Lifecycle fast-path counters: ExitReap calls that went through the
	// pooled teardown, and Process/Task structs served from the pools.
	LifecycleReaps      uint64
	LifecycleProcReuses uint64
	LifecycleTaskReuses uint64

	// obs holds the node's metric handles and tracer; nil (the
	// zero-overhead default) until Observe is called.
	obs *nodeObs
}

// Interposer is a memory manager that claims only registered processes —
// HPMMAP's PID hash table check in front of the original system call.
type Interposer interface {
	MemoryManager
	Registered(pid int) bool
}

// pcQueue is one zone's page cache: a FIFO of ascending runs of
// contiguous order-3 blocks, oldest block first. A push that continues
// the tail run extends it, so under Fig. 7's churn the queue holds one
// entry per ~19 blocks, and eviction frees whole runs with one
// Zone.FreeRun. The head index replaces front reslicing, so eviction
// keeps the backing array's capacity.
type pcQueue struct {
	runs   []mem.Run
	head   int
	blocks uint64 // blocks queued, across all runs
}

// push appends a run of blocks at the back of the queue.
//
//detsim:hotpath
func (q *pcQueue) push(r mem.Run) {
	q.blocks += r.Blocks
	if last := len(q.runs) - 1; last >= q.head && q.runs[last].End(pcOrder) == r.Base {
		q.runs[last].Blocks += r.Blocks
		return
	}
	if len(q.runs) == cap(q.runs) && q.head > 0 {
		// About to grow: compact into the dead front instead.
		n := copy(q.runs, q.runs[q.head:])
		q.runs = q.runs[:n]
		q.head = 0
	}
	//detsim:allow queue growth: runs keeps its backing array for the node's lifetime and grows only past its high-water mark, after compacting into the dead front; steady-state churn appends into reused capacity (DESIGN.md §10)
	q.runs = append(q.runs, r)
}

// pop removes the k oldest blocks, at most the head run's.
//
//detsim:hotpath
func (q *pcQueue) pop(k uint64) {
	if r := &q.runs[q.head]; k == r.Blocks {
		q.head++
	} else {
		r.Base += mem.PFN(k << pcOrder)
		r.Blocks -= k
	}
	if q.head == len(q.runs) {
		q.runs = q.runs[:0]
		q.head = 0
	}
	q.blocks -= k
}

const pcOrder = 3 // 32KB page-cache allocation units

// NewNode boots a node on the given engine. The default memory manager
// must be installed with SetDefaultMM before processes run.
func NewNode(cfg MachineConfig, eng *sim.Engine, rnd *sim.Rand) *Node {
	n := &Node{
		cfg:       cfg,
		eng:       eng,
		rand:      rnd,
		Mem:       mem.NewNodeMemory(cfg.NumaZones, cfg.MemoryBytes),
		nextPID:   100,
		pageCache: make([]pcQueue, cfg.NumaZones),

		poolLifecycle: true,
	}
	n.cores = make([]core, cfg.Cores)
	perZone := cfg.Cores / cfg.NumaZones
	if perZone == 0 {
		perZone = 1
	}
	for i := range n.cores {
		n.cores[i] = core{id: i, zone: i / perZone % cfg.NumaZones}
	}
	n.kswapd = eng.NewTicker(sim.Cycles(cfg.KswapdPeriod), n.kswapdPass)
	return n
}

// Config returns the machine configuration.
func (n *Node) Config() MachineConfig { return n.cfg }

// Costs returns the node's fault cost model, which the fault paths read
// on every fault. It points into the node's configuration, so callers
// must not modify it.
func (n *Node) Costs() *fault.CostParams { return &n.cfg.Costs }

// Engine returns the simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// Rand returns the node's PRNG stream.
func (n *Node) Rand() *sim.Rand { return n.rand }

// Now returns the current simulated time.
func (n *Node) Now() sim.Cycles { return n.eng.Now() }

// NumCores returns the core count.
func (n *Node) NumCores() int { return len(n.cores) }

// ZoneOfCore returns the NUMA zone of a core.
func (n *Node) ZoneOfCore(c int) int { return n.cores[c].zone }

// SetDefaultMM installs the manager used by unregistered processes.
func (n *Node) SetDefaultMM(mm MemoryManager) { n.defaultMM = mm }

// DefaultMM returns the default manager.
func (n *Node) DefaultMM() MemoryManager { return n.defaultMM }

// SetInterposer installs the system-call interposition layer (HPMMAP).
// Passing nil removes it — the module can be unloaded at runtime, adding
// no overhead when not in use.
func (n *Node) SetInterposer(i Interposer) { n.interpose = i }

// mmFor resolves the manager for a process: the interposer when the PID
// is registered, the default manager otherwise (the hash-table check of
// the paper's Figure 6).
func (n *Node) mmFor(p *Process) MemoryManager {
	if n.interpose != nil && n.interpose.Registered(p.PID) {
		return n.interpose
	}
	return n.defaultMM
}

// ManagerNameFor reports which manager currently serves the process.
func (n *Node) ManagerNameFor(p *Process) string { return n.mmFor(p).Name() }

// NextPID returns the PID the next created process will receive — the
// hook the HPMMAP launch tool uses to register a process before exec.
func (n *Node) NextPID() int { return n.nextPID }

// NewProcess creates a process attached to the manager the syscall layer
// currently routes it to.
func (n *Node) NewProcess(name string, commodity bool, preferredZone int) (*Process, error) {
	if n.defaultMM == nil {
		return nil, fmt.Errorf("kernel: no default memory manager installed")
	}
	p := n.procStruct()
	if p != nil {
		// Recycled struct: reset the retained Space and page table to
		// newborn state, then fill in identity. The remaining fields were
		// zeroed at reap time.
		p.Space.Reset(vma.DefaultLayout())
		p.PID = n.nextPID
		p.Name = name
		p.node = n
		p.PreferredZone = preferredZone % n.cfg.NumaZones
		p.Commodity = commodity
	} else {
		p = &Process{
			PID:           n.nextPID,
			Name:          name,
			node:          n,
			Space:         vma.NewSpace(vma.DefaultLayout()),
			PT:            pgtable.New(),
			PreferredZone: preferredZone % n.cfg.NumaZones,
			Commodity:     commodity,
		}
	}
	if n.obs != nil {
		p.PT.Instrument(n.obs.ptWalks, n.obs.ptDepth)
	}
	n.nextPID++
	n.procs = append(n.procs, p)
	if err := n.mmFor(p).Attach(p); err != nil {
		n.unlist(p)
		return nil, err
	}
	return p, nil
}

// Exit tears the process down, returning all its memory.
func (n *Node) Exit(p *Process) {
	if p.Exited {
		return
	}
	p.Exited = true
	n.mmFor(p).Detach(p)
	n.unlist(p)
}

// procIndex returns the position of pid in the live-process table and
// whether it is there.
func (n *Node) procIndex(pid int) (int, bool) {
	return slices.BinarySearchFunc(n.procs, pid, func(p *Process, pid int) int { return cmp.Compare(p.PID, pid) })
}

// unlist removes p from the live-process table, if it is there.
//
//detsim:hotpath
func (n *Node) unlist(p *Process) {
	if i, ok := n.procIndex(p.PID); ok {
		n.procs = slices.Delete(n.procs, i, i+1)
	}
}

// Process returns a live process by PID, or nil.
func (n *Node) Process(pid int) *Process {
	if i, ok := n.procIndex(pid); ok {
		return n.procs[i]
	}
	return nil
}

// Processes calls fn for each live process in PID order. fn must not
// create or exit processes.
func (n *Node) Processes(fn func(*Process)) {
	for _, p := range n.procs {
		fn(p)
	}
}

// Forker is implemented by memory managers that support fork (Linux).
// HPMMAP's eager design deliberately does not: duplicating an on-request
// address space would copy the whole resident set.
type Forker interface {
	Fork(parent, child *Process) (sim.Cycles, error)
}

// ErrForkUnsupported reports a manager without fork support.
var ErrForkUnsupported = fmt.Errorf("kernel: memory manager does not support fork")

// Fork duplicates a process copy-on-write through its memory manager.
func (n *Node) Fork(parent *Process, name string) (*Process, sim.Cycles, error) {
	mm := n.mmFor(parent)
	f, ok := mm.(Forker)
	if !ok {
		return nil, 0, ErrForkUnsupported
	}
	child := n.procStruct()
	if child != nil {
		parent.Space.CloneInto(child.Space)
		child.PID = n.nextPID
		child.Name = name
		child.node = n
		child.PreferredZone = parent.PreferredZone
		child.Commodity = parent.Commodity
	} else {
		child = &Process{
			PID:           n.nextPID,
			Name:          name,
			node:          n,
			Space:         parent.Space.Clone(),
			PT:            pgtable.New(),
			PreferredZone: parent.PreferredZone,
			Commodity:     parent.Commodity,
		}
	}
	if n.obs != nil {
		child.PT.Instrument(n.obs.ptWalks, n.obs.ptDepth)
	}
	n.nextPID++
	n.procs = append(n.procs, child)
	cost, err := f.Fork(parent, child)
	if err != nil {
		n.unlist(child)
		return nil, 0, err
	}
	return child, cost + sim.Cycles(n.cfg.SyscallCost), nil
}

// NewTask creates a task for the process. pinned is a core ID or -1.
func (n *Node) NewTask(p *Process, pinned int, bwWeight float64) *Task {
	t := n.taskStruct()
	if t == nil {
		t = &Task{}
	}
	*t = Task{ID: n.nextTID, Proc: p, Pinned: pinned, BandwidthWeight: bwWeight}
	if pinned >= 0 {
		t.cur = pinned
	}
	n.nextTID++
	p.tasks = append(p.tasks, t)
	return t
}

// --- System-call surface -------------------------------------------------

// chargeSyscall attributes one successful MM system call's full cost
// (manager work — for HPMMAP that includes the eager on-request backing
// — plus the trap) to the process's attribution account. Nil-safe.
func chargeSyscall(p *Process, c sim.Cycles, err error) {
	if err == nil {
		p.Account.Charge(timeline.CauseSyscall, c)
	}
}

// Mmap allocates an anonymous mapping for p.
func (n *Node) Mmap(p *Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error) {
	addr, c, err := n.mmFor(p).Mmap(p, length, prot, kind)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return addr, c, err
}

// Munmap removes a mapping.
func (n *Node) Munmap(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	c, err := n.mmFor(p).Munmap(p, addr, length)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return c, err
}

// Brk adjusts the heap.
func (n *Node) Brk(p *Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error) {
	b, c, err := n.mmFor(p).Brk(p, newBrk)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return b, c, err
}

// Mprotect changes protections.
func (n *Node) Mprotect(p *Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error) {
	c, err := n.mmFor(p).Mprotect(p, addr, length, prot)
	c += sim.Cycles(n.cfg.SyscallCost)
	chargeSyscall(p, c, err)
	return c, err
}

// TouchRange drives first-touch accesses over a range through the fault
// path of the owning manager and returns the fault cycles it charged to
// p.Faults; the per-kind counts are the change in p.Faults over the call.
func (n *Node) TouchRange(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	return n.mmFor(p).TouchRange(p, addr, length)
}

// TouchStack drives first-touch over `bytes` of the process stack and
// returns the fault cycles charged, as TouchRange does.
func (n *Node) TouchStack(p *Process, bytes uint64) (sim.Cycles, error) {
	mm := n.mmFor(p)
	addr, length := mm.StackRange(p, bytes)
	return mm.TouchRange(p, addr, length)
}

// --- Load snapshot --------------------------------------------------------

// SetReservedBytes records memory reserved at boot (hugetlb pools) so
// pressure accounting can distinguish it from reclaimable usage.
func (n *Node) SetReservedBytes(b uint64) { n.reservedPages = b / mem.PageSize }

// CommitPressure returns the fraction of Linux-usable memory committed to
// unreclaimable (anonymous) allocations: the smooth pressure signal that
// drives reclaim probability and THP fragmentation. Page cache does not
// count — it is reclaimable — and neither do boot-time reservations,
// which subtract from the usable pool instead.
func (n *Node) CommitPressure() float64 {
	return n.commitPressure(n.Mem.TotalPages(), n.Mem.FreePages(), n.pageCachePagesTotal())
}

// commitPressure is CommitPressure's arithmetic over the node-wide sums
// of managed, free and cached pages.
func (n *Node) commitPressure(total, free, cache uint64) float64 {
	used := total - free
	nonEvict := int64(used) - int64(cache) - int64(n.reservedPages)
	usable := int64(total) - int64(n.reservedPages)
	if usable <= 0 {
		return 1
	}
	if nonEvict < 0 {
		nonEvict = 0
	}
	v := float64(nonEvict) / float64(usable)
	if v > 1 {
		v = 1
	}
	return v
}

// LoadFor captures the system conditions a fault by p executes under.
func (n *Node) LoadFor(p *Process) fault.Load {
	// Allocation contention: commodity tasks running right now, relative
	// to core count. runningCommodity is maintained by arrive/depart;
	// a commodity process excludes its own running tasks.
	commodity := n.runningCommodity
	if p.Commodity {
		commodity -= p.running
	}
	alloc := float64(commodity) / float64(len(n.cores))
	if alloc > 1 {
		alloc = 1
	}
	// One pass over the zones gathers what CommitPressure and
	// Mem.Pressure each walk them for: the integer sums, whose order
	// does not matter, and the same maximum zone pressure.
	var total, free, cache uint64
	var zp float64
	for i, z := range n.Mem.Zones {
		total += z.Pages
		free += z.FreePages()
		cache += n.PageCachePages(i)
		if p := z.Pressure(); p > zp {
			zp = p
		}
	}
	pressure := n.commitPressure(total, free, cache)
	if zp > pressure {
		pressure = zp
	}
	return fault.Load{
		MemPressure:     pressure,
		BandwidthLoad:   n.bandwidthLoadExcluding(p),
		AllocContention: alloc,
	}
}

// --- Page cache and reclaim ----------------------------------------------

// PageCacheAdd grows the page cache by bytes in the given zone (commodity
// file I/O). When allocation fails the oldest cache blocks are recycled —
// the cache never pushes the system to OOM, it just keeps memory at the
// watermarks, exactly the sustained-pressure regime of the paper.
//
// Blocks come from the same zones in the same order as one gated
// allocation per block, trying the zone and then its neighbour: no frees
// interleave with a drain, so a zone that fails its gate stays failed
// until the recycle step, after which both zones are tried again. Zone
// Failures would differ only if a zone passed the gate yet held no
// order-3 block; nothing allocates below order 3, so every free block is
// at least that large and the gate's margin guarantees one. Recycle
// steps that get their dropped block straight back run in place
// (recycleInPlace).
//
//detsim:hotpath
func (n *Node) PageCacheAdd(zone int, bytes uint64) {
	blocks := bytes / (mem.PageSize << pcOrder)
	if blocks == 0 {
		blocks = 1
	}
	for {
		blocks -= n.pageCacheFill(zone, blocks)
		if blocks > 0 {
			blocks -= n.pageCacheFill(zone+1, blocks)
		}
		if blocks == 0 {
			return
		}
		if blocks -= n.recycleInPlace(zone, blocks); blocks == 0 {
			return
		}
		n.PCAllocFails++
		// Recycle: drop the oldest cached block and reuse its frame.
		if !n.dropOneCacheBlock() {
			return
		}
		pfn, z, ok := n.Mem.Alloc(zone, pcOrder)
		if !ok {
			return
		}
		n.pageCache[z.ID].push(mem.Run{Base: pfn, Blocks: 1})
		blocks--
	}
}

// pageCacheFill caches up to want blocks from zone zid (mod the zone
// count), allocating while the zone stays above its low watermark:
// readahead and buffered writes back off rather than stealing the
// emergency reserve. It returns the blocks cached.
//
//detsim:hotpath
func (n *Node) pageCacheFill(zid int, want uint64) uint64 {
	if zid >= len(n.Mem.Zones) {
		zid %= len(n.Mem.Zones) // only past the end: % is a DIVQ
	}
	z := n.Mem.Zones[zid]
	var got uint64
	n.pcRuns, got = z.AllocRun(pcOrder, want, pcReserve(z), n.pcRuns[:0])
	q := &n.pageCache[z.ID]
	for _, r := range n.pcRuns {
		q.push(r)
	}
	return got
}

// pcReserve is the free pages a zone must hold for a page-cache fill to
// take a block from it: its low watermark plus the block.
func pcReserve(z *mem.Zone) uint64 { return z.WatermarkLow + mem.PagesPerOrder(pcOrder) }

// recycleInPlace runs up to want consecutive recycle steps of
// PageCacheAdd whose Mem.Alloc would get back the block the step drops,
// and returns how many it ran. Each moves the fullest zone's oldest
// block to the back of its queue and counts what the drop and the
// allocation count; no free list changes (DESIGN.md §10 "Recycle in
// place"). It runs only while both fill gates are shut, so the fills
// between steps would do nothing and are skipped, and it stops at the
// first block whose buddy is free.
//
//detsim:hotpath
func (n *Node) recycleInPlace(zone int, want uint64) uint64 {
	zones := n.Mem.Zones
	for _, zid := range [2]int{zone, zone + 1} {
		if z := zones[zid%len(zones)]; z.FreePages() >= pcReserve(z) {
			return 0
		}
	}
	best := n.fullestCache()
	if best < 0 {
		return 0
	}
	pref := zone
	if pref >= len(zones) {
		pref = 0 // as Mem.Alloc clamps it
	}
	// Mem.Alloc tries pref, then the other zones in ID order: it reaches
	// best only when pref and every zone below best are empty at pcOrder.
	if pref != best {
		if zones[pref].CanAlloc(pcOrder) {
			return 0
		}
		for _, z := range zones[:best] {
			if z.CanAlloc(pcOrder) {
				return 0
			}
		}
	}
	q, z := &n.pageCache[best], zones[best]
	var done uint64
	for done < want {
		p := q.runs[q.head].Base
		if !z.Recycle(p, pcOrder) {
			break
		}
		q.pop(1)
		q.push(mem.Run{Base: p, Blocks: 1})
		done++
	}
	if pref != best {
		zones[pref].Failures += done
		for i, z := range zones[:best] {
			if i != pref {
				z.Failures += done
			}
		}
	}
	n.PCAllocFails += done
	n.ReclaimedPages += done << pcOrder
	return done
}

// PageCachePages returns cached pages in the zone.
func (n *Node) PageCachePages(zone int) uint64 { return n.pageCache[zone].blocks << pcOrder }

// pageCachePagesTotal returns cached pages across all zones.
func (n *Node) pageCachePagesTotal() uint64 {
	var pages uint64
	for z := range n.pageCache {
		pages += n.PageCachePages(z)
	}
	return pages
}

// fullestCache returns the zone caching the most blocks, the lowest on
// a tie, or -1 when the cache is empty.
func (n *Node) fullestCache() int {
	best := -1
	for z := range n.pageCache {
		if n.pageCache[z].blocks > 0 && (best < 0 || n.pageCache[z].blocks > n.pageCache[best].blocks) {
			best = z
		}
	}
	return best
}

// dropOneCacheBlock evicts one block from the fullest zone's cache.
//
//detsim:hotpath
func (n *Node) dropOneCacheBlock() bool {
	best := n.fullestCache()
	if best < 0 {
		return false
	}
	n.evictFrom(best, 1)
	return true
}

// evictFrom frees the zone's count oldest cached blocks (fewer if the
// cache holds fewer), run by run, with the same frees in the same order
// as one FreeBlock per block.
//
//detsim:hotpath
func (n *Node) evictFrom(zone int, count uint64) {
	q := &n.pageCache[zone]
	count = min(count, q.blocks)
	z := n.Mem.Zones[zone]
	for left := count; left > 0; {
		r := q.runs[q.head]
		k := min(left, r.Blocks)
		z.FreeRun(r.Base, k, pcOrder)
		q.pop(k)
		left -= k
	}
	n.ReclaimedPages += count << pcOrder
}

// kswapdPass frees page cache in any zone below its low watermark, down
// toward the high watermark — Linux's background reclaim.
func (n *Node) kswapdPass() {
	for _, z := range n.Mem.Zones {
		if z.FreePages() >= z.WatermarkLow {
			continue
		}
		n.KswapdRuns++
		n.obs.traceReclaim(reclaimKswapd, z.ID, n.eng.Now())
		need := z.WatermarkHigh - z.FreePages()
		if need > n.cfg.KswapdBatchPages {
			need = n.cfg.KswapdBatchPages
		}
		blocks := need >> pcOrder
		if blocks == 0 {
			blocks = 1
		}
		n.evictFrom(z.ID, blocks)
	}
}

// DirectReclaim drops enough page cache to satisfy an allocation of the
// given order in the zone, returning whether anything was freed. The
// caller charges the heavy-tailed stall from the cost model. One pass
// frees a substantial batch (vmscan reclaims well past the request at
// elevated priority), so a single stall covers many subsequent
// allocations.
func (n *Node) DirectReclaim(zone int, order int) bool {
	n.obs.traceReclaim(reclaimDirect, zone, n.eng.Now())
	z := n.Mem.Zones[zone]
	before := z.FreePages()
	pages := mem.PagesPerOrder(order) * 4
	if min := uint64(8192); pages < min { // >= 32MB per pass
		pages = min
	}
	n.evictFrom(zone, pages>>pcOrder+1)
	return z.FreePages() > before
}

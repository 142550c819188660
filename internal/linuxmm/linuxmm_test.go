package linuxmm

import (
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/hugetlb"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

const rw = pgtable.ProtRead | pgtable.ProtWrite

type env struct {
	eng  *sim.Engine
	node *kernel.Node
	mgr  *Manager
}

func newEnv(t testing.TB, hpc, commodity Mode, hugetlbBytes uint64, detail bool) *env {
	t.Helper()
	eng := sim.NewEngine()
	node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(42))
	node.Detail = detail
	var pools *hugetlb.Pools
	if hugetlbBytes > 0 {
		var err error
		pools, err = hugetlb.Reserve(node.Mem, hugetlbBytes)
		if err != nil {
			t.Fatal(err)
		}
	}
	mgr := New(node, hpc, commodity, pools)
	node.SetDefaultMM(mgr)
	return &env{eng: eng, node: node, mgr: mgr}
}

// touch runs one Node.TouchRange and returns the faults it charged: the
// change in p.Faults over the call.
func (e *env) touch(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (kernel.TouchStats, error) {
	before := p.Faults
	_, err := e.node.TouchRange(p, addr, length)
	return p.Faults.Since(before), err
}

func (e *env) proc(t testing.TB, commodity bool) *kernel.Process {
	t.Helper()
	p, err := e.node.NewProcess("p", commodity, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMmapIsDemandPaged(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	free := e.node.Mem.FreePages()
	addr, cost, err := e.node.Mmap(p, 1<<30, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if e.node.Mem.FreePages() != free {
		t.Fatal("mmap allocated physical memory (should be demand paged)")
	}
	if cost > 100_000 {
		t.Fatalf("mmap cost %d too high for a VMA-only operation", cost)
	}
	if addr == 0 {
		t.Fatal("mmap returned zero address")
	}
	if p.ResidentBytes() != 0 {
		t.Fatal("resident before touch")
	}
}

func TestTouchMaterializesWithTHP(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	addr, _, err := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.touch(p, addr, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindLarge] == 0 {
		t.Fatal("no large faults on an idle machine")
	}
	// Most of the region should be 2MB-mapped.
	if p.LargeFraction() < 0.9 {
		t.Fatalf("large fraction %v, want > 0.9", p.LargeFraction())
	}
	// Cost per large fault in the calibrated band.
	avg := float64(st.Cycles[fault.KindLarge]) / float64(st.Faults[fault.KindLarge])
	if avg < 250e3 || avg > 600e3 {
		t.Fatalf("large fault avg %v outside calibration", avg)
	}
	// Touching again faults nothing.
	st2, _ := e.touch(p, addr, 64<<20)
	if st2.TotalFaults() != 0 {
		t.Fatalf("re-touch faulted %d times", st2.TotalFaults())
	}
}

func TestTouch4KOnlyMode(t *testing.T) {
	e := newEnv(t, Mode4KOnly, Mode4KOnly, 0, false)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 8<<20, rw, vma.KindAnon)
	st, err := e.touch(p, addr, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindLarge] != 0 {
		t.Fatal("large faults in 4K-only mode")
	}
	if st.Faults[fault.KindSmall] != 2048 {
		t.Fatalf("small faults %d, want 2048", st.Faults[fault.KindSmall])
	}
	if p.ResidentLarge != 0 {
		t.Fatal("large residency in 4K-only mode")
	}
}

func TestUnalignedRegionEdgesGoSmall(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	// Default placement is 4KB-granular: a region of odd size lands
	// unaligned and its edges cannot be 2MB-mapped.
	addr, _, _ := e.node.Mmap(p, 8<<20+12<<10, rw, vma.KindAnon)
	st, err := e.touch(p, addr, 8<<20+12<<10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindSmall] == 0 {
		t.Fatal("no small faults despite unaligned edges")
	}
	if st.Faults[fault.KindLarge] == 0 {
		t.Fatal("no large faults in the aligned interior")
	}
}

func TestStackFaultsAreSmallAndDescending(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	top := p.Space.Layout().StackTop
	st, err := e.touch(p, top-pgtable.VirtAddr(64<<10), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindSmall] != 16 {
		t.Fatalf("stack touch small faults %d, want 16", st.Faults[fault.KindSmall])
	}
	// Deeper touch faults only the delta.
	st2, _ := e.touch(p, top-pgtable.VirtAddr(128<<10), 128<<10)
	if st2.Faults[fault.KindSmall] != 16 {
		t.Fatalf("deeper stack touch faulted %d, want 16", st2.Faults[fault.KindSmall])
	}
}

func TestBrkHeapGrowth(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	start := p.Space.Layout().BrkStart
	nb, _, err := e.node.Brk(p, start+pgtable.VirtAddr(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	if nb != start+pgtable.VirtAddr(32<<20) {
		t.Fatalf("brk returned %#x", uint64(nb))
	}
	st, err := e.touch(p, start, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalFaults() == 0 {
		t.Fatal("heap touch took no faults")
	}
}

func TestHugeTLBSlabFaults(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 2<<30, false)
	p := e.proc(t, false)
	addr, _, err := e.node.Mmap(p, 256<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.touch(p, addr, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	// One fault per 2MB page: 128 for 256MB.
	if st.Faults[fault.KindHugeTLBLarge] != 128 {
		t.Fatalf("hugetlb faults %d, want 128", st.Faults[fault.KindHugeTLBLarge])
	}
	avg := float64(st.Cycles[fault.KindHugeTLBLarge]) / 128
	if avg < 400e3 || avg > 1.2e6 {
		t.Fatalf("hugetlb fault avg %v outside calibration", avg)
	}
	if p.ResidentLarge != 256<<20 {
		t.Fatalf("resident large %d", p.ResidentLarge)
	}
	// The pool shrank by 128 pages.
	if got := e.mgr.Pools.FreePagesTotal(); got != 1024-128 {
		t.Fatalf("pool free %d", got)
	}
}

func TestHugeTLBStackStaysSmall(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 2<<30, false)
	p := e.proc(t, false)
	top := p.Space.Layout().StackTop
	st, err := e.touch(p, top-pgtable.VirtAddr(1<<20), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindHugeTLBSmall] != 256 {
		t.Fatalf("hugetlb stack faults: %+v", st.Faults)
	}
	if st.Faults[fault.KindHugeTLBLarge] != 0 {
		t.Fatal("stack got hugetlb large pages")
	}
}

func TestMunmapReturnsMemory(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	free := e.node.Mem.FreePages()
	addr, _, _ := e.node.Mmap(p, 32<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 32<<20); err != nil {
		t.Fatal(err)
	}
	if e.node.Mem.FreePages() >= free {
		t.Fatal("touch did not consume memory")
	}
	if _, err := e.node.Munmap(p, addr, 32<<20); err != nil {
		t.Fatal(err)
	}
	if e.node.Mem.FreePages() != free {
		t.Fatalf("munmap leaked: %d != %d", e.node.Mem.FreePages(), free)
	}
	if p.ResidentBytes() != 0 {
		t.Fatalf("resident %d after munmap", p.ResidentBytes())
	}
	// Unmapping again fails cleanly.
	if _, err := e.node.Munmap(p, addr, 32<<20); err == nil {
		t.Fatal("double munmap succeeded")
	}
	// Zero bytes fail too, and leave the region, even a heap left empty
	// by a break at its start.
	heap := p.Space.Layout().BrkStart
	if _, _, err := e.node.Brk(p, heap); err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.Munmap(p, heap, 0); err == nil {
		t.Fatal("zero-length munmap of the empty heap succeeded")
	}
	if _, _, err := e.node.Brk(p, heap+pgtable.VirtAddr(4<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, heap, 4<<20); err != nil {
		t.Fatalf("heap lost to a refused munmap: %v", err)
	}
}

func TestExitReleasesEverything(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 2<<30, false)
	p := e.proc(t, false)
	free := e.node.Mem.FreePages()
	poolFree := e.mgr.Pools.FreePagesTotal()
	addr, _, _ := e.node.Mmap(p, 128<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 128<<20); err != nil {
		t.Fatal(err)
	}
	top := p.Space.Layout().StackTop
	if _, err := e.node.TouchRange(p, top-pgtable.VirtAddr(1<<20), 1<<20); err != nil {
		t.Fatal(err)
	}
	e.node.Exit(p)
	if e.node.Mem.FreePages() != free {
		t.Fatal("exit leaked buddy memory")
	}
	if e.mgr.Pools.FreePagesTotal() != poolFree {
		t.Fatal("exit leaked pool pages")
	}
}

func TestTHPFallbackUnderFragmentation(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	e.mgr.THPFallbackBase = 0 // isolate the fragmentation mechanism
	p := e.proc(t, false)

	// Consume memory with page cache down to just above the min
	// watermark: watermark-gated 2MB allocations fail until compaction
	// (cache eviction) makes room.
	for _, z := range e.node.Mem.Zones {
		n := z.FreePages() - z.WatermarkMin - 100
		e.node.PageCacheAdd(z.ID, n*mem.PageSize)
	}
	addr, _, _ := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	st, err := e.touch(p, addr, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction (cache eviction) should have been needed; depending on
	// eviction luck some chunks may have fallen back to small.
	if e.mgr.Compactions == 0 && st.Faults[fault.KindSmall] == 0 {
		t.Fatalf("no compactions and no fallbacks under fragmentation: %+v", st.Faults)
	}
}

func TestReclaimStormsWhenMemoryExhausted(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 12<<30, false)
	p := e.proc(t, false)
	// 12GB of 16GB reserved. Exhaust the remainder below the min
	// watermark with anonymous commodity memory (not page cache, so
	// direct reclaim has to work for its progress).
	hog := e.proc(t, true)
	hogAddr, _, _ := e.node.Mmap(hog, 3<<30, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(hog, hogAddr, 3<<30); err != nil {
		t.Fatal(err)
	}
	// Add page cache to absorb what's left.
	for _, z := range e.node.Mem.Zones {
		e.node.PageCacheAdd(z.ID, z.FreePages()*mem.PageSize)
	}
	// Now the HPC process's small faults (stack) contend hard.
	top := p.Space.Layout().StackTop
	st, err := e.touch(p, top-pgtable.VirtAddr(4<<20), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls == 0 {
		t.Fatalf("no reclaim storms with memory exhausted: %+v", st)
	}
	avg := float64(st.Total()) / float64(st.TotalFaults())
	if avg < 10_000 {
		t.Fatalf("storm-era small fault avg %v suspiciously cheap", avg)
	}
}

func TestDetailModeBuildsPageTables(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, true)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 16<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 16<<20); err != nil {
		t.Fatal(err)
	}
	if p.PT.Mapped2M == 0 {
		t.Fatal("detail mode installed no 2MB PTEs")
	}
	m, ok := p.PT.Walk(addr + 4096)
	if !ok {
		t.Fatal("PT walk missed inside touched region")
	}
	if m.Size != pgtable.Page2M {
		t.Fatalf("PT granularity %v", m.Size)
	}
	// Faults were recorded individually in detail mode.
	if p.Faults.TotalFaults() == 0 {
		t.Fatal("no faults recorded")
	}
}

func TestMprotectFragmentsTHPSpan(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 16<<20, rw, vma.KindAnon)
	if _, err := e.node.Mprotect(p, addr+4096, 4096, pgtable.ProtRead); err != nil {
		t.Fatal(err)
	}
	st, err := e.touch(p, addr, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	// The permission conflict destroyed THP eligibility for the region.
	if st.Faults[fault.KindLarge] != 0 {
		t.Fatal("large faults despite permission conflict")
	}
}

func TestMergeStallsConsumedAsMergeFaults(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 8<<20, rw, vma.KindAnon)
	p.PendingMergeCosts = append(p.PendingMergeCosts, 1_000_000, 2_000_000)
	st, err := e.touch(p, addr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[fault.KindMergeBlocked] != 2 {
		t.Fatalf("merge-blocked faults %d, want 2", st.Faults[fault.KindMergeBlocked])
	}
	if st.Cycles[fault.KindMergeBlocked] < 3_000_000 {
		t.Fatalf("merge-blocked cycles %d below deposited durations", st.Cycles[fault.KindMergeBlocked])
	}
	if len(p.PendingMergeCosts) != 0 {
		t.Fatal("pending merges not consumed")
	}
}

func TestTouchUnmappedErrors(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	if _, err := e.node.TouchRange(p, 0xdead_0000_0000, 4096); err == nil {
		t.Fatal("touch of unmapped address succeeded")
	}
	addr, _, _ := e.node.Mmap(p, 1<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 2<<20); err == nil {
		t.Fatal("touch past region end succeeded")
	}
}

func TestCommodityModeSelection(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 1<<30, false)
	hpc := e.proc(t, false)
	build := e.proc(t, true)
	a1, _, _ := e.node.Mmap(hpc, 64<<20, rw, vma.KindAnon)
	a2, _, _ := e.node.Mmap(build, 64<<20, rw, vma.KindAnon)
	s1, err := e.touch(hpc, a1, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.touch(build, a2, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Faults[fault.KindHugeTLBLarge] == 0 {
		t.Fatal("HPC process did not use hugetlb")
	}
	if s2.Faults[fault.KindSmall] == 0 || s2.Faults[fault.KindLarge] != 0 || s2.Faults[fault.KindHugeTLBLarge] != 0 {
		t.Fatalf("commodity process faults: %+v", s2.Faults)
	}
}

func TestAggregateAndDetailFaultCountsAgree(t *testing.T) {
	count := func(detail bool) kernel.TouchStats {
		e := newEnv(t, ModeTHP, ModeTHP, 0, detail)
		p := e.proc(t, false)
		addr, _, _ := e.node.Mmap(p, 24<<20+64<<10, rw, vma.KindAnon)
		st, err := e.touch(p, addr, 24<<20+64<<10)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	agg, det := count(false), count(true)
	if agg.TotalFaults() != det.TotalFaults() {
		t.Fatalf("aggregate %d faults, detail %d", agg.TotalFaults(), det.TotalFaults())
	}
	// Costs agree within 20%.
	ra := float64(agg.Total())
	rd := float64(det.Total())
	if ra/rd > 1.2 || rd/ra > 1.2 {
		t.Fatalf("aggregate cost %v vs detail %v diverge", ra, rd)
	}
}

func TestTHPHeapFaultsSmallThenMerges(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	start := p.Space.Layout().BrkStart
	// Grow the heap in glibc-sized increments, touching as we go.
	cur := start
	for i := 0; i < 64; i++ {
		nb, _, err := e.node.Brk(p, cur+pgtable.VirtAddr(256<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.node.TouchRange(p, cur, 256<<10); err != nil {
			t.Fatal(err)
		}
		cur = nb
	}
	// 16MB heap: all faults small, none large (THP cannot map a pmd the
	// VMA tail does not cover).
	if p.Faults.Faults[fault.KindLarge] != 0 {
		t.Fatalf("heap growth produced %d large faults", p.Faults.Faults[fault.KindLarge])
	}
	if p.Faults.Faults[fault.KindSmall] != 4096 {
		t.Fatalf("heap growth small faults %d, want 4096", p.Faults.Faults[fault.KindSmall])
	}
	// The fully-touched chunks are now khugepaged candidates.
	if e.mgr.NextMergeCandidate() != p {
		t.Fatal("heap chunks not offered for merging")
	}
	before := p.ResidentLarge
	if !e.mgr.PerformMerge(p) {
		t.Fatal("merge failed")
	}
	if p.ResidentLarge != before+mem.LargePageSize {
		t.Fatal("merge did not convert 2MB to large residency")
	}
}

func TestMlockAllSplitsTHPPages(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, true)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 32<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 32<<20); err != nil {
		t.Fatal(err)
	}
	largeBefore := p.ResidentLarge
	if largeBefore == 0 {
		t.Fatal("setup: no large residency")
	}
	cost, err := e.mgr.MlockAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("mlockall free")
	}
	// The paper's behaviour: every THP large page split into small pages.
	if p.ResidentLarge != 0 {
		t.Fatalf("large residency %d after mlockall", p.ResidentLarge)
	}
	if p.ResidentSmall < largeBefore {
		t.Fatalf("small residency %d did not absorb the split pages", p.ResidentSmall)
	}
	if e.mgr.SplitOnMlock == 0 {
		t.Fatal("no splits counted")
	}
	// Page tables rebuilt at 4KB.
	if p.PT.Mapped2M != 0 {
		t.Fatalf("%d 2MB PTEs survive mlockall", p.PT.Mapped2M)
	}
	// Future touches in the region stay small (THP defeated).
	st, err := e.touch(p, addr, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	addr2, _, _ := e.node.Mmap(p, 8<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr2, 8<<20); err != nil {
		t.Fatal(err)
	}
	// Memory is not leaked on exit.
	free := e.node.Mem.FreePages()
	_ = free
	e.node.Exit(p)
}

func TestMlockAllLeavesHugeTLBIntact(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 2<<30, false)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 64<<20); err != nil {
		t.Fatal(err)
	}
	large := p.ResidentLarge
	if _, err := e.mgr.MlockAll(p); err != nil {
		t.Fatal(err)
	}
	if p.ResidentLarge != large {
		t.Fatalf("hugetlb pages split by mlockall: %d -> %d", large, p.ResidentLarge)
	}
	if e.mgr.SplitOnMlock != 0 {
		t.Fatal("hugetlb pages counted as splits")
	}
}

func TestMlockAllMemoryConservation(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	free := e.node.Mem.FreePages()
	addr, _, _ := e.node.Mmap(p, 32<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(p, addr, 32<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.MlockAll(p); err != nil {
		t.Fatal(err)
	}
	e.node.Exit(p)
	if e.node.Mem.FreePages() != free {
		t.Fatalf("mlockall+exit leaked: %d != %d", e.node.Mem.FreePages(), free)
	}
}

func TestForkIsCOWCheap(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	parent := e.proc(t, true)
	addr, _, _ := e.node.Mmap(parent, 512<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(parent, addr, 512<<20); err != nil {
		t.Fatal(err)
	}
	free := e.node.Mem.FreePages()
	child, cost, err := e.node.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	// Fork allocates no data pages...
	if e.node.Mem.FreePages() != free {
		t.Fatalf("fork consumed %d pages", free-e.node.Mem.FreePages())
	}
	// ...but is not free: page tables and VMAs are copied in proportion
	// to the parent's resident set.
	wantMin := sim.Cycles(float64(parent.ResidentBytes()/mem.PageSize) * PTECopyCost / 2)
	if cost < wantMin {
		t.Fatalf("fork cost %d below PTE-copy floor %d", cost, wantMin)
	}
	// The child's first writes take COW faults that allocate + copy.
	st, err := e.touch(child, addr, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalFaults() == 0 {
		t.Fatal("COW touch took no faults")
	}
	if e.node.Mem.FreePages() >= free {
		t.Fatal("COW faults allocated nothing")
	}
	// COW faults cost more than plain small faults (they copy).
	avg := float64(st.Total()) / float64(st.TotalFaults())
	if avg < 2500 {
		t.Fatalf("COW fault avg %.0f too cheap to include a copy", avg)
	}
}

func TestExecDropsInheritedImage(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	parent := e.proc(t, true)
	// A break set to the heap's start leaves a heap region with no VMA,
	// which the child inherits and exec must drop without an unmap.
	if _, _, err := e.node.Brk(parent, parent.Space.Layout().BrkStart); err != nil {
		t.Fatal(err)
	}
	addr, _, _ := e.node.Mmap(parent, 128<<20, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(parent, addr, 128<<20); err != nil {
		t.Fatal(err)
	}
	child, _, err := e.node.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	// The child dirties a little COW memory, then execs.
	if _, err := e.node.TouchRange(child, addr, 16<<20); err != nil {
		t.Fatal(err)
	}
	dirtied := child.ResidentBytes()
	if dirtied == 0 {
		t.Fatal("setup: no COW pages dirtied")
	}
	free := e.node.Mem.FreePages()
	if _, err := e.mgr.Exec(child); err != nil {
		t.Fatal(err)
	}
	if child.ResidentBytes() != 0 {
		t.Fatalf("resident %d after exec", child.ResidentBytes())
	}
	if e.node.Mem.FreePages() <= free {
		t.Fatal("exec freed nothing")
	}
	// Parent untouched.
	if parent.ResidentBytes() < 128<<20 {
		t.Fatalf("parent resident %d shrank", parent.ResidentBytes())
	}
	// The child can build a fresh image afterwards.
	naddr, _, err := e.node.Mmap(child, 32<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(child, naddr, 32<<20); err != nil {
		t.Fatal(err)
	}
	e.node.Exit(child)
	e.node.Exit(parent)
}

func TestBrkQueryAndShrinkSemantics(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	base, _, err := e.node.Brk(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base != p.Space.Layout().BrkStart {
		t.Fatalf("initial brk %#x", uint64(base))
	}
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(8<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, base, 8<<20); err != nil {
		t.Fatal(err)
	}
	// Shrink below the touched prefix, then grow and re-touch: no panic,
	// and accounting stays sane on exit.
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(2<<20)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(16<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, base, 16<<20); err != nil {
		t.Fatal(err)
	}
	free := e.node.Mem.FreePages()
	_ = free
	e.node.Exit(p)
}

func TestMmapExhaustsAddressSpaceGracefully(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	// The gap between heap start and mmap top is ~42TB; a mapping larger
	// than that must fail cleanly.
	if _, _, err := e.node.Mmap(p, 60<<40, rw, vma.KindAnon); err == nil {
		t.Fatal("60TB mmap accepted")
	}
}

func TestPartialTouchThenFullTouch(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p := e.proc(t, false)
	addr, _, _ := e.node.Mmap(p, 16<<20, rw, vma.KindAnon)
	st1, err := e.touch(p, addr, 5<<20+12<<10)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e.touch(p, addr, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Two partial touches cover the region exactly once.
	total := st1.TotalFaults() + st2.TotalFaults()
	resident := p.ResidentBytes()
	if resident < 16<<20 {
		t.Fatalf("resident %d after full touch", resident)
	}
	if total == 0 {
		t.Fatal("no faults")
	}
	st3, _ := e.touch(p, addr, 16<<20)
	if st3.TotalFaults() != 0 {
		t.Fatal("third touch faulted")
	}
}

func TestSwapRelievesPressureBeforeOOM(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 12<<30, false)
	// A commodity hog fills the unreserved pool with anon memory.
	hog := e.proc(t, true)
	hogAddr, _, _ := e.node.Mmap(hog, 3<<30, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(hog, hogAddr, 3<<30); err != nil {
		t.Fatal(err)
	}
	// Exhaust the rest so the next allocation needs the relief chain.
	for _, z := range e.node.Mem.Zones {
		for {
			if _, ok := z.AllocPages(3); !ok {
				break
			}
		}
	}
	// The HPC process's small fault must succeed via swap-out, not OOM.
	p := e.proc(t, false)
	if _, err := e.node.TouchStack(p, 1<<20); err != nil {
		t.Fatal(err)
	}
	if e.mgr.SwappedOutPages == 0 {
		t.Fatal("no pages swapped out under exhaustion")
	}
	if e.node.Swap().UsedPages() == 0 {
		t.Fatal("swap device unused")
	}
	if e.node.OOMKills != 0 {
		t.Fatalf("OOM killer fired (%d) despite swap space", e.node.OOMKills)
	}
	if hog.Exited {
		t.Fatal("hog killed instead of swapped")
	}
	// The hog's resident set shrank by what was paged out.
	if hog.ResidentBytes() >= 3<<30 {
		t.Fatalf("hog resident %d did not shrink", hog.ResidentBytes())
	}
	// Teardown releases the swap slots.
	e.node.Exit(hog)
	e.node.Exit(p)
	if e.node.Swap().UsedPages() != 0 {
		t.Fatalf("swap slots leaked: %d", e.node.Swap().UsedPages())
	}
}

func TestOOMFiresWhenSwapFull(t *testing.T) {
	e := newEnv(t, ModeHugeTLB, Mode4KOnly, 12<<30, false)
	// Shrink the swap device to nothing.
	e.node.Swap().Reserve(e.node.Swap().FreePages())
	hog := e.proc(t, true)
	hogAddr, _, _ := e.node.Mmap(hog, 3<<30, rw, vma.KindAnon)
	if _, err := e.node.TouchRange(hog, hogAddr, 3<<30); err != nil {
		t.Fatal(err)
	}
	for _, z := range e.node.Mem.Zones {
		for {
			if _, ok := z.AllocPages(3); !ok {
				break
			}
		}
	}
	p := e.proc(t, false)
	if _, err := e.node.TouchStack(p, 1<<20); err != nil {
		t.Fatal(err)
	}
	if e.node.OOMKills == 0 {
		t.Fatal("OOM killer never fired with swap full")
	}
	if !hog.Exited {
		t.Fatal("hog survived the OOM kill")
	}
}

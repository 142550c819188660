package core

import (
	"testing"
	"testing/quick"

	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

const rw = pgtable.ProtRead | pgtable.ProtWrite

type env struct {
	eng  *sim.Engine
	node *kernel.Node
	hp   *Manager
}

func newEnv(t testing.TB, offline uint64, detail bool) *env {
	t.Helper()
	eng := sim.NewEngine()
	node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(7))
	node.Detail = detail
	node.SetDefaultMM(linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil))
	hp, err := Install(node, offline)
	if err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, node: node, hp: hp}
}

// touch runs one Node.TouchRange and returns the faults it charged: the
// change in p.Faults over the call.
func (e *env) touch(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (kernel.TouchStats, error) {
	before := p.Faults
	_, err := e.node.TouchRange(p, addr, length)
	return p.Faults.Since(before), err
}

func TestInstallOfflinesMemory(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	// 12GB gone from Linux.
	if got := e.node.Mem.TotalPages() * mem.PageSize; got != 4<<30 {
		t.Fatalf("linux-visible memory %d, want 4GB", got)
	}
	if e.hp.PoolTotalBytes() != 12<<30 {
		t.Fatalf("pool size %d", e.hp.PoolTotalBytes())
	}
	// Pool blocks are large and contiguous (paper: sections >= 128MB).
	if e.hp.ZonePool(0).LargestFreeBlock() < 128<<20 {
		t.Fatalf("largest pool block %d", e.hp.ZonePool(0).LargestFreeBlock())
	}
}

func TestInstallFailsWhenTooBig(t *testing.T) {
	eng := sim.NewEngine()
	node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(7))
	node.SetDefaultMM(linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil))
	if _, err := Install(node, 64<<30); err == nil {
		t.Fatal("offlining more than installed RAM succeeded")
	}
}

func TestLaunchRegistersAndRoutes(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, err := e.hp.Launch("hpc-app", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !e.hp.Registered(p.PID) {
		t.Fatal("launched process not in registry")
	}
	if e.node.ManagerNameFor(p) != "hpmmap" {
		t.Fatalf("routed to %q", e.node.ManagerNameFor(p))
	}
	// Ordinary processes stay on Linux.
	q, _ := e.node.NewProcess("build", true, 0)
	if e.node.ManagerNameFor(q) == "hpmmap" {
		t.Fatal("unregistered process routed to hpmmap")
	}
}

func TestOnRequestAllocationNoFaults(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	linuxFree := e.node.Mem.FreePages()
	addr, cost, err := e.node.Mmap(p, 1<<30, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	// Eager: memory is resident immediately (region + the 8MB stack
	// mapped at launch), from the pool, not Linux.
	if p.ResidentLarge != 1<<30+stackBytes {
		t.Fatalf("resident %d after mmap", p.ResidentLarge)
	}
	if e.node.Mem.FreePages() != linuxFree {
		t.Fatal("hpmmap consumed Linux-managed memory")
	}
	if e.hp.PoolFreeBytes() != 12<<30-(1<<30)-stackBytes {
		t.Fatalf("pool free %d", e.hp.PoolFreeBytes())
	}
	// The eager cost covers zeroing 512 pages: ~512 * 328K cycles.
	if cost < 100e6 || cost > 400e6 {
		t.Fatalf("eager mmap cost %d outside expected band", cost)
	}
	// No faults, ever.
	st, err := e.touch(p, addr, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalFaults() != 0 {
		t.Fatalf("faults on hpmmap process: %+v", st.Faults)
	}
	for k := 0; k < fault.NumKinds; k++ {
		if p.Faults.Faults[k] != 0 {
			t.Fatalf("fault kind %d recorded", k)
		}
	}
}

func TestEverythingLargeMapped(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	addr, _, _ := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	if ps := e.node.PageSizeAt(p, addr); ps != pgtable.Page2M {
		t.Fatalf("page size %v", ps)
	}
	if p.LargeFraction() != 1 {
		t.Fatalf("large fraction %v", p.LargeFraction())
	}
}

func TestStackEagerlyMapped(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	// The stack region exists at RegionBase; touching it takes no faults.
	st, err := e.touch(p, RegionBase, stackBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalFaults() != 0 {
		t.Fatal("stack touch faulted")
	}
}

func TestSegfaultOnInvalidAccess(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	if _, err := e.node.TouchRange(p, 0xdead_0000_0000, 4096); err == nil {
		t.Fatal("access to unmapped memory did not fail")
	}
}

func TestBrkEager(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	base, _, err := e.node.Brk(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb, cost, err := e.node.Brk(p, base+pgtable.VirtAddr(100<<20))
	if err != nil {
		t.Fatal(err)
	}
	if nb != base+pgtable.VirtAddr(100<<20) {
		t.Fatalf("brk %#x", uint64(nb))
	}
	if cost < 10e6 {
		t.Fatalf("eager brk cost %d too cheap", cost)
	}
	st, err := e.touch(p, base, 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalFaults() != 0 {
		t.Fatal("heap touch faulted")
	}
	// Second grow extends the same region; the gap stays touchable.
	nb2, _, err := e.node.Brk(p, base+pgtable.VirtAddr(200<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, base, uint64(nb2-base)); err != nil {
		t.Fatal(err)
	}
	// Shrink keeps the mapping.
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(50<<20)); err != nil {
		t.Fatal(err)
	}
	if p.ResidentLarge < 200<<20 {
		t.Fatalf("resident %d after shrink (mapping should be kept)", p.ResidentLarge)
	}
}

func TestMunmapReturnsToPool(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	before := e.hp.PoolFreeBytes()
	addr, _, _ := e.node.Mmap(p, 256<<20, rw, vma.KindAnon)
	if _, err := e.node.Munmap(p, addr, 256<<20); err != nil {
		t.Fatal(err)
	}
	if e.hp.PoolFreeBytes() != before {
		t.Fatal("munmap leaked pool memory")
	}
	if _, err := e.node.TouchRange(p, addr, 4096); err == nil {
		t.Fatal("touch after munmap succeeded")
	}
}

func TestExitCleansRegistryAndPool(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	if _, _, err := e.node.Mmap(p, 1<<30, rw, vma.KindAnon); err != nil {
		t.Fatal(err)
	}
	e.node.Exit(p)
	if e.hp.Registered(p.PID) {
		t.Fatal("registry entry survives exit")
	}
	if e.hp.PoolFreeBytes() != 12<<30 {
		t.Fatalf("pool free %d after exit", e.hp.PoolFreeBytes())
	}
}

func TestPoolExhaustionFailsCleanly(t *testing.T) {
	e := newEnv(t, 2<<30, false)
	p, _ := e.hp.Launch("app", 0)
	if _, _, err := e.node.Mmap(p, 4<<30, rw, vma.KindAnon); err == nil {
		t.Fatal("mmap beyond pool size succeeded")
	}
	// The failed mmap must have rolled back fully.
	if e.hp.PoolFreeBytes() != 2<<30-stackBytes {
		t.Fatalf("pool free %d after failed mmap", e.hp.PoolFreeBytes())
	}
}

func TestIsolationFromCommodityPressure(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	// Saturate Linux's 4GB completely.
	for _, z := range e.node.Mem.Zones {
		e.node.PageCacheAdd(z.ID, z.FreePages()*mem.PageSize)
	}
	// HPMMAP allocation is unaffected.
	addr, _, err := e.node.Mmap(p, 1<<30, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.touch(p, addr, 1<<30)
	if err != nil || st.TotalFaults() != 0 {
		t.Fatalf("isolation violated: %v %+v", err, st.Faults)
	}
}

func TestDetailModeMapsLargePTEs(t *testing.T) {
	e := newEnv(t, 12<<30, true)
	p, _ := e.hp.Launch("app", 0)
	addr, _, _ := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	m, ok := p.PT.Walk(addr + 12345)
	if !ok || m.Size != pgtable.Page2M {
		t.Fatalf("PT walk: %+v %v", m, ok)
	}
	if p.PT.Mapped2M != 64/2+stackBytes/mem.LargePageSize {
		t.Fatalf("2M PTEs %d", p.PT.Mapped2M)
	}
	if _, err := e.node.Munmap(p, addr, 64<<20); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.PT.Walk(addr); ok {
		t.Fatal("PTE survives munmap")
	}
}

func TestMprotect(t *testing.T) {
	e := newEnv(t, 12<<30, true)
	p, _ := e.hp.Launch("app", 0)
	addr, _, _ := e.node.Mmap(p, 4<<20, rw, vma.KindAnon)
	if _, err := e.node.Mprotect(p, addr, 2<<20, pgtable.ProtRead); err != nil {
		t.Fatal(err)
	}
	m, _ := p.PT.Walk(addr)
	if m.Prot != pgtable.ProtRead {
		t.Fatalf("prot %v", m.Prot)
	}
	if _, err := e.node.Mprotect(p, 0xdead_0000_0000, 4096, rw); err == nil {
		t.Fatal("mprotect on unmapped succeeded")
	}
}

func TestUninstall(t *testing.T) {
	e := newEnv(t, 2<<30, false)
	p, _ := e.hp.Launch("app", 0)
	if err := e.hp.Uninstall(); err == nil {
		t.Fatal("uninstall with registered process succeeded")
	}
	e.node.Exit(p)
	if err := e.hp.Uninstall(); err != nil {
		t.Fatal(err)
	}
	if e.node.ManagerNameFor(p) == "hpmmap" {
		t.Fatal("routing still via hpmmap after uninstall")
	}
}

func TestMmapCostScalesWithSize(t *testing.T) {
	e := newEnv(t, 12<<30, false)
	p, _ := e.hp.Launch("app", 0)
	_, c1, err := e.node.Mmap(p, 2<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	_, c64, err := e.node.Mmap(p, 128<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(c64) / float64(c1)
	if ratio < 30 || ratio > 130 {
		t.Fatalf("cost ratio %v for 64x size", ratio)
	}
}

func TestUse1GPages(t *testing.T) {
	e := newEnv(t, 12<<30, true)
	e.hp.Use1GPages = true
	p, _ := e.hp.Launch("app", 0)
	addr, cost, err := e.node.Mmap(p, 3<<30, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("eager cost zero")
	}
	m, ok := p.PT.Walk(addr + 12345)
	if !ok || m.Size != pgtable.Page1G {
		t.Fatalf("walk: %+v %v — expected a 1GB mapping", m, ok)
	}
	if p.PT.Mapped1G == 0 {
		t.Fatal("no 1GB PTEs")
	}
	// Touch is still fault-free; teardown returns everything.
	if st, err := e.touch(p, addr, 3<<30); err != nil || st.TotalFaults() != 0 {
		t.Fatalf("touch: %v %+v", err, st)
	}
	e.node.Exit(p)
	if e.hp.PoolFreeBytes() != 12<<30 {
		t.Fatalf("pool free %d after exit", e.hp.PoolFreeBytes())
	}
}

func TestUse1GFallsBackWhenPoolFragmented(t *testing.T) {
	e := newEnv(t, 2<<30, false)
	e.hp.Use1GPages = true
	p, _ := e.hp.Launch("app", 0)
	// Fragment the pool below 1GB contiguity: the stack took 8MB already,
	// so a zone pool (1GB each) has no free 1GB block in zone 0.
	addr, _, err := e.node.Mmap(p, 1<<30, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	_ = addr
	if p.ResidentLarge < 1<<30 {
		t.Fatalf("resident %d; 2MB fallback should have covered the region", p.ResidentLarge)
	}
}

func TestForkUnsupportedByDesign(t *testing.T) {
	e := newEnv(t, 2<<30, false)
	p, _ := e.hp.Launch("app", 0)
	if _, _, err := e.node.Fork(p, "child"); err == nil {
		t.Fatal("fork of an HPMMAP process succeeded; the eager design cannot COW")
	}
	// Linux processes on the same node still fork fine.
	q, _ := e.node.NewProcess("make", true, 0)
	if _, _, err := e.node.Fork(q, "cc1"); err != nil {
		t.Fatalf("linux fork broken: %v", err)
	}
}

// Property: random mmap/brk/munmap sequences against the HPMMAP pool
// conserve bytes exactly and never double-allocate. Each fixed seed
// runs a brk out of pool partway through its extension, which must give
// back the blocks it took.
func TestHPMMAPPoolConservationProperty(t *testing.T) {
	for _, seed := range []uint64{
		13616096126777730079, 8549044061348418381, 6566938809802457500,
		15134337051322074616, 5554403597583006577,
	} {
		if !poolConserved(t, seed) {
			t.Fatalf("seed %d: pool not conserved", seed)
		}
	}
	check := func(seed uint64) bool { return poolConserved(t, seed) }
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// poolConserved runs 300 random mmap/munmap/brk calls from seed on a
// 4GB pool, checking after each that the pool's used bytes equal the
// process's large resident bytes, and after Exit that the pool is whole
// and nothing stays resident.
func poolConserved(t *testing.T, seed uint64) bool {
	e := newEnv(t, 4<<30, false)
	p, err := e.hp.Launch("fuzz", 0)
	if err != nil {
		t.Log(err)
		return false
	}
	r := sim.NewRand(seed)
	type reg struct {
		addr pgtable.VirtAddr
		size uint64
	}
	var live []reg
	brkBase, _, _ := e.node.Brk(p, 0)
	var brkLen uint64
	for op := 0; op < 300; op++ {
		switch r.Intn(4) {
		case 0, 1:
			size := uint64(1+r.Intn(64)) << 20
			addr, _, err := e.node.Mmap(p, size, rw, vma.KindAnon)
			if err == nil {
				live = append(live, reg{addr, size})
			}
		case 2:
			if len(live) > 0 {
				i := r.Intn(len(live))
				v := live[i]
				live = append(live[:i], live[i+1:]...)
				if _, err := e.node.Munmap(p, v.addr, v.size); err != nil {
					t.Logf("seed %d: munmap: %v", seed, err)
					return false
				}
			}
		case 3:
			grow := uint64(1+r.Intn(8)) << 20
			if _, _, err := e.node.Brk(p, brkBase+pgtable.VirtAddr(brkLen+grow)); err == nil {
				brkLen += grow
			}
		}
		// Conservation at every step: resident == total - free pool.
		used := e.hp.PoolTotalBytes() - e.hp.PoolFreeBytes()
		if used != p.ResidentLarge {
			t.Logf("seed %d op %d: pool used %d != resident %d", seed, op, used, p.ResidentLarge)
			return false
		}
	}
	e.node.Exit(p)
	if p.ResidentLarge != 0 {
		t.Logf("seed %d: %d bytes resident after exit", seed, p.ResidentLarge)
		return false
	}
	return e.hp.PoolFreeBytes() == e.hp.PoolTotalBytes()
}

// TestBackingIntoExhaustedPoolRollsBack runs a heap extension and an
// mmap into an exhausted pool at micro fidelity: each failed call must
// give back the blocks it took and unmap their page-table entries, so
// a retried call maps the same addresses again without a
// pt_map_conflict.
func TestBackingIntoExhaustedPoolRollsBack(t *testing.T) {
	e := newEnv(t, 512<<20, true)
	p, err := e.hp.Launch("app", 0)
	if err != nil {
		t.Fatal(err)
	}
	conserved := func(when string) {
		t.Helper()
		if used := e.hp.PoolTotalBytes() - e.hp.PoolFreeBytes(); used != p.ResidentLarge {
			t.Fatalf("%s: pool used %d != resident %d", when, used, p.ResidentLarge)
		}
	}
	addr, _, err := e.node.Mmap(p, 256<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := e.node.Brk(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(512<<20)); err == nil {
		t.Fatal("brk beyond the pool succeeded")
	}
	conserved("after the failed brk")
	if got, _, _ := e.node.Brk(p, 0); got != base {
		t.Fatalf("failed brk moved the break to %#x", uint64(got))
	}
	if _, _, err := e.node.Mmap(p, 512<<20, rw, vma.KindAnon); err == nil {
		t.Fatal("mmap beyond the pool succeeded")
	}
	conserved("after the failed mmap")
	if _, err := e.node.Munmap(p, addr, 256<<20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.node.Brk(p, base+pgtable.VirtAddr(64<<20)); err != nil {
		t.Fatal(err)
	}
	again, _, err := e.node.Mmap(p, 64<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	conserved("after the retried brk and mmap")
	for _, at := range []pgtable.VirtAddr{base, again} {
		if _, err := e.node.TouchRange(p, at, 64<<20); err != nil {
			t.Fatal(err)
		}
	}
	e.node.Exit(p)
	if p.ResidentLarge != 0 || p.ResidentRemote != 0 {
		t.Fatalf("resident large %d remote %d after exit", p.ResidentLarge, p.ResidentRemote)
	}
	if e.hp.PoolFreeBytes() != e.hp.PoolTotalBytes() {
		t.Fatalf("pool free %d of %d after exit", e.hp.PoolFreeBytes(), e.hp.PoolTotalBytes())
	}
}

package kernel

import (
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// fakeMM is a trivial eager manager for kernel-layer tests.
type fakeMM struct {
	name     string
	attached map[int]bool
	cursor   pgtable.VirtAddr
	touches  int
}

func newFakeMM(name string) *fakeMM {
	return &fakeMM{name: name, attached: map[int]bool{}, cursor: 0x1000_0000}
}

func (f *fakeMM) Name() string            { return f.name }
func (f *fakeMM) Attach(p *Process) error { f.attached[p.PID] = true; return nil }
func (f *fakeMM) Detach(p *Process)       { delete(f.attached, p.PID) }
func (f *fakeMM) Mmap(p *Process, length uint64, prot pgtable.Prot, kind vma.Kind) (pgtable.VirtAddr, sim.Cycles, error) {
	a := f.cursor
	f.cursor += pgtable.VirtAddr(length)
	return a, 100, nil
}
func (f *fakeMM) Munmap(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	return 50, nil
}
func (f *fakeMM) Brk(p *Process, newBrk pgtable.VirtAddr) (pgtable.VirtAddr, sim.Cycles, error) {
	return newBrk, 20, nil
}
func (f *fakeMM) Mprotect(p *Process, addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) (sim.Cycles, error) {
	return 30, nil
}
func (f *fakeMM) TouchRange(p *Process, addr pgtable.VirtAddr, length uint64) (sim.Cycles, error) {
	f.touches++
	return 0, nil
}
func (f *fakeMM) PageSizeAt(p *Process, va pgtable.VirtAddr) pgtable.PageSize {
	return pgtable.Page4K
}
func (f *fakeMM) StackRange(p *Process, bytes uint64) (pgtable.VirtAddr, uint64) {
	return 0x7000_0000, bytes
}

// fakeInterposer claims only registered PIDs.
type fakeInterposer struct {
	fakeMM
	pids map[int]bool
}

func (f *fakeInterposer) Registered(pid int) bool { return f.pids[pid] }

func newTestNode(t *testing.T) (*Node, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	n := NewNode(DellR415(), eng, sim.NewRand(1))
	n.SetDefaultMM(newFakeMM("default"))
	return n, eng
}

func TestNodeBoot(t *testing.T) {
	n, _ := newTestNode(t)
	cfg := n.Config()
	if n.NumCores() != 12 || cfg.NumaZones != 2 {
		t.Fatalf("cores=%d zones=%d", n.NumCores(), cfg.NumaZones)
	}
	// Cores split across zones.
	if n.ZoneOfCore(0) != 0 || n.ZoneOfCore(11) != 1 {
		t.Fatalf("zone of core 0=%d, 11=%d", n.ZoneOfCore(0), n.ZoneOfCore(11))
	}
	if got := n.Mem.TotalPages() * mem.PageSize; got != 16<<30 {
		t.Fatalf("memory %d", got)
	}
}

func TestProcessLifecycle(t *testing.T) {
	n, _ := newTestNode(t)
	p, err := n.NewProcess("app", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Process(p.PID) != p {
		t.Fatal("Process lookup failed")
	}
	fm := n.DefaultMM().(*fakeMM)
	if !fm.attached[p.PID] {
		t.Fatal("Attach not called")
	}
	n.Exit(p)
	if n.Process(p.PID) != nil {
		t.Fatal("process still registered after exit")
	}
	if fm.attached[p.PID] {
		t.Fatal("Detach not called")
	}
	n.Exit(p) // double exit is a no-op
}

func TestNewProcessWithoutMMFails(t *testing.T) {
	eng := sim.NewEngine()
	n := NewNode(DellR415(), eng, sim.NewRand(1))
	if _, err := n.NewProcess("app", false, 0); err == nil {
		t.Fatal("NewProcess without default MM succeeded")
	}
}

func TestSyscallRoutingViaInterposer(t *testing.T) {
	n, _ := newTestNode(t)
	ip := &fakeInterposer{fakeMM: *newFakeMM("hpmmap"), pids: map[int]bool{}}
	n.SetInterposer(ip)

	// Unregistered process goes to the default manager.
	p1, _ := n.NewProcess("commodity", true, 0)
	if n.ManagerNameFor(p1) != "default" {
		t.Fatalf("unregistered routed to %q", n.ManagerNameFor(p1))
	}
	// Register the next PID, then create: it routes to the interposer.
	ip.pids[n.NextPID()] = true
	p2, _ := n.NewProcess("hpc", false, 0)
	if n.ManagerNameFor(p2) != "hpmmap" {
		t.Fatalf("registered routed to %q", n.ManagerNameFor(p2))
	}
	if !ip.attached[p2.PID] {
		t.Fatal("interposer Attach not called for registered process")
	}
	if _, err := n.TouchRange(p2, 0x1000_0000, 4096); err != nil {
		t.Fatal(err)
	}
	if ip.touches != 1 {
		t.Fatal("touch not routed to interposer")
	}
	// Removing the module reroutes everything.
	n.SetInterposer(nil)
	if n.ManagerNameFor(p2) != "default" {
		t.Fatal("after module unload, process still routed to interposer")
	}
}

func TestSyscallChargesSyscallCost(t *testing.T) {
	n, _ := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	_, c, err := n.Mmap(p, 1<<20, pgtable.ProtRead, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if c != 100+sim.Cycles(n.Config().SyscallCost) {
		t.Fatalf("mmap cost %d", c)
	}
}

func TestFairShareScheduling(t *testing.T) {
	n, eng := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	a := n.NewTask(p, 0, 0.5)
	b := n.NewTask(p, 0, 0.5)
	var ea, eb sim.Cycles
	n.Run(a, 1000, 0, func(e sim.Cycles) { ea = e })
	n.Run(b, 1000, 0, func(e sim.Cycles) { eb = e })
	eng.RunUntil(1 << 40)
	// Two tasks sharing one core: both should take ~2x their work.
	if ea < 1000 || eb < 2000 {
		t.Fatalf("elapsed a=%d b=%d; expected sharing to stretch b to >=2000", ea, eb)
	}
}

func TestPinnedVsFloatingPlacement(t *testing.T) {
	n, eng := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	// Fill cores 0..5 with pinned tasks.
	for i := 0; i < 6; i++ {
		tk := n.NewTask(p, i, 0.5)
		n.Run(tk, 1_000_000, 0, func(sim.Cycles) {})
	}
	// A floating task must land on an idle core (6..11).
	f := n.NewTask(p, -1, 0.5)
	n.Run(f, 10, 0, func(sim.Cycles) {})
	if f.cur < 6 {
		t.Fatalf("floating task placed on busy core %d", f.cur)
	}
	eng.RunUntil(1 << 40)
}

func TestRunOnFinishedTaskPanics(t *testing.T) {
	n, _ := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	tk := n.NewTask(p, 0, 0)
	tk.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on finished task did not panic")
		}
	}()
	n.Run(tk, 10, 0, func(sim.Cycles) {})
}

func TestSleepLeavesRunqueue(t *testing.T) {
	n, eng := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	tk := n.NewTask(p, 0, 0.5)
	woke := false
	n.Sleep(tk, 5000, func() { woke = true })
	if n.cores[0].runnable != 0 {
		t.Fatal("sleeping task on runqueue")
	}
	eng.RunUntil(1 << 40)
	if !woke {
		t.Fatal("sleep callback not invoked")
	}
}

// TestCPULoad: 24 floating tasks on 12 idle cores leave two on every
// runqueue.
func TestCPULoad(t *testing.T) {
	n, eng := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	for i := 0; i < 24; i++ {
		tk := n.NewTask(p, -1, 0.3)
		n.Run(tk, 1_000_000, 0, func(sim.Cycles) {})
	}
	if len(n.cores) != 12 {
		t.Fatalf("%d cores, want 12", len(n.cores))
	}
	for i := range n.cores {
		if r := n.cores[i].runnable; r != 2 {
			t.Fatalf("core %d has %d runnable tasks with 24 tasks on 12 cores", i, r)
		}
	}
	eng.RunUntil(1 << 40)
}

func TestPageCacheAndKswapd(t *testing.T) {
	n, eng := newTestNode(t)
	// Fill zone 0 with page cache; growth is gated at the low watermark.
	z := n.Mem.Zones[0]
	target := z.FreePages() * mem.PageSize
	n.PageCacheAdd(0, target)
	if n.PageCachePages(0) == 0 {
		t.Fatal("page cache empty after add")
	}
	if z.FreePages() > z.WatermarkLow+(1<<8) {
		t.Fatalf("free pages %d well above low watermark %d despite giant add", z.FreePages(), z.WatermarkLow)
	}
	// Consume below the low watermark with ungated anon allocations so
	// kswapd has work to do.
	for z.FreePages() > z.WatermarkLow/2 {
		if _, ok := z.AllocPages(0); !ok {
			break
		}
	}
	// Let kswapd run a few periods.
	eng.RunUntil(sim.Cycles(n.Config().KswapdPeriod * 20))
	if n.KswapdRuns == 0 {
		t.Fatal("kswapd never ran")
	}
	if z.FreePages() < z.WatermarkLow {
		t.Fatalf("kswapd left free pages at %d (low=%d)", z.FreePages(), z.WatermarkLow)
	}
	_ = target
}

func TestPageCacheSelfRecycles(t *testing.T) {
	n, _ := newTestNode(t)
	// Try to add more cache than exists: must not wedge, must recycle.
	n.PageCacheAdd(0, 20<<30)
	if n.PCAllocFails == 0 {
		t.Fatal("expected allocation failures to trigger recycling")
	}
	if n.Mem.FreePages() == n.Mem.TotalPages() {
		t.Fatal("no cache resident after giant add")
	}
}

func TestDirectReclaimFreesCache(t *testing.T) {
	n, _ := newTestNode(t)
	z := n.Mem.Zones[0]
	n.PageCacheAdd(0, z.FreePages()*mem.PageSize/2)
	before := z.FreePages()
	if !n.DirectReclaim(0, mem.LargePageOrder) {
		t.Fatal("direct reclaim freed nothing despite cache present")
	}
	if z.FreePages() <= before {
		t.Fatal("free pages did not rise")
	}
}

func TestLoadForReflectsCommodityActivity(t *testing.T) {
	n, eng := newTestNode(t)
	hpc, _ := n.NewProcess("hpc", false, 0)
	build, _ := n.NewProcess("build", true, 0)
	l0 := n.LoadFor(hpc)
	if l0.AllocContention != 0 || l0.BandwidthLoad != 0 {
		t.Fatalf("idle load %+v", l0)
	}
	for i := 0; i < 8; i++ {
		tk := n.NewTask(build, -1, 0.5)
		n.Run(tk, 10_000_000, 0, func(sim.Cycles) {})
	}
	l1 := n.LoadFor(hpc)
	if l1.AllocContention <= 0 || l1.BandwidthLoad <= 0 {
		t.Fatalf("loaded snapshot %+v", l1)
	}
	// The commodity process does not count itself.
	l2 := n.LoadFor(build)
	if l2.AllocContention != 0 {
		t.Fatalf("build sees its own contention: %+v", l2)
	}
	eng.RunUntil(1 << 40)
}

func TestProcessResidencyHelpers(t *testing.T) {
	n, _ := newTestNode(t)
	p, _ := n.NewProcess("app", false, 0)
	if p.LargeFraction() != 0 {
		t.Fatal("fresh process has large fraction")
	}
	p.ResidentSmall = 1 << 20
	p.ResidentLarge = 3 << 20
	if p.ResidentBytes() != 4<<20 {
		t.Fatal("ResidentBytes wrong")
	}
	if f := p.LargeFraction(); f != 0.75 {
		t.Fatalf("LargeFraction %v", f)
	}
}

func TestMachineConfigConversions(t *testing.T) {
	cfg := DellR415()
	if s := cfg.Seconds(cfg.ClockHz); s != 1 {
		t.Fatalf("Seconds: %v", s)
	}
	if c := cfg.Cycles(2); c != 2*cfg.ClockHz {
		t.Fatalf("Cycles: %v", c)
	}
	sx := SandiaXeon()
	if sx.Cores != 8 || sx.MemoryBytes != 24<<30 {
		t.Fatalf("SandiaXeon: %+v", sx)
	}
}

func TestTouchStatsAccumulation(t *testing.T) {
	var a TouchStats
	a.Faults[0] = 3
	a.Cycles[0] = 300
	a.Faults[1] = 2
	a.Cycles[1] = 200
	a.Stalls = 1
	if a.TotalFaults() != 5 || a.Total() != 500 || a.Stalls != 1 {
		t.Fatalf("totals: %+v", a)
	}
}

func TestOOMKillPicksLargestCommodity(t *testing.T) {
	n, _ := newTestNode(t)
	hpc, _ := n.NewProcess("hpc", false, 0)
	hpc.ResidentLarge = 8 << 30
	small, _ := n.NewProcess("small-build", true, 0)
	small.ResidentSmall = 100 << 20
	big, _ := n.NewProcess("big-build", true, 0)
	big.ResidentSmall = 2 << 30
	victim := n.OOMKill()
	if victim != big {
		t.Fatalf("killed %v, want the largest commodity process", victim)
	}
	if !big.Exited {
		t.Fatal("victim not exited")
	}
	if hpc.Exited || small.Exited {
		t.Fatal("bystanders killed")
	}
	if n.OOMKills != 1 {
		t.Fatalf("OOMKills = %d", n.OOMKills)
	}
}

func TestOOMKillNeverTakesHPC(t *testing.T) {
	n, _ := newTestNode(t)
	hpc, _ := n.NewProcess("hpc", false, 0)
	hpc.ResidentLarge = 12 << 30
	if v := n.OOMKill(); v != nil {
		t.Fatalf("killed %v with only HPC processes alive", v)
	}
	if hpc.Exited {
		t.Fatal("HPC process killed")
	}
}

func TestCommitPressure(t *testing.T) {
	n, _ := newTestNode(t)
	if p := n.CommitPressure(); p != 0 {
		t.Fatalf("fresh commit pressure %v", p)
	}
	// Page cache does not count as committed.
	n.PageCacheAdd(0, 1<<30)
	if p := n.CommitPressure(); p > 0.01 {
		t.Fatalf("page cache counted as commitment: %v", p)
	}
	// Anonymous allocations do.
	z := n.Mem.Zones[1]
	taken := uint64(0)
	for taken < (4<<30)/mem.PageSize {
		if _, ok := z.AllocPages(mem.MaxOrder); !ok {
			break
		}
		taken += mem.PagesPerOrder(mem.MaxOrder)
	}
	if p := n.CommitPressure(); p < 0.2 {
		t.Fatalf("4GB anon commitment reads as %v", p)
	}
	// Reservations (allocated at boot, like hugetlb pools) shrink the
	// usable denominator: the same anon commitment reads higher.
	before := n.CommitPressure()
	z0 := n.Mem.Zones[0]
	reserved := uint64(0)
	for reserved < (6<<30)/mem.PageSize {
		if _, ok := z0.AllocPages(mem.MaxOrder); !ok {
			break
		}
		reserved += mem.PagesPerOrder(mem.MaxOrder)
	}
	n.SetReservedBytes(reserved * mem.PageSize)
	after := n.CommitPressure()
	if after <= before {
		t.Fatalf("reservation did not raise commitment: %v -> %v", before, after)
	}
}

func TestBandwidthTimesharing(t *testing.T) {
	n, _ := newTestNode(t)
	victim, _ := n.NewProcess("victim", false, 0)
	hog, _ := n.NewProcess("hog", true, 0)
	// Four streaming tasks pinned to ONE core timeshare it: their
	// aggregate bandwidth draw is one task's worth, not four.
	for i := 0; i < 4; i++ {
		tk := n.NewTask(hog, 3, 0.6)
		n.Run(tk, 100_000_000, 0, func(sim.Cycles) {})
	}
	shared := n.LoadFor(victim).BandwidthLoad
	// The same four tasks on four different cores stream concurrently.
	n2, _ := newTestNode(t)
	victim2, _ := n2.NewProcess("victim", false, 0)
	hog2, _ := n2.NewProcess("hog", true, 0)
	for i := 0; i < 4; i++ {
		tk := n2.NewTask(hog2, 3+i, 0.6)
		n2.Run(tk, 100_000_000, 0, func(sim.Cycles) {})
	}
	spread := n2.LoadFor(victim2).BandwidthLoad
	if spread < 3*shared {
		t.Fatalf("spread load %v not >> timeshared load %v", spread, shared)
	}
}

func TestSwapDevice(t *testing.T) {
	s := NewSwapDevice(1 << 30)
	if s.TotalPages != 262144 || s.FreePages() != 262144 {
		t.Fatalf("geometry: %d/%d", s.TotalPages, s.FreePages())
	}
	if got := s.Reserve(1000); got != 1000 {
		t.Fatalf("reserve granted %d", got)
	}
	if s.UsedPages() != 1000 {
		t.Fatalf("used %d", s.UsedPages())
	}
	// Over-reservation grants only what is left.
	if got := s.Reserve(1 << 30); got != 262144-1000 {
		t.Fatalf("over-reserve granted %d", got)
	}
	if s.FreePages() != 0 {
		t.Fatal("free pages after exhaustion")
	}
	s.Release(262144)
	if s.UsedPages() != 0 {
		t.Fatalf("used %d after release", s.UsedPages())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	s.Release(1)
}

func TestNodeSwapLazyInit(t *testing.T) {
	n, _ := newTestNode(t)
	if n.Swap() == nil || n.Swap() != n.Swap() {
		t.Fatal("Swap() not a stable singleton")
	}
	if n.Swap().TotalPages != (8<<30)/4096 {
		t.Fatalf("default swap size %d pages", n.Swap().TotalPages)
	}
}

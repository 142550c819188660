package hpmmap

import "testing"

func TestNewDefaults(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Manager() != ManagerHPMMAP {
		t.Fatalf("default manager %q", sys.Manager())
	}
	// 12GB offlined: Linux sees 4GB.
	if got := sys.FreeMemory(); got > 4<<30 {
		t.Fatalf("free memory %d after offlining", got)
	}
	if sys.PoolFree() != 12<<30 {
		t.Fatalf("pool free %d", sys.PoolFree())
	}
}

// TestNewBootReadings pins what New boots for both presets under every
// manager, with the paper's pool and with an explicit one: the memory
// left to Linux, the HPMMAP pool, and the cost and faults of a first
// 64MB mmap and touch by an HPC process. THP ignores PoolBytes.
func TestNewBootReadings(t *testing.T) {
	cases := []struct {
		machine          string
		mgr              Manager
		pool             uint64
		free, poolFree   uint64
		mmapCost, faults uint64
		faultCycles      uint64
	}{
		{"dell-r415", ManagerTHP, 0, 17112760320, 0, 1833, 543, 11593435},
		{"dell-r415", ManagerTHP, 2 << 30, 17112760320, 0, 1833, 543, 11593435},
		{"dell-r415", ManagerHugeTLBfs, 0, 4294967296, 0, 1833, 32, 18933052},
		{"dell-r415", ManagerHugeTLBfs, 2 << 30, 15032385536, 0, 1833, 32, 18933052},
		{"dell-r415", ManagerHPMMAP, 0, 4294967296, 12809404416, 10045488, 0, 0},
		{"dell-r415", ManagerHPMMAP, 2 << 30, 15032385536, 2071986176, 10045488, 0, 0},
		{"sandia-xeon", ManagerTHP, 0, 25702694912, 0, 1833, 543, 11593435},
		{"sandia-xeon", ManagerTHP, 2 << 30, 25702694912, 0, 1833, 543, 11593435},
		{"sandia-xeon", ManagerHugeTLBfs, 0, 4294967296, 0, 1833, 32, 18933052},
		{"sandia-xeon", ManagerHugeTLBfs, 2 << 30, 23622320128, 0, 1833, 32, 18933052},
		{"sandia-xeon", ManagerHPMMAP, 0, 4294967296, 21399339008, 10045488, 0, 0},
		{"sandia-xeon", ManagerHPMMAP, 2 << 30, 23622320128, 2071986176, 10045488, 0, 0},
	}
	for _, c := range cases {
		sys, err := New(Config{Machine: c.machine, Manager: c.mgr, PoolBytes: c.pool, Seed: 7})
		if err != nil {
			t.Fatalf("%s/%s/pool %d: %v", c.machine, c.mgr, c.pool, err)
		}
		p, err := sys.LaunchHPC("solver")
		if err != nil {
			t.Fatal(err)
		}
		addr, cost, err := p.Mmap(64 << 20)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Touch(addr, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		if sys.FreeMemory() != c.free || sys.PoolFree() != c.poolFree || cost != c.mmapCost ||
			rep.Faults != c.faults || rep.Cycles != c.faultCycles {
			t.Errorf("%s/%s/pool %d: free %d pool %d mmap %d faults %d (%d cycles), want %d %d %d %d (%d)",
				c.machine, c.mgr, c.pool, sys.FreeMemory(), sys.PoolFree(), cost, rep.Faults, rep.Cycles,
				c.free, c.poolFree, c.mmapCost, c.faults, c.faultCycles)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Machine: "cray"}); err == nil {
		t.Fatal("bad machine accepted")
	}
	if _, err := New(Config{Manager: "slab"}); err == nil {
		t.Fatal("bad manager accepted")
	}
}

func TestHPMMAPZeroFaultPath(t *testing.T) {
	sys, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.LaunchHPC("solver")
	if err != nil {
		t.Fatal(err)
	}
	if p.ManagedBy() != "hpmmap" {
		t.Fatalf("managed by %q", p.ManagedBy())
	}
	addr, cost, err := p.Mmap(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if cost == 0 {
		t.Fatal("eager mmap cost zero")
	}
	rep, err := p.Touch(addr, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 0 {
		t.Fatalf("faults on hpmmap process: %+v", rep)
	}
	if p.LargePageFraction() != 1 {
		t.Fatalf("large fraction %v", p.LargePageFraction())
	}
	if err := p.Munmap(addr, 1<<30); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if sys.PoolFree() != 12<<30 {
		t.Fatalf("pool leaked: %d", sys.PoolFree())
	}
}

func TestTHPFaultPath(t *testing.T) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.LaunchHPC("solver")
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := p.Mmap(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Touch(addr, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind["large"] == 0 {
		t.Fatalf("no THP large faults: %+v", rep)
	}
	small, large := p.Resident()
	if small+large < 64<<20 {
		t.Fatalf("resident %d+%d", small, large)
	}
	tot := p.FaultTotals()
	if tot.Faults == 0 || tot.Cycles == 0 {
		t.Fatalf("totals %+v", tot)
	}
}

func TestHugeTLBfsPath(t *testing.T) {
	sys, err := New(Config{Manager: ManagerHugeTLBfs, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.LaunchHPC("solver")
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := p.Mmap(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Touch(addr, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByKind["hugetlb-large"] == 0 {
		t.Fatalf("no hugetlb faults: %+v", rep)
	}
}

func TestBuildAndAdvance(t *testing.T) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := sys.StartKernelBuild(8)
	sys.Advance(5)
	if sys.Now() < 5 {
		t.Fatalf("Now = %v", sys.Now())
	}
	if b.Compiles() == 0 {
		t.Fatal("no compiles after 5 simulated seconds")
	}
	b.Stop()
}

func TestCommodityRouting(t *testing.T) {
	sys, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := sys.LaunchCommodity("browser")
	if err != nil {
		t.Fatal(err)
	}
	if c.ManagedBy() == "hpmmap" {
		t.Fatal("commodity process routed to hpmmap")
	}
	if c.PID() == 0 {
		t.Fatal("no pid")
	}
}

func TestMlockAllFacade(t *testing.T) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.LaunchHPC("pinner")
	addr, _, _ := p.Mmap(32 << 20)
	if _, err := p.Touch(addr, 32<<20); err != nil {
		t.Fatal(err)
	}
	if p.LargePageFraction() == 0 {
		t.Fatal("setup: no large pages")
	}
	if err := p.MlockAll(); err != nil {
		t.Fatal(err)
	}
	if p.LargePageFraction() != 0 {
		t.Fatalf("large fraction %v after mlockall (THP must split)", p.LargePageFraction())
	}
	// HPMMAP: a no-op that keeps large pages.
	sys2, _ := New(Config{Seed: 6})
	q, _ := sys2.LaunchHPC("pinner")
	qaddr, _, _ := q.Mmap(32 << 20)
	_ = qaddr
	if err := q.MlockAll(); err != nil {
		t.Fatal(err)
	}
	if q.LargePageFraction() != 1 {
		t.Fatal("hpmmap lost large pages to mlockall")
	}
}

func TestUse1GPagesFacade(t *testing.T) {
	sys, err := New(Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetUse1GPages(true)
	p, _ := sys.LaunchHPC("big")
	if _, _, err := p.Mmap(2 << 30); err != nil {
		t.Fatal(err)
	}
	if p.LargePageFraction() != 1 {
		t.Fatal("1G mode lost large coverage")
	}
}

func TestRunBenchmarkFacade(t *testing.T) {
	res, err := RunBenchmark(BenchmarkOptions{
		Benchmark: "HPCCG",
		Manager:   ManagerTHP,
		Profile:   "A",
		Ranks:     2,
		Seed:      3,
		Scale:     0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSeconds <= 0 || res.Faults.Faults == 0 {
		t.Fatalf("result %+v", res)
	}
	if _, err := RunBenchmark(BenchmarkOptions{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunBenchmark(BenchmarkOptions{Benchmark: "HPCCG", Profile: "Z"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := RunBenchmark(BenchmarkOptions{Benchmark: "HPCCG", Manager: "slab"}); err == nil {
		t.Fatal("unknown manager accepted")
	}
}

func TestRunClusterBenchmarkFacade(t *testing.T) {
	res, err := RunClusterBenchmark(BenchmarkOptions{
		Benchmark: "HPCCG",
		Manager:   ManagerHPMMAP,
		Profile:   "C",
		Ranks:     8,
		Seed:      3,
		Scale:     0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeSeconds <= 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Faults.Faults != 0 {
		t.Fatalf("hpmmap cluster run faulted: %+v", res.Faults)
	}
	// Under THP the ranks' faults stall behind the kernel builds, and
	// the report must add those stalls up like RunBenchmark's does.
	for _, prof := range []string{"C", "D"} {
		res, err := RunClusterBenchmark(BenchmarkOptions{
			Benchmark: "HPCCG",
			Manager:   ManagerTHP,
			Profile:   prof,
			Ranks:     8,
			Seed:      3,
			Scale:     0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.Faults == 0 || res.Faults.Stalls == 0 {
			t.Fatalf("thp cluster run under profile %s: %+v", prof, res.Faults)
		}
	}
}

func TestRunFaultStudyFacade(t *testing.T) {
	rows, err := RunFaultStudy("miniFE", ManagerTHP, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Loaded || !rows[1].Loaded {
		t.Fatal("row order wrong")
	}
	if rows[0].Kinds["small"].Count == 0 {
		t.Fatalf("no small faults: %+v", rows[0].Kinds)
	}
	if _, err := RunFaultStudy("miniFE", "bogus", 3, 0.25); err == nil {
		t.Fatal("bogus manager accepted")
	}
}

func TestRunFaultStudyRejectsProfile(t *testing.T) {
	for _, prof := range []string{"bogus", "none", "A"} {
		rows, err := RunFaultStudyOptions(BenchmarkOptions{Benchmark: "miniMD", Manager: ManagerTHP, Profile: prof, Scale: 0.05})
		if err == nil {
			t.Fatalf("Profile %q accepted: %d rows", prof, len(rows))
		}
	}
}

func TestTimelineFacade(t *testing.T) {
	plot, err := Timeline("miniFE", ManagerTHP, true, 3, 0.25, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plot) == 0 || plot == "(no faults)\n" {
		t.Fatalf("plot %q", plot)
	}
}

func TestAnalyticsFacade(t *testing.T) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	a := sys.StartAnalytics()
	sys.Advance(10)
	if a.Passes() == 0 {
		t.Fatal("no analytics passes in 10 simulated seconds")
	}
	a.Stop()
}

func TestDetailModeFacade(t *testing.T) {
	sys, err := New(Config{Manager: ManagerTHP, Seed: 13, Detail: true})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sys.LaunchHPC("micro")
	addr, _, _ := p.Mmap(16 << 20)
	rep, err := p.Touch(addr, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 {
		t.Fatal("no faults in detail mode")
	}
}

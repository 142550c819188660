package thp

import (
	"testing"

	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

type env struct {
	eng  *sim.Engine
	node *kernel.Node
	mgr  *linuxmm.Manager
	d    *Daemon
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.NewEngine()
	node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(11))
	mgr := linuxmm.New(node, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
	node.SetDefaultMM(mgr)
	d := Start(node, mgr)
	return &env{eng: eng, node: node, mgr: mgr, d: d}
}

// touch runs one Node.TouchRange and returns the faults it charged: the
// change in p.Faults over the call.
func (e *env) touch(p *kernel.Process, addr pgtable.VirtAddr, length uint64) (kernel.TouchStats, error) {
	before := p.Faults
	_, err := e.node.TouchRange(p, addr, length)
	return p.Faults.Since(before), err
}

// forceFallbacks creates a process whose THP faults all fall back small.
func forceFallbacks(t *testing.T, e *env) *kernel.Process {
	t.Helper()
	e.mgr.THPFallbackBase = 1.0  // every chunk falls back
	e.mgr.THPFragSensitivity = 0 // and no compaction recovery either
	p, err := e.node.NewProcess("app", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr, _, err := e.node.Mmap(p, 16<<20, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, addr, 16<<20); err != nil {
		t.Fatal(err)
	}
	e.mgr.THPFallbackBase = 0
	return p
}

func TestDaemonMergesFallbackChunks(t *testing.T) {
	e := newEnv(t)
	p := forceFallbacks(t, e)
	if p.ResidentSmall == 0 {
		t.Fatal("setup: fallbacks produced no small pages")
	}
	large := p.ResidentLarge
	small := p.ResidentSmall
	_ = large
	// Run long enough for several scan periods.
	e.eng.RunUntil(sim.Cycles(e.node.Config().KhugepagedScanPeriod * 12))
	if e.d.Scans == 0 {
		t.Fatal("daemon never scanned")
	}
	if e.d.Merges == 0 {
		t.Fatal("daemon never merged")
	}
	if p.ResidentLarge <= large {
		t.Fatal("merges did not convert residency to large pages")
	}
	if p.ResidentSmall >= small {
		t.Fatal("merges did not shrink small residency")
	}
}

func TestMergesDepositStalls(t *testing.T) {
	e := newEnv(t)
	p := forceFallbacks(t, e)
	e.eng.RunUntil(sim.Cycles(e.node.Config().KhugepagedScanPeriod * 6))
	if e.d.Merges == 0 {
		t.Skip("no merges in window (timing)")
	}
	// Merge-blocked stalls are charged on the process's next fault
	// activity; the mm lock timestamp is also published.
	total := p.Faults.Faults
	_ = total
	if p.MMLockedUntil == 0 {
		t.Fatal("mm lock never taken")
	}
	// Trigger fault activity and observe the merge-blocked charge.
	addr, _, _ := e.node.Mmap(p, 1<<20, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	st, err := e.touch(p, addr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults[2] == 0 { // fault.KindMergeBlocked
		t.Fatal("no merge-blocked fault charged after merges")
	}
}

func TestDaemonIdleWithNoCandidates(t *testing.T) {
	e := newEnv(t)
	p, _ := e.node.NewProcess("app", false, 0)
	addr, _, _ := e.node.Mmap(p, 16<<20, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	e.mgr.THPFallbackBase = 0
	if _, err := e.node.TouchRange(p, addr, 16<<20); err != nil {
		t.Fatal(err)
	}
	e.eng.RunUntil(sim.Cycles(e.node.Config().KhugepagedScanPeriod * 6))
	if e.d.Merges != 0 {
		t.Fatalf("merged %d with no fallback chunks", e.d.Merges)
	}
	if len(p.PendingMergeCosts) != 0 {
		t.Fatal("stalls deposited with no merges")
	}
}

func TestMergeSkipsExitedProcess(t *testing.T) {
	e := newEnv(t)
	p := forceFallbacks(t, e)
	e.node.Exit(p)
	e.eng.RunUntil(sim.Cycles(e.node.Config().KhugepagedScanPeriod * 6))
	if e.d.Merges != 0 {
		t.Fatal("daemon merged into an exited process")
	}
}

func TestMergeRoundRobinAcrossProcesses(t *testing.T) {
	e := newEnv(t)
	a := forceFallbacks(t, e)
	b := forceFallbacks(t, e)
	e.eng.RunUntil(sim.Cycles(e.node.Config().KhugepagedScanPeriod * 30))
	if a.ResidentLarge == 0 || b.ResidentLarge == 0 {
		t.Fatalf("merges not distributed: a=%d b=%d", a.ResidentLarge, b.ResidentLarge)
	}
}

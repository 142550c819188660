// Package hpmmap is the public API of the HPMMAP reproduction: a
// simulation of the lightweight memory-management architecture from
// "HPMMAP: Lightweight Memory Management for Commodity Operating Systems"
// (Kocoloski & Lange, IPDPS 2014), together with the commodity baselines
// it was evaluated against (Transparent Huge Pages and HugeTLBfs) and the
// paper's full experimental harness.
//
// A System is one simulated compute node: cores, NUMA memory, a Linux
// memory-management model, and optionally the HPMMAP kernel module with
// its offlined memory pool. Processes launched through the HPMMAP tool
// are registered in its PID table and get eagerly backed, large-page
// mapped, isolated memory; everything else demand-pages through Linux.
//
//	sys, _ := hpmmap.New(hpmmap.Config{Manager: hpmmap.ManagerHPMMAP})
//	p, _ := sys.LaunchHPC("solver")
//	addr, _, _ := p.Mmap(1 << 30)
//	rep, _ := p.Touch(addr, 1<<30) // rep.Faults == 0: on-request allocation
//
// The experiment harness behind `hpmmap-bench` is exposed through
// RunBenchmark, RunClusterBenchmark and RunFaultStudy.
package hpmmap

import (
	"fmt"

	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
	"hpmmap/internal/workload"
)

// Manager selects the memory-management configuration of a System.
type Manager string

// The paper's three configurations.
const (
	// ManagerTHP: Linux with Transparent Huge Pages for every process.
	ManagerTHP Manager = "thp"
	// ManagerHugeTLBfs: the HPC side uses a preallocated hugetlbfs pool
	// via libhugetlbfs; THP is disabled.
	ManagerHugeTLBfs Manager = "hugetlbfs"
	// ManagerHPMMAP: the HPMMAP module is loaded with an offlined pool;
	// commodity processes stay on Linux THP.
	ManagerHPMMAP Manager = "hpmmap"
)

// Config describes a simulated node.
type Config struct {
	// Machine preset: "dell-r415" (default; the paper's single-node
	// testbed) or "sandia-xeon" (one node of the 8-node cluster).
	Machine string
	// Manager configuration; default ManagerHPMMAP.
	Manager Manager
	// PoolBytes is the memory offlined for HPMMAP or reserved for
	// hugetlbfs. Default: the paper's values (12GB single node, 20GB
	// cluster node).
	PoolBytes uint64
	// Seed makes the simulation deterministic; same seed, same run.
	Seed uint64
	// Detail enables micro fidelity: per-fault records and real page
	// tables (slower; used for fault studies).
	Detail bool
}

// System is one simulated node.
type System struct {
	rig *experiments.Rig
	mgr Manager
}

// New boots a node.
func New(cfg Config) (*System, error) {
	var mc kernel.MachineConfig
	switch cfg.Machine {
	case "", "dell-r415":
		mc = kernel.DellR415()
	case "sandia-xeon":
		mc = kernel.SandiaXeon()
	default:
		return nil, fmt.Errorf("hpmmap: unknown machine preset %q", cfg.Machine)
	}
	if cfg.Manager == "" {
		cfg.Manager = ManagerHPMMAP
	}
	kind, err := managerKind(cfg.Manager)
	if err != nil {
		return nil, err
	}
	rig, err := experiments.Boot(mc, sim.NewEngine(), cfg.Seed, kind, cfg.Detail, 1, cfg.PoolBytes)
	if err != nil {
		return nil, err
	}
	return &System{rig: rig, mgr: cfg.Manager}, nil
}

// Manager reports the active configuration.
func (s *System) Manager() Manager { return s.mgr }

// SetUse1GPages switches HPMMAP to 1GB pages for gigabyte-scale regions
// (no effect under other managers).
func (s *System) SetUse1GPages(v bool) {
	if s.rig.HP != nil {
		s.rig.HP.Use1GPages = v
	}
}

// Advance runs the simulation forward by the given number of seconds of
// simulated time (background daemons, builds and processes all progress).
func (s *System) Advance(seconds float64) {
	s.rig.Eng.RunUntil(s.rig.Eng.Now() + sim.Cycles(s.rig.Node.Config().Cycles(seconds)))
}

// Now returns the simulated time in seconds since boot.
func (s *System) Now() float64 {
	return s.rig.Node.Config().Seconds(float64(s.rig.Eng.Now()))
}

// FreeMemory returns the bytes Linux's allocator has free (offlined and
// reserved memory excluded).
func (s *System) FreeMemory() uint64 {
	return s.rig.Node.Mem.FreePages() * 4096
}

// PoolFree returns the free bytes in HPMMAP's offlined pool (zero for
// other managers).
func (s *System) PoolFree() uint64 {
	if s.rig.HP == nil {
		return 0
	}
	return s.rig.HP.PoolFreeBytes()
}

// LaunchHPC starts an HPC process. Under ManagerHPMMAP it goes through
// the registration launch tool (so its memory calls are interposed);
// otherwise it is an ordinary Linux process using the HPC-side policy.
func (s *System) LaunchHPC(name string) (*Process, error) {
	p, err := s.rig.Launcher()(name, 0)
	if err != nil {
		return nil, err
	}
	return &Process{sys: s, p: p}, nil
}

// LaunchCommodity starts a commodity process (always Linux-managed).
func (s *System) LaunchCommodity(name string) (*Process, error) {
	p, err := s.rig.Node.NewProcess(name, true, 0)
	if err != nil {
		return nil, err
	}
	return &Process{sys: s, p: p}, nil
}

// StartKernelBuild launches a parallel kernel build (the paper's
// interference workload) with the given -j level. Call Stop on the result
// to end it.
func (s *System) StartKernelBuild(jobs int) *Build {
	b := workload.StartBuild(s.rig.Node, workload.KernelBuild(jobs), s.rig.Node.Rand().Uint64())
	return &Build{b: b}
}

// Build is a running kernel build.
type Build struct{ b *workload.Build }

// Stop halts the build.
func (b *Build) Stop() { b.b.Stop() }

// Compiles reports completed compilation units.
func (b *Build) Compiles() uint64 { return b.b.Compiles }

// StartAnalytics launches an in-situ analytics/visualization consumer —
// the paper's motivating co-location scenario: every few seconds it
// ingests a multi-GB snapshot of simulation output, crunches it with
// bandwidth-heavy compute, and emits results to the page cache.
func (s *System) StartAnalytics() *Analytics {
	a := workload.StartAnalytics(s.rig.Node, workload.VizPipeline(), s.rig.Node.Rand().Uint64())
	return &Analytics{a: a}
}

// Analytics is a running in-situ consumer.
type Analytics struct{ a *workload.Analytics }

// Stop halts the consumer.
func (a *Analytics) Stop() { a.a.Stop() }

// Passes reports completed analysis passes.
func (a *Analytics) Passes() uint64 { return a.a.Passes }

// Process is one simulated process.
type Process struct {
	sys *System
	p   *kernel.Process
}

// PID returns the process ID.
func (p *Process) PID() int { return p.p.PID }

// ManagedBy reports which memory manager serves this process's memory
// system calls right now.
func (p *Process) ManagedBy() string { return p.sys.rig.Node.ManagerNameFor(p.p) }

// Mmap creates an anonymous mapping and returns its address and the
// simulated cycles the call took. Under HPMMAP the region is backed
// eagerly (on-request allocation), so the cost covers zeroing it.
func (p *Process) Mmap(bytes uint64) (uint64, uint64, error) {
	addr, cost, err := p.sys.rig.Node.Mmap(p.p, bytes, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	return uint64(addr), uint64(cost), err
}

// Munmap removes a mapping created by Mmap.
func (p *Process) Munmap(addr, bytes uint64) error {
	_, err := p.sys.rig.Node.Munmap(p.p, pgtable.VirtAddr(addr), bytes)
	return err
}

// FaultReport summarizes the faults taken by one Touch.
type FaultReport struct {
	// Faults is the total count; Cycles the total service time.
	Faults uint64
	Cycles uint64
	// ByKind maps fault kind names ("small", "large", "merge",
	// "hugetlb-large", "hugetlb-small") to counts.
	ByKind map[string]uint64
	// Stalls counts reclaim storms and merge waits.
	Stalls uint64
}

// Touch simulates the process accessing [addr, addr+bytes) for the first
// time, demand-paging as the active manager dictates. HPMMAP processes
// take zero faults on valid ranges.
func (p *Process) Touch(addr, bytes uint64) (FaultReport, error) {
	before := p.p.Faults
	if _, err := p.sys.rig.Node.TouchRange(p.p, pgtable.VirtAddr(addr), bytes); err != nil {
		return FaultReport{}, err
	}
	return reportOf(p.p.Faults.Since(before)), nil
}

func reportOf(st kernel.TouchStats) FaultReport {
	rep := FaultReport{ByKind: map[string]uint64{}, Stalls: st.Stalls}
	for k := 0; k < fault.NumKinds; k++ {
		if st.Faults[k] == 0 {
			continue
		}
		rep.ByKind[fault.Kind(k).String()] = st.Faults[k]
		rep.Faults += st.Faults[k]
		rep.Cycles += uint64(st.Cycles[k])
	}
	return rep
}

// FaultTotals returns the process's lifetime fault report.
func (p *Process) FaultTotals() FaultReport { return reportOf(p.p.Faults) }

// Resident returns (small-page bytes, large-page bytes) currently backing
// the process.
func (p *Process) Resident() (small, large uint64) {
	return p.p.ResidentSmall, p.p.ResidentLarge
}

// LargePageFraction reports how much of the resident set is 2MB-mapped.
func (p *Process) LargePageFraction() float64 { return p.p.LargeFraction() }

// MlockAll pins the process's resident set (the mlockall system call).
// Under Linux THP this splits every large page into pinned small pages —
// the paper's Section II-B pitfall; under HPMMAP memory is unswappable
// already and the call is a cheap no-op.
func (p *Process) MlockAll() error {
	if p.sys.rig.Node.ManagerNameFor(p.p) == "hpmmap" {
		return nil // offlined memory never swaps
	}
	_, err := p.sys.rig.MM.MlockAll(p.p)
	return err
}

// Exit terminates the process, releasing all memory (and, under HPMMAP,
// its registry entry).
func (p *Process) Exit() { p.sys.rig.Node.Exit(p.p) }

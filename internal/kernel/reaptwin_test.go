package kernel_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/thp"
	"hpmmap/internal/vma"
)

// twin is one node of an ExitReap/Exit pair: the same machine, seed,
// managers and khugepaged, so the two differ only in how processes
// exit.
type twin struct {
	node   *kernel.Node
	mm     *linuxmm.Manager
	daemon *thp.Daemon
	reg    *metrics.Registry
	exit   func(*kernel.Process)
}

func newTwin(seed uint64, reap bool) *twin {
	mc := kernel.DellR415()
	mc.MemoryBytes = 512 << 20
	mc.KhugepagedScanPeriod = mc.Cycles(0.002)
	n := kernel.NewNode(mc, sim.NewEngine(), sim.NewRand(seed))
	n.Detail = true
	mm := linuxmm.New(n, linuxmm.ModeTHP, linuxmm.ModeTHP, nil)
	// Half of all THP faults fall back to small pages, so khugepaged
	// always finds candidates and keeps opening mm-lock windows.
	mm.THPFallbackBase = 0.5
	n.SetDefaultMM(mm)
	tw := &twin{node: n, mm: mm, daemon: thp.Start(n, mm), reg: metrics.NewRegistry(), exit: n.Exit}
	if reap {
		tw.exit = n.ExitReap
	}
	n.Observe(tw.reg, nil)
	mm.Observe(tw.reg)
	tw.daemon.Observe(tw.reg, nil)
	return tw
}

// pooled reports whether a metric line is a pool counter, the only
// thing the two exit paths may disagree on.
func pooled(line string) bool {
	return strings.Contains(line, "kernel_lifecycle_") || strings.Contains(line, metrics.LinuxmmRegionPoolReusesTotal)
}

// state renders every simulated quantity of the node, one line per
// item: the engine clock and event count, each zone's free pages, free
// blocks per order and page cache, the node, manager and khugepaged
// counters, the metric snapshot without its pool counters, and per live
// process its identity, mm-lock window, pending stalls, residency,
// faults, address space (break, counters and every VMA) and page table
// (counters and a hash of every leaf).
func (tw *twin) state() []string {
	n := tw.node
	out := []string{fmt.Sprintf("clock %d events %d", n.Now(), n.Engine().Executed())}
	for i, z := range n.Mem.Zones {
		line := fmt.Sprintf("zone %d free %d pagecache %d blocks", i, z.FreePages(), n.PageCachePages(i))
		for o := 0; o <= mem.MaxOrder; o++ {
			line += fmt.Sprintf(" %d", z.FreeBlocksAt(o))
		}
		if err := z.CheckInvariants(); err != nil {
			line += " " + err.Error()
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("node kswapd %d pcfails %d reclaimed %d oom %d nextpid %d",
		n.KswapdRuns, n.PCAllocFails, n.ReclaimedPages, n.OOMKills, n.NextPID()))
	out = append(out, fmt.Sprintf("khugepaged scans %d merges %d failed %d", tw.daemon.Scans, tw.daemon.Merges, tw.daemon.FailedMerges))
	var snap bytes.Buffer
	if err := tw.reg.Snapshot().WriteText(&snap); err != nil {
		out = append(out, err.Error())
	}
	for _, line := range strings.Split(snap.String(), "\n") {
		if !pooled(line) {
			out = append(out, line)
		}
	}
	n.Processes(func(p *kernel.Process) {
		out = append(out, fmt.Sprintf("pid %d %s zone %d commodity %v exited %v mmlock %d pending %v %v resident %d/%d/%d faults %v",
			p.PID, p.Name, p.PreferredZone, p.Commodity, p.Exited, p.MMLockedUntil, p.PendingMergeCosts, p.PendingEvictCosts,
			p.ResidentSmall, p.ResidentLarge, p.ResidentRemote, p.Faults))
		s := p.Space
		out = append(out, fmt.Sprintf("  space brk %#x maps %d unmaps %d splits %d merges %d", s.Brk(), s.Maps, s.Unmaps, s.Splits, s.Merges))
		for _, v := range s.VMAs() {
			out = append(out, fmt.Sprintf("  vma %s locked %v", v, v.Locked))
		}
		t := p.PT
		h := fnv.New64a()
		t.Range(func(va pgtable.VirtAddr, m pgtable.Mapping) bool {
			fmt.Fprintf(h, "%x %x %d %d;", va, m.PFN, m.Size, m.Prot)
			return true
		})
		out = append(out, fmt.Sprintf("  pt 4k %d 2m %d 1g %d tables %d maps %d unmaps %d splits %d walked %d leaves %x",
			t.Mapped4K, t.Mapped2M, t.Mapped1G, t.TablePages, t.MapOps, t.UnmapOps, t.SplitOps, t.WalkedSlots, h.Sum64()))
	})
	return out
}

// TestExitReapTwinMatchesExit runs random fork/exec/mmap/touch/munmap/
// brk/exit sequences on two nodes booted from one seed, one exiting
// every process through ExitReap and the other through plain Exit
// (which never recycles), with khugepaged scanning every ~2 ms so exits
// land inside open mm-lock windows. After every step the two must agree
// on every simulated quantity (see state); the pool counters are the
// only allowed difference. A struct recycled while a merge closure can
// still fire, or any field the reap leaves dirty, shows up here.
func TestExitReapTwinMatchesExit(t *testing.T) {
	const runs, steps = 6, 250
	const rw = pgtable.ProtRead | pgtable.ProtWrite
	var windowExits, reuses uint64
	for run := 0; run < runs; run++ {
		seed := uint64(0x7e1a + run)
		a, b := newTwin(seed, true), newTwin(seed, false)
		r := sim.NewRand(seed ^ 0xfeed)
		for step := 0; step < steps; step++ {
			var live []int
			a.node.Processes(func(p *kernel.Process) { live = append(live, p.PID) })
			// pick returns the same live process of each twin.
			pick := func() (*kernel.Process, *kernel.Process) {
				pid := live[r.Intn(len(live))]
				return a.node.Process(pid), b.node.Process(pid)
			}
			// pickVMA returns the bounds of a random VMA of pa other than
			// the stack, or false.
			pickVMA := func(pa *kernel.Process) (start pgtable.VirtAddr, pages uint64, ok bool) {
				var vs [][2]pgtable.VirtAddr
				for _, v := range pa.Space.VMAs() {
					if v.Kind != vma.KindStack {
						vs = append(vs, [2]pgtable.VirtAddr{v.Start, v.End})
					}
				}
				if len(vs) == 0 {
					return 0, 0, false
				}
				v := vs[r.Intn(len(vs))]
				return v[0], uint64(v[1]-v[0]) / mem.PageSize, true
			}
			var desc string
			op := r.Intn(9)
			if len(live) == 0 {
				op = 0
			} else if len(live) > 10 {
				op = 7
			}
			switch op {
			case 0: // exec
				commodity, zone := r.Bool(0.3), r.Intn(2)
				desc = fmt.Sprintf("NewProcess(commodity %v, zone %d)", commodity, zone)
				_, errA := a.node.NewProcess("exec", commodity, zone)
				_, errB := b.node.NewProcess("exec", commodity, zone)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s errors %v and %v", run, step, desc, errA, errB)
				}
			case 1: // fork
				pa, pb := pick()
				desc = fmt.Sprintf("Fork(%d)", pa.PID)
				_, ca, errA := a.node.Fork(pa, "fork")
				_, cb, errB := b.node.Fork(pb, "fork")
				if ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s = %d, %v and %d, %v", run, step, desc, ca, errA, cb, errB)
				}
			case 2: // mmap
				pa, pb := pick()
				length := uint64(1+r.Intn(6))<<20 + uint64(r.Intn(4))*mem.PageSize
				desc = fmt.Sprintf("Mmap(%d, %#x)", pa.PID, length)
				va, ca, errA := a.node.Mmap(pa, length, rw, vma.KindAnon)
				vb, cb, errB := b.node.Mmap(pb, length, rw, vma.KindAnon)
				if va != vb || ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s = %#x, %d, %v and %#x, %d, %v", run, step, desc, va, ca, errA, vb, cb, errB)
				}
			case 3, 4: // touch
				pa, pb := pick()
				start, pages, ok := pickVMA(pa)
				if !ok {
					continue
				}
				off := uint64(r.Intn(int(pages)))
				addr := start + pgtable.VirtAddr(off*mem.PageSize)
				length := (1 + uint64(r.Intn(int(pages-off)))) * mem.PageSize
				desc = fmt.Sprintf("TouchRange(%d, %#x, %#x)", pa.PID, addr, length)
				ca, errA := a.node.TouchRange(pa, addr, length)
				cb, errB := b.node.TouchRange(pb, addr, length)
				if ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s = %d, %v and %d, %v", run, step, desc, ca, errA, cb, errB)
				}
			case 5: // munmap, whole or a tail
				pa, pb := pick()
				start, pages, ok := pickVMA(pa)
				if !ok {
					continue
				}
				off := uint64(0)
				if r.Bool(0.5) {
					off = uint64(r.Intn(int(pages)))
				}
				addr, length := start+pgtable.VirtAddr(off*mem.PageSize), (pages-off)*mem.PageSize
				desc = fmt.Sprintf("Munmap(%d, %#x, %#x)", pa.PID, addr, length)
				ca, errA := a.node.Munmap(pa, addr, length)
				cb, errB := b.node.Munmap(pb, addr, length)
				if ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s = %d, %v and %d, %v", run, step, desc, ca, errA, cb, errB)
				}
			case 6: // brk growth, then a touch of the new heap
				pa, pb := pick()
				old := pa.Space.Brk()
				brk := old + pgtable.VirtAddr(1+r.Intn(64))*64<<10
				desc = fmt.Sprintf("Brk(%d, %#x)", pa.PID, brk)
				_, ca, errA := a.node.Brk(pa, brk)
				_, cb, errB := b.node.Brk(pb, brk)
				if ca != cb || (errA == nil) != (errB == nil) {
					t.Fatalf("run %d step %d: %s = %d, %v and %d, %v", run, step, desc, ca, errA, cb, errB)
				}
				if errA == nil {
					ca, errA = a.node.TouchRange(pa, old, uint64(brk-old))
					cb, errB = b.node.TouchRange(pb, old, uint64(brk-old))
					if ca != cb || (errA == nil) != (errB == nil) {
						t.Fatalf("run %d step %d: touch after %s = %d, %v and %d, %v", run, step, desc, ca, errA, cb, errB)
					}
				}
			case 7: // exit, preferring a process inside an mm-lock window
				pa, pb := pick()
				for _, pid := range live {
					if p := a.node.Process(pid); p.MMLockedUntil >= a.node.Now() && r.Bool(0.8) {
						pa, pb = p, b.node.Process(pid)
						break
					}
				}
				if pa.MMLockedUntil >= a.node.Now() {
					windowExits++
				}
				desc = fmt.Sprintf("exit(%d)", pa.PID)
				a.exit(pa)
				b.exit(pb)
			case 8: // let simulated time pass: khugepaged scans, merges, kswapd
				d := sim.Cycles(r.Intn(int(a.node.Config().Cycles(0.004))))
				desc = fmt.Sprintf("RunUntil(+%d)", d)
				a.node.Engine().RunUntil(a.node.Now() + d)
				b.node.Engine().RunUntil(b.node.Now() + d)
			}
			sa, sb := a.state(), b.state()
			for i := 0; i < len(sa) || i < len(sb); i++ {
				var la, lb string
				if i < len(sa) {
					la = sa[i]
				}
				if i < len(sb) {
					lb = sb[i]
				}
				if la != lb {
					t.Fatalf("run %d step %d after %s: ExitReap node\n\t%s\nExit node\n\t%s", run, step, desc, la, lb)
				}
			}
		}
		if b.node.LifecycleReaps != 0 || b.node.LifecycleProcReuses != 0 {
			t.Fatalf("run %d: the Exit node recycled a struct", run)
		}
		reuses += a.node.LifecycleProcReuses
	}
	// The sequences must reach the hazards they exist for.
	if windowExits == 0 || reuses == 0 {
		t.Fatalf("%d exits inside an mm-lock window, %d recycled structs reused; want both > 0", windowExits, reuses)
	}
	t.Logf("%d exits inside an mm-lock window, %d recycled structs reused", windowExits, reuses)
}

package core

import (
	"slices"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/hugetlb"
	"hpmmap/internal/kernel"
	"hpmmap/internal/linuxmm"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/thp"
	"hpmmap/internal/vma"
)

// touchProc is one live process of TestTouchReturnsFaultsDelta with the
// mappings it may touch.
type touchProc struct {
	p      *kernel.Process
	regs   []touchReg
	forked bool // a fork child: its inherited prefixes are copy-on-write
}

type touchReg struct {
	addr pgtable.VirtAddr
	size uint64
}

// TestTouchReturnsFaultsDelta is the reference test for the touch
// result: every Node.TouchRange and Node.TouchStack return must equal the
// change in the process's Faults.Total() over the call. Random mmap,
// touch, munmap, fork, exit and pressure steps drive THP (commodity),
// HugeTLBfs (HPC) and HPMMAP (registered) processes on one node. The runs
// must reach reclaim storms, merge-blocked faults, eviction stalls, COW
// copies and OOM kills, so each way a touch charges a process is checked.
func TestTouchReturnsFaultsDelta(t *testing.T) {
	r := sim.NewRand(0x70c4)
	var storms, merges, evicts, cows, ooms uint64
	for run := 0; run < 12; run++ {
		eng := sim.NewEngine()
		node := kernel.NewNode(kernel.DellR415(), eng, sim.NewRand(r.Uint64()))
		node.Detail = run%3 == 2
		hp, err := Install(node, 10<<30)
		if err != nil {
			t.Fatal(err)
		}
		pools, err := hugetlb.Reserve(node.Mem, 2<<30)
		if err != nil {
			t.Fatal(err)
		}
		node.SetReservedBytes(2 << 30)
		mm := linuxmm.New(node, linuxmm.ModeHugeTLB, linuxmm.ModeTHP, pools)
		node.SetDefaultMM(mm)
		thp.Start(node, mm)
		if run%2 == 1 {
			// A full swap device sends exhaustion to the OOM killer.
			node.Swap().Reserve(node.Swap().FreePages())
		}

		var live []*touchProc
		pick := func() *touchProc { return live[r.Intn(len(live))] }
		// check runs one touch and compares its return with the change
		// in p.Faults.
		check := func(step int, tp *touchProc, what string, touch func() (sim.Cycles, error)) {
			t.Helper()
			p := tp.p
			before := p.Faults
			pendingEvict := len(p.PendingEvictCosts)
			got, err := touch()
			d := p.Faults.Since(before)
			if got != d.Total() {
				t.Fatalf("run %d step %d: %s on %s (%s) returned %d cycles, Faults grew by %d (err %v)",
					run, step, what, p, node.ManagerNameFor(p), got, d.Total(), err)
			}
			merges += d.Faults[fault.KindMergeBlocked]
			if pendingEvict > 0 && len(p.PendingEvictCosts) == 0 && d.Faults[fault.KindMergeBlocked] > 0 {
				evicts++
			}
			if tp.forked && d.Faults[fault.KindSmall] > 0 {
				cows++
			}
		}

		for step := 0; step < 200; step++ {
			if run%2 == 1 && step == 120 {
				exhaust(t, node)
			}
			switch op := r.Intn(12); {
			case op == 0 || len(live) == 0:
				zone := r.Intn(node.Config().NumaZones)
				var p *kernel.Process
				switch r.Intn(3) {
				case 0:
					p, err = node.NewProcess("thp", true, zone)
				case 1:
					p, err = node.NewProcess("hugetlb", false, zone)
				default:
					p, err = hp.Launch("hpmmap", zone)
				}
				if err != nil {
					t.Fatalf("run %d step %d: launch: %v", run, step, err)
				}
				live = append(live, &touchProc{p: p})
			case op == 1 || op == 2:
				tp := pick()
				size := uint64(1+r.Intn(48))<<20 + uint64(r.Intn(8))<<12
				addr, _, err := node.Mmap(tp.p, size, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
				if err == nil {
					tp.regs = append(tp.regs, touchReg{addr, size})
				}
			case op <= 5:
				tp := pick()
				if len(tp.regs) == 0 {
					continue
				}
				reg := tp.regs[r.Intn(len(tp.regs))]
				off := uint64(r.Intn(int(reg.size>>12))) << 12
				n := reg.size - off
				if r.Bool(0.3) {
					n = 1 + uint64(r.Intn(int(n)))
				}
				if r.Bool(0.05) {
					n += 4 << 20 // past the region end: an error, and no charge
				}
				check(step, tp, "TouchRange", func() (sim.Cycles, error) {
					return node.TouchRange(tp.p, reg.addr+pgtable.VirtAddr(off), n)
				})
			case op == 6:
				tp := pick()
				bytes := uint64(1+r.Intn(256)) << 12
				check(step, tp, "TouchStack", func() (sim.Cycles, error) {
					return node.TouchStack(tp.p, bytes)
				})
			case op == 7:
				tp := pick()
				if len(tp.regs) == 0 {
					continue
				}
				i := r.Intn(len(tp.regs))
				if _, err := node.Munmap(tp.p, tp.regs[i].addr, tp.regs[i].size); err != nil {
					t.Fatalf("run %d step %d: munmap: %v", run, step, err)
				}
				tp.regs = append(tp.regs[:i], tp.regs[i+1:]...)
			case op == 8:
				tp := pick()
				child, _, err := node.Fork(tp.p, "child")
				if err != nil {
					continue // HPMMAP does not fork
				}
				live = append(live, &touchProc{p: child, regs: append([]touchReg(nil), tp.regs...), forked: true})
			case op == 9:
				tp := pick()
				d := sim.Cycles(1+r.Intn(100)) * 10_000
				if r.Bool(0.5) {
					tp.p.PendingMergeCosts = append(tp.p.PendingMergeCosts, d)
				} else {
					tp.p.PendingEvictCosts = append(tp.p.PendingEvictCosts, d)
				}
			case op == 10:
				i := r.Intn(len(live))
				if r.Bool(0.5) {
					node.Exit(live[i].p)
				} else {
					node.ExitReap(live[i].p)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				// Time passes: kswapd and khugepaged run, and page cache
				// refills toward the watermarks.
				node.PageCacheAdd(r.Intn(node.Config().NumaZones), uint64(1+r.Intn(512))<<20)
				eng.RunUntil(eng.Now() + sim.Cycles(node.Config().Cycles(0.5+3*r.Float64())))
			}
			// Drop the OOM killer's victims.
			live = slices.DeleteFunc(live, func(tp *touchProc) bool { return tp.p.Exited })
		}
		storms += mm.ReclaimStorms
		ooms += node.OOMKills
	}
	for _, c := range []struct {
		name string
		n    uint64
	}{{"reclaim storms", storms}, {"merge-blocked faults", merges}, {"eviction stalls", evicts}, {"COW touches", cows}, {"OOM kills", ooms}} {
		if c.n == 0 {
			t.Errorf("no %s: the sequence does not reach that charge path", c.name)
		}
	}
}

// exhaust fills Linux memory: the page cache is dropped, a commodity hog
// touches most of what is free, and the rest goes to leaked order-3
// blocks, so later faults must reclaim, swap or kill.
func exhaust(t *testing.T, node *kernel.Node) {
	t.Helper()
	for z := range node.Mem.Zones {
		for node.PageCachePages(z) > 0 {
			node.DirectReclaim(z, 0)
		}
	}
	hog, err := node.NewProcess("hog", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	size := node.Mem.FreePages() * mem.PageSize * 3 / 4
	addr, _, err := node.Mmap(hog, size, pgtable.ProtRead|pgtable.ProtWrite, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.TouchRange(hog, addr, size); err != nil {
		t.Fatal(err)
	}
	for _, z := range node.Mem.Zones {
		for {
			if _, ok := z.AllocPages(3); !ok {
				break
			}
		}
	}
}

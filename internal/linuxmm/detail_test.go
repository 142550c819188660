package linuxmm

import (
	"fmt"
	"slices"
	"testing"

	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/trace"
	"hpmmap/internal/vma"
)

// refTouchSmallDetail is the per-page loop touchSmallDetail replaced:
// draw, charge and map one page at a time, composing each fault from
// SmallFault and, on HugeTLBfs, the reclaim probability, a Bool and the
// stall, all computed per page. It returns the number of stalls drawn.
func refTouchSmallDetail(m *Manager, tc *touchCtx, kind fault.Kind, va pgtable.VirtAddr, pages uint64) (stalls int) {
	p, r, c := tc.p, tc.r, m.node.Costs()
	for i := uint64(0); i < pages; i++ {
		pva := va + pgtable.VirtAddr(i*mem.PageSize)
		cost := c.SmallFault(m.rand, tc.load)
		var stall sim.Cycles
		stalled := false
		if kind == fault.KindHugeTLBSmall {
			if pr := c.ReclaimProb(tc.load.MemPressure); pr > 0 && m.rand.Bool(pr) {
				stall, stalled = c.DirectReclaim(m.rand, tc.load), true
				stalls++
			}
		}
		tc.charge(m, kind, cost+stall, pva, stalled)
		p.Account.Reattribute(timeline.FaultCause(kind), timeline.CauseReclaimStorm, stall)
		mapSmallDetail(p, pva, r)
	}
	return stalls
}

// mapSmallDetail installs one 4KB PTE with a synthetic frame drawn from
// the region's small blocks, ignoring a refused Map (a page already
// mapped).
func mapSmallDetail(p *kernel.Process, va pgtable.VirtAddr, r *region) {
	if len(r.smallBlocks) == 0 {
		return
	}
	blk := r.smallBlocks[len(r.smallBlocks)-1]
	off := (uint64(va) / mem.PageSize) % mem.PagesPerOrder(blk.order)
	pfn := blk.pfn + mem.PFN(off)
	_ = p.PT.Map(va, pfn, pgtable.Page4K, r.prot)
}

// ptLeaf is one leaf of a process's page table as Range reports it.
type ptLeaf struct {
	va pgtable.VirtAddr
	m  pgtable.Mapping
}

func ptLeaves(pt *pgtable.Table) []ptLeaf {
	var out []ptLeaf
	pt.Range(func(va pgtable.VirtAddr, m pgtable.Mapping) bool {
		out = append(out, ptLeaf{va, m})
		return true
	})
	return out
}

func ptCounters(pt *pgtable.Table) [8]uint64 {
	return [8]uint64{pt.Mapped4K, pt.Mapped2M, pt.Mapped1G, pt.TablePages, pt.MapOps, pt.UnmapOps, pt.SplitOps, pt.WalkedSlots}
}

// detailTwins runs one operation sequence on two identical detail-mode
// nodes: twin 0 maps each small touch as runs, twin 1 with the per-page
// reference. Processes and regions are tracked pairwise.
type detailTwins struct {
	t     *testing.T
	envs  [2]*env
	procs [][2]*kernel.Process
	regs  map[*kernel.Process][][2]uint64 // twin 0's process → its regions (addr, length)
	// stalls counts the per-page reclaim stalls the reference drew.
	stalls int
}

func newDetailTwins(t *testing.T, hpc, commodity Mode, hugetlbBytes uint64) *detailTwins {
	d := &detailTwins{t: t, regs: map[*kernel.Process][][2]uint64{}}
	for i := range d.envs {
		d.envs[i] = newEnv(t, hpc, commodity, hugetlbBytes, true)
	}
	d.envs[1].mgr.touchDetail = func(m *Manager, tc *touchCtx, kind fault.Kind, va pgtable.VirtAddr, pages uint64) {
		d.stalls += refTouchSmallDetail(m, tc, kind, va, pages)
	}
	return d
}

// each applies fn to both twins and fails unless they agree on its
// result.
func (d *detailTwins) each(what string, fn func(e *env, side int) (uint64, error)) uint64 {
	d.t.Helper()
	var res [2]uint64
	var errs [2]error
	for i, e := range d.envs {
		res[i], errs[i] = fn(e, i)
	}
	if res[0] != res[1] || (errs[0] == nil) != (errs[1] == nil) {
		d.t.Fatalf("%s: run twin %d, %v; per-page twin %d, %v", what, res[0], errs[0], res[1], errs[1])
	}
	return res[0]
}

func (d *detailTwins) addProc(pair [2]*kernel.Process) {
	for _, p := range pair {
		p.Recorder = trace.NewRecorder()
	}
	d.procs = append(d.procs, pair)
}

// check fails unless every process pair has the same page-table leaves,
// the same eight table counters, the same faults and the same records.
func (d *detailTwins) check(step int, op string) {
	d.t.Helper()
	for _, pair := range d.procs {
		a, b := pair[0], pair[1]
		if la, lb := ptLeaves(a.PT), ptLeaves(b.PT); !slices.Equal(la, lb) {
			i := 0
			for i < min(len(la), len(lb)) && la[i] == lb[i] {
				i++
			}
			d.t.Fatalf("step %d (%s): pid %d has %d leaves, per-page reference %d; first difference at leaf %d", step, op, a.PID, len(la), len(lb), i)
		}
		if ca, cb := ptCounters(a.PT), ptCounters(b.PT); ca != cb {
			d.t.Fatalf("step %d (%s): pid %d counters %v, per-page reference %v (Mapped4K/2M/1G, TablePages, Map/Unmap/SplitOps, WalkedSlots)", step, op, a.PID, ca, cb)
		}
		if a.Faults != b.Faults || !slices.Equal(a.Recorder.Records(), b.Recorder.Records()) {
			d.t.Fatalf("step %d (%s): pid %d faults or records differ from the per-page reference", step, op, a.PID)
		}
	}
}

// mmapSizes are region sizes: one not a page multiple, small ones, ones
// around the THP span, and ones past HugeTLBMmapThreshold.
var mmapSizes = [...]uint64{5*mem.PageSize + 123, 300 << 10, 1<<20 + mem.PageSize, 3 << 20, 4<<20 + 8<<10, 9 << 20, 24 << 20}

// run drives steps random operations.
func (d *detailTwins) run(r *sim.Rand, steps int) {
	for step := 0; step < steps; step++ {
		var live [][2]*kernel.Process
		for _, pair := range d.procs {
			if !pair[0].Exited {
				live = append(live, pair)
			}
		}
		op := r.Intn(14)
		if len(live) == 0 {
			op = 0
		}
		var pair [2]*kernel.Process
		if len(live) > 0 {
			pair = live[r.Intn(len(live))]
		}
		regs := d.regs[pair[0]]
		var name string
		switch {
		case op == 0 && len(live) < 4:
			name = "new process"
			d.newPair(r.Intn(2))
		case op <= 1:
			name = "mmap"
			size := mmapSizes[r.Intn(len(mmapSizes))]
			addr := d.each(name, func(e *env, i int) (uint64, error) {
				addr, _, err := e.node.Mmap(pair[i], size, rw, vma.KindAnon)
				return uint64(addr), err
			})
			d.regs[pair[0]] = append(regs, [2]uint64{addr, size})
		case op <= 4 && len(regs) > 0:
			name = "touch"
			reg := regs[r.Intn(len(regs))]
			length := 1 + r.Uint64n(reg[1])
			if r.Bool(0.5) {
				length = (length + mem.PageSize - 1) &^ (mem.PageSize - 1)
				length = min(length, reg[1])
			}
			d.each(name, func(e *env, i int) (uint64, error) {
				c, err := e.node.TouchRange(pair[i], pgtable.VirtAddr(reg[0]), length)
				return uint64(c), err
			})
		case op == 5:
			name = "stack touch"
			bytes := 1 + r.Uint64n(1<<20)
			if r.Bool(0.5) {
				bytes = (bytes + mem.PageSize - 1) &^ (mem.PageSize - 1)
			}
			d.each(name, func(e *env, i int) (uint64, error) {
				addr, n := e.node.DefaultMM().StackRange(pair[i], bytes)
				c, err := e.node.TouchRange(pair[i], addr, n)
				return uint64(c), err
			})
		case op == 6 && len(regs) > 0:
			name = "munmap"
			k := r.Intn(len(regs))
			reg := regs[k]
			d.each(name, func(e *env, i int) (uint64, error) {
				c, err := e.node.Munmap(pair[i], pgtable.VirtAddr(reg[0]), reg[1])
				return uint64(c), err
			})
			d.regs[pair[0]] = slices.Delete(regs, k, k+1)
		case op == 7 && len(live) < 6:
			name = "fork"
			var np [2]*kernel.Process
			d.each(name, func(e *env, i int) (uint64, error) {
				c, _, err := e.node.Fork(pair[i], "child")
				np[i] = c
				return 0, err
			})
			d.addProc(np)
			d.regs[np[0]] = slices.Clone(regs)
		case op == 8:
			name = "exec"
			d.each(name, func(e *env, i int) (uint64, error) {
				c, err := e.mgr.Exec(pair[i])
				return uint64(c), err
			})
			delete(d.regs, pair[0])
		case op == 9:
			name = "mlock"
			d.each(name, func(e *env, i int) (uint64, error) {
				c, err := e.mgr.MlockAll(pair[i])
				return uint64(c), err
			})
		case op == 10:
			name = "merge"
			d.each(name, func(e *env, i int) (uint64, error) {
				if e.mgr.PerformMerge(pair[i]) {
					return 1, nil
				}
				return 0, nil
			})
		case op == 11:
			name = "fill page cache"
			d.each(name, func(e *env, i int) (uint64, error) {
				for _, z := range e.node.Mem.Zones {
					e.node.PageCacheAdd(z.ID, z.FreePages()*mem.PageSize)
				}
				return e.node.Mem.FreePages(), nil
			})
		case op == 12:
			name = "commodity hog"
			d.each(name, func(e *env, i int) (uint64, error) {
				hog, err := e.node.NewProcess("hog", true, 1)
				if err != nil {
					return 0, err
				}
				addr, _, err := e.node.Mmap(hog, 1<<30, rw, vma.KindAnon)
				if err != nil {
					return 0, err
				}
				c, err := e.node.TouchRange(hog, addr, 1<<30)
				return uint64(c), err
			})
		case op == 13 && len(live) > 1:
			name = "exit"
			d.each(name, func(e *env, i int) (uint64, error) {
				e.node.Exit(pair[i])
				return 0, nil
			})
		default:
			continue
		}
		d.check(step, name)
	}
}

// TestDetailTouchMatchesPerPageReference runs random detail-mode touch,
// munmap, fork, exec, mlock, merge, page-cache and hog sequences on THP
// and HugeTLBfs nodes and compares, after every step, each process's
// page table (leaves and all eight counters), faults and records with a
// twin node that draws, charges and maps each page in turn. Then it
// touches regions around the detail touch's chunk size (touchEdges), at
// the default jitter and at none, and extends a prefix from a misaligned
// end (touchMisaligned).
func TestDetailTouchMatchesPerPageReference(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hpc, commodity Mode
		hugetlb        uint64
	}{
		{"thp", ModeTHP, ModeTHP, 0},
		{"hugetlbfs", ModeHugeTLB, Mode4KOnly, 64 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var storms, splits, large uint64
			stalls := 0
			for seed := uint64(1); seed <= 10; seed++ {
				d := newDetailTwins(t, tc.hpc, tc.commodity, tc.hugetlb)
				d.run(sim.NewRand(seed), 200)
				m := d.envs[0].mgr
				storms += m.StormsHPC
				splits += m.SplitOnMlock
				large += m.LargeFaults
				stalls += d.stalls
			}
			t.Logf("HPC reclaim storms %d, mlock splits %d, large faults %d, per-page reclaim stalls %d", storms, splits, large, stalls)
			if storms == 0 {
				t.Fatal("no HPC reclaim storm: the sequences never charged a storm fault")
			}
			// The per-call reclaim probability is checked against the
			// per-page one only where a page drew a stall, which the
			// reference charges as a stalled KindHugeTLBSmall record.
			if tc.hpc == ModeHugeTLB && stalls == 0 {
				t.Fatal("no per-page reclaim stall: the HugeTLBfs sequences never drew one in a detail touch")
			}
			t.Run("chunk edges", func(t *testing.T) {
				for _, jitter := range []float64{fault.DefaultCostParams().SmallJitter, 0} {
					t.Run(fmt.Sprintf("jitter %g", jitter), func(t *testing.T) {
						d := newDetailTwins(t, tc.hpc, tc.commodity, tc.hugetlb)
						for _, e := range d.envs {
							e.node.Costs().SmallJitter = jitter
						}
						d.touchEdges(tc.hpc == ModeHugeTLB)
					})
				}
			})
			t.Run("misaligned start", func(t *testing.T) {
				newDetailTwins(t, tc.hpc, tc.commodity, tc.hugetlb).touchMisaligned()
			})
		})
	}
}

// detailEdgePages are touch sizes around the detail touch's chunk: one
// page, one short of a chunk, a chunk, one past it, and three chunks and
// five pages.
var detailEdgePages = [...]uint64{1, detailChunk - 1, detailChunk, detailChunk + 1, 3*detailChunk + 5}

// stallPages replays on a copy of a manager's generator the draws a
// detail touch of n pages under load makes, as the per-page reference
// makes them, and reports which pages stall.
func stallPages(r sim.Rand, c *fault.CostParams, load fault.Load, n uint64) []bool {
	stalled := make([]bool, n)
	for i := range stalled {
		c.SmallFault(&r, load)
		if p := c.ReclaimProb(load.MemPressure); p > 0 && r.Bool(p) {
			c.DirectReclaim(&r, load)
			stalled[i] = true
		}
	}
	return stalled
}

// newPair starts a process preferring zone on both twins.
func (d *detailTwins) newPair(zone int) [2]*kernel.Process {
	var np [2]*kernel.Process
	d.each("new process", func(e *env, i int) (uint64, error) {
		p, err := e.node.NewProcess("hpc", false, zone)
		np[i] = p
		return 0, err
	})
	d.addProc(np)
	return np
}

// touchEdges touches a fresh region of each detailEdgePages size in one
// call on both twins and compares them after each touch. Each touch must
// reach the detail touch whole. With stalls, every touch runs at a
// reclaim probability of 1/2, and before the longest both twins' managers
// draw until that touch stalls on the last page of its first chunk and
// the first page of its second. Without, a touch at zero jitter must
// draw nothing.
func (d *detailTwins) touchEdges(stalls bool) {
	t := d.t
	var sizes []uint64
	d.envs[0].mgr.touchDetail = func(m *Manager, tc *touchCtx, kind fault.Kind, va pgtable.VirtAddr, pages uint64) {
		sizes = append(sizes, pages)
		m.touchSmallDetail(tc, kind, va, pages)
	}
	np := d.newPair(0)
	for step, pages := range detailEdgePages {
		addr := d.each("mmap", func(e *env, i int) (uint64, error) {
			a, _, err := e.node.Mmap(np[i], pages*mem.PageSize, rw, vma.KindAnon)
			return uint64(a), err
		})
		e0 := d.envs[0]
		if stalls {
			for i, e := range d.envs {
				c := e.node.Costs()
				c.ReclaimThreshold, c.ReclaimProbAtFull = 0, 0.5/e.node.LoadFor(np[i]).MemPressure
			}
		}
		if stalls && pages == 3*detailChunk+5 {
			for tries := 0; ; tries++ {
				st := stallPages(*e0.mgr.rand, e0.node.Costs(), e0.node.LoadFor(np[0]), pages)
				if st[detailChunk-1] && st[detailChunk] {
					break
				}
				if tries == 1000 {
					t.Fatal("1000 draws found no stall on both sides of the first chunk edge")
				}
				for _, e := range d.envs {
					e.mgr.rand.Uint64()
				}
			}
		}
		before := *e0.mgr.rand
		d.each("touch", func(e *env, i int) (uint64, error) {
			c, err := e.node.TouchRange(np[i], pgtable.VirtAddr(addr), pages*mem.PageSize)
			return uint64(c), err
		})
		d.check(step, "touch")
		if !stalls && e0.node.Costs().SmallJitter == 0 && *e0.mgr.rand != before {
			t.Fatalf("a touch of %d pages at zero jitter drew from the generator", pages)
		}
		if stalls && pages == 3*detailChunk+5 {
			var edge []bool
			for _, rec := range np[0].Recorder.Records() {
				if rec.VA >= addr+(detailChunk-1)*mem.PageSize && rec.VA <= addr+detailChunk*mem.PageSize {
					edge = append(edge, rec.Stalls)
				}
			}
			if !slices.Equal(edge, []bool{true, true}) {
				t.Fatalf("the pages on each side of the first chunk edge recorded stalls %v, want [true true]", edge)
			}
		}
	}
	if !slices.Equal(sizes, detailEdgePages[:]) {
		t.Fatalf("the detail touch ran on %v pages, want %v", sizes, detailEdgePages)
	}
}

// touchMisaligned extends a touched prefix that ends inside a page by a
// chunk and more. It pins what the model does today (CHANGES.md FOUND,
// touchSmall): the touch starts at the misaligned prefix end, charges
// ceil(bytes/4 KB) faults, one more than the pages it newly covers, and
// maps no PTE, because every Map from a misaligned address is refused.
func (d *detailTwins) touchMisaligned() {
	t := d.t
	np := d.newPair(0)
	const first = 5*mem.PageSize + 123
	const more = (detailChunk+6)*mem.PageSize + 1
	addr := d.each("mmap", func(e *env, i int) (uint64, error) {
		a, _, err := e.node.Mmap(np[i], 2*detailChunk*mem.PageSize, rw, vma.KindAnon)
		return uint64(a), err
	})
	for step, length := range []uint64{first, first + more} {
		mapped := np[0].PT.Mapped4K
		faults := d.each("touch", func(e *env, i int) (uint64, error) {
			st, err := e.touch(np[i], pgtable.VirtAddr(addr), length)
			return st.TotalFaults(), err
		})
		d.check(step, "touch")
		want, wantMapped := uint64(6), uint64(6)
		if step == 1 {
			want, wantMapped = (more+mem.PageSize-1)/mem.PageSize, 0
		}
		if got := np[0].PT.Mapped4K - mapped; faults != want || got != wantMapped {
			t.Fatalf("touch %d: %d faults and %d PTEs mapped, want %d and %d", step, faults, got, want, wantMapped)
		}
	}
}

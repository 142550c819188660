package experiments

import (
	"testing"

	"hpmmap/internal/cluster"
	"hpmmap/internal/kernel"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
	"hpmmap/internal/workload"
)

// TestMemoryConservationFuzz drives random interleavings of the memory
// system calls (mmap, touch, brk, munmap, fork, exec, exit) against every
// manager configuration and checks that after all processes exit, every
// physical page is back where it started: the zones fully free, the
// HPMMAP pool whole, the hugetlb pools whole. This is the whole-system
// bookkeeping invariant the per-package tests cannot cover.
func TestMemoryConservationFuzz(t *testing.T) {
	for _, kind := range []ManagerKind{THP, HugeTLBfs, HPMMAP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				fuzzOnce(t, kind, seed)
			}
		})
	}
}

type fuzzProc struct {
	p       *kernel.Process
	regions []fuzzRegion
	brk     uint64
}

type fuzzRegion struct {
	addr pgtable.VirtAddr
	size uint64
}

func fuzzOnce(t *testing.T, kind ManagerKind, seed uint64) {
	t.Helper()
	r, err := Boot(kernel.DellR415(), sim.NewEngine(), seed, kind, false, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	node := r.Node
	rnd := sim.NewRand(seed * 7919)
	freeBefore := node.Mem.FreePages()
	var poolBefore uint64
	if r.HP != nil {
		poolBefore = r.HP.PoolFreeBytes()
	}
	var hugetlbBefore int
	if r.MM.Pools != nil {
		hugetlbBefore = r.MM.Pools.FreePagesTotal()
	}

	var procs []*fuzzProc
	launch := func() {
		var p *kernel.Process
		var err error
		hpc := rnd.Bool(0.5)
		if hpc && r.HP != nil {
			p, err = r.HP.Launch("fuzz-hpc", rnd.Intn(2))
		} else {
			p, err = node.NewProcess("fuzz", !hpc, rnd.Intn(2))
		}
		if err != nil {
			t.Fatalf("seed %d: launch: %v", seed, err)
		}
		procs = append(procs, &fuzzProc{p: p})
	}
	launch()

	const rw = pgtable.ProtRead | pgtable.ProtWrite
	for op := 0; op < 400; op++ {
		if len(procs) == 0 {
			launch()
		}
		fp := procs[rnd.Intn(len(procs))]
		switch rnd.Intn(10) {
		case 0:
			if len(procs) < 6 {
				launch()
			}
		case 1, 2: // mmap
			size := uint64(1+rnd.Intn(64)) << 20
			addr, _, err := node.Mmap(fp.p, size, rw, vma.KindAnon)
			if err == nil {
				fp.regions = append(fp.regions, fuzzRegion{addr, size})
			}
		case 3, 4: // touch part of a region
			if len(fp.regions) > 0 {
				reg := fp.regions[rnd.Intn(len(fp.regions))]
				length := reg.size / uint64(1+rnd.Intn(4))
				if length == 0 {
					length = reg.size
				}
				if _, err := node.TouchRange(fp.p, reg.addr, length); err != nil {
					t.Fatalf("seed %d: touch: %v", seed, err)
				}
			}
		case 5: // brk growth + touch
			cur, _, err := node.Brk(fp.p, 0)
			if err != nil {
				t.Fatalf("seed %d: brk query: %v", seed, err)
			}
			grow := uint64(64+rnd.Intn(512)) << 10
			if _, _, err := node.Brk(fp.p, cur+pgtable.VirtAddr(grow)); err == nil {
				if _, err := node.TouchRange(fp.p, cur, grow); err != nil {
					t.Fatalf("seed %d: heap touch: %v", seed, err)
				}
			}
		case 6: // munmap
			if len(fp.regions) > 0 {
				i := rnd.Intn(len(fp.regions))
				reg := fp.regions[i]
				fp.regions = append(fp.regions[:i], fp.regions[i+1:]...)
				if _, err := node.Munmap(fp.p, reg.addr, reg.size); err != nil {
					t.Fatalf("seed %d: munmap: %v", seed, err)
				}
			}
		case 7: // fork (+ sometimes exec), commodity only path matters
			child, _, err := node.Fork(fp.p, "fuzz-child")
			if err == nil {
				cp := &fuzzProc{p: child}
				if rnd.Bool(0.5) {
					if _, err := r.MM.Exec(child); err != nil {
						t.Fatalf("seed %d: exec: %v", seed, err)
					}
				}
				procs = append(procs, cp)
			}
		case 8: // exit
			i := rnd.Intn(len(procs))
			node.Exit(procs[i].p)
			procs = append(procs[:i], procs[i+1:]...)
		case 9: // stack touch
			if _, err := node.TouchStack(fp.p, uint64(4+rnd.Intn(64))<<10); err != nil {
				t.Fatalf("seed %d: stack: %v", seed, err)
			}
		}
	}
	for _, fp := range procs {
		node.Exit(fp.p)
	}
	if got := node.Mem.FreePages(); got != freeBefore {
		t.Fatalf("seed %d (%s): leaked %d pages (%d -> %d)", seed, kind, int64(freeBefore)-int64(got), freeBefore, got)
	}
	if r.HP != nil {
		if got := r.HP.PoolFreeBytes(); got != poolBefore {
			t.Fatalf("seed %d: hpmmap pool leaked: %d -> %d", seed, poolBefore, got)
		}
	}
	if r.MM.Pools != nil {
		if got := r.MM.Pools.FreePagesTotal(); got != hugetlbBefore {
			t.Fatalf("seed %d: hugetlb pool leaked: %d -> %d", seed, hugetlbBefore, got)
		}
	}
	if got := node.Swap().UsedPages(); got != 0 {
		t.Fatalf("seed %d: swap slots leaked: %d", seed, got)
	}
}

// TestClusterConservation runs a small multi-node cell to completion and
// verifies every node's memory returned to its boot state — the
// whole-cluster analogue of the single-node fuzz.
func TestClusterConservation(t *testing.T) {
	for _, kind := range []ManagerKind{THP, HPMMAP} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cr, err := newClusterRig(2, kind, 9, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			type boot struct{ free, pool uint64 }
			boots := make([]boot, len(cr.rigs))
			for i, r := range cr.rigs {
				boots[i].free = r.Node.Mem.FreePages()
				if r.HP != nil {
					boots[i].pool = r.HP.PoolFreeBytes()
				}
			}
			spec := scaleSpec(mustSpec(t, "HPCCG"), 0.25)
			placement, err := clusterPlacementForTest(8)
			if err != nil {
				t.Fatal(err)
			}
			placements := cr.cl.Placements(placement, func(n int) workload.Launcher {
				return cr.rigs[n].Launcher()
			})
			var res workload.Result
			done := false
			if _, err := workload.Start(cr.eng, workload.Options{
				Spec:      spec,
				Ranks:     placements,
				CommDelay: cr.cl.CommDelay(spec, placement),
			}, func(got workload.Result) { res = got; done = true }); err != nil {
				t.Fatal(err)
			}
			if err := runToCompletion(nil, cr.eng, &done); err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			for i, r := range cr.rigs {
				if got := r.Node.Mem.FreePages(); got != boots[i].free {
					t.Errorf("node %d leaked %d pages", i, int64(boots[i].free)-int64(got))
				}
				if r.HP != nil {
					if got := r.HP.PoolFreeBytes(); got != boots[i].pool {
						t.Errorf("node %d pool leaked: %d -> %d", i, boots[i].pool, got)
					}
				}
				if got := r.Node.Swap().UsedPages(); got != 0 {
					t.Errorf("node %d swap slots leaked: %d", i, got)
				}
			}
		})
	}
}

func clusterPlacementForTest(ranks int) (cluster.Placement, error) {
	return cluster.BlockPlacement(ranks, 4, []int{0, 1, 4, 5})
}

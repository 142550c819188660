package kernel

import (
	"slices"
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

// refPageCache is the page cache kept one block per queue entry, with
// the per-block low-watermark gates, the recycle step, and the
// block-at-a-time eviction through NodeMemory.Free. It runs on a twin
// NodeMemory as the reference the run-based cache must match.
type refPageCache struct {
	cfg    MachineConfig
	mem    *mem.NodeMemory
	queues [][]mem.PFN // per zone, oldest first

	PCAllocFails, ReclaimedPages uint64
}

func newRefPageCache(cfg MachineConfig) *refPageCache {
	return &refPageCache{
		cfg:    cfg,
		mem:    mem.NewNodeMemory(cfg.NumaZones, cfg.MemoryBytes),
		queues: make([][]mem.PFN, cfg.NumaZones),
	}
}

func (r *refPageCache) add(zone int, bytes uint64) {
	blocks := bytes / (mem.PageSize << pcOrder)
	if blocks == 0 {
		blocks = 1
	}
	gated := func(zid int) (mem.PFN, *mem.Zone, bool) {
		z := r.mem.Zones[zid%len(r.mem.Zones)]
		if z.FreePages() < z.WatermarkLow+mem.PagesPerOrder(pcOrder) {
			return 0, nil, false
		}
		pfn, ok := z.AllocPages(pcOrder)
		return pfn, z, ok
	}
	for i := uint64(0); i < blocks; i++ {
		pfn, z, ok := gated(zone)
		if !ok {
			pfn, z, ok = gated(zone + 1)
		}
		if !ok {
			r.PCAllocFails++
			if !r.dropOne() {
				return
			}
			pfn, z, ok = r.mem.Alloc(zone, pcOrder)
			if !ok {
				return
			}
		}
		r.queues[z.ID] = append(r.queues[z.ID], pfn)
	}
}

func (r *refPageCache) dropOne() bool {
	best := -1
	for z, q := range r.queues {
		if len(q) > 0 && (best < 0 || len(q) > len(r.queues[best])) {
			best = z
		}
	}
	if best < 0 {
		return false
	}
	r.evict(best, 1)
	return true
}

func (r *refPageCache) evict(zone, count int) {
	q := r.queues[zone]
	count = min(count, len(q))
	for _, pfn := range q[:count] {
		r.mem.Free(pfn, pcOrder)
	}
	r.queues[zone] = q[count:]
	r.ReclaimedPages += uint64(count) << pcOrder
}

func (r *refPageCache) kswapdPass() {
	for _, z := range r.mem.Zones {
		if z.FreePages() >= z.WatermarkLow {
			continue
		}
		need := min(z.WatermarkHigh-z.FreePages(), r.cfg.KswapdBatchPages)
		r.evict(z.ID, max(int(need>>pcOrder), 1))
	}
}

func (r *refPageCache) directReclaim(zone, order int) bool {
	z := r.mem.Zones[zone]
	before := z.FreePages()
	pages := max(mem.PagesPerOrder(order)*4, 8192)
	r.evict(zone, int(pages>>pcOrder)+1)
	return z.FreePages() > before
}

// samePageCache fails unless the node and the reference hold the same
// cached blocks in the same order, the same tallies, and zones in the
// same state.
func samePageCache(t *testing.T, step int, n *Node, ref *refPageCache) {
	t.Helper()
	if n.PCAllocFails != ref.PCAllocFails || n.ReclaimedPages != ref.ReclaimedPages {
		t.Fatalf("step %d: PCAllocFails %d, ReclaimedPages %d; reference %d, %d",
			step, n.PCAllocFails, n.ReclaimedPages, ref.PCAllocFails, ref.ReclaimedPages)
	}
	for zi, z := range n.Mem.Zones {
		if got, want := n.PageCachePages(zi), uint64(len(ref.queues[zi]))<<pcOrder; got != want {
			t.Fatalf("step %d: zone %d caches %d pages, reference %d", step, zi, got, want)
		}
		q := &n.pageCache[zi]
		var blocks []mem.PFN
		for _, r := range q.runs[q.head:] {
			for b := uint64(0); b < r.Blocks; b++ {
				blocks = append(blocks, r.Base+mem.PFN(b<<pcOrder))
			}
		}
		if !slices.Equal(blocks, ref.queues[zi]) {
			t.Fatalf("step %d: zone %d cache queue differs from the reference", step, zi)
		}
		w := ref.mem.Zones[zi]
		got := [6]uint64{z.FreePages(), z.Allocs, z.Frees, z.Splits, z.Merges, z.Failures}
		want := [6]uint64{w.FreePages(), w.Allocs, w.Frees, w.Splits, w.Merges, w.Failures}
		if got != want {
			t.Fatalf("step %d: zone %d free/Allocs/Frees/Splits/Merges/Failures %v, reference %v", step, zi, got, want)
		}
	}
}

// TestPageCacheMatchesBlockReference drives the node's run-based page
// cache and the per-block reference with the same random sequences of
// page-cache fills, direct reclaim, kswapd passes, and ungated anonymous
// allocations and frees that push the zones to their watermarks.
func TestPageCacheMatchesBlockReference(t *testing.T) {
	cfg := DellR415()
	cfg.MemoryBytes = 256 << 20
	cfg.KswapdBatchPages = 1024
	for seed := uint64(1); seed <= 6; seed++ {
		n := NewNode(cfg, sim.NewEngine(), sim.NewRand(seed))
		ref := newRefPageCache(cfg)
		r := sim.NewRand(seed)
		type anon struct {
			pfn   mem.PFN
			order int
		}
		var held []anon
		for step := 0; step < 1500; step++ {
			zone := r.Intn(cfg.NumaZones)
			switch x := r.Intn(100); {
			case x < 45:
				bytes := r.Uint64n(16 << 20)
				n.PageCacheAdd(zone, bytes)
				ref.add(zone, bytes)
			case x < 70:
				order := 3 + r.Intn(mem.MaxOrder-2)
				p, _, ok := n.Mem.Alloc(zone, order)
				q, _, wantOK := ref.mem.Alloc(zone, order)
				if p != q || ok != wantOK {
					t.Fatalf("seed %d step %d: Alloc(%d, %d) = %d, %v; reference %d, %v", seed, step, zone, order, p, ok, q, wantOK)
				}
				if ok {
					held = append(held, anon{p, order})
				}
			case x < 85:
				if len(held) == 0 {
					continue
				}
				i := r.Intn(len(held))
				n.Mem.Free(held[i].pfn, held[i].order)
				ref.mem.Free(held[i].pfn, held[i].order)
				held = slices.Delete(held, i, i+1)
			case x < 95:
				n.kswapdPass()
				ref.kswapdPass()
			default:
				order := []int{pcOrder, mem.LargePageOrder}[r.Intn(2)]
				if got, want := n.DirectReclaim(zone, order), ref.directReclaim(zone, order); got != want {
					t.Fatalf("seed %d step %d: DirectReclaim = %v, reference %v", seed, step, got, want)
				}
			}
			samePageCache(t, step, n, ref)
		}
		if n.PCAllocFails == 0 || n.ReclaimedPages == 0 {
			t.Fatalf("seed %d: the sequence never recycled (%d) or reclaimed (%d)", seed, n.PCAllocFails, n.ReclaimedPages)
		}
		// Allocation order: drain both zones and compare the PFNs.
		for zi, z := range n.Mem.Zones {
			var got, want []mem.PFN
			for p, ok := z.AllocPages(pcOrder); ok; p, ok = z.AllocPages(pcOrder) {
				got = append(got, p)
			}
			w := ref.mem.Zones[zi]
			for p, ok := w.AllocPages(pcOrder); ok; p, ok = w.AllocPages(pcOrder) {
				want = append(want, p)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: zone %d drains %d blocks, reference %d, or in another order", seed, zi, len(got), len(want))
			}
		}
	}
}

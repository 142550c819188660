package kernel

import (
	"math"
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

// Operations of the page-cache twin driver.
const (
	pcFill      = iota // PageCacheAdd(zone, arg bytes)
	pcAnonAlloc        // ungated Mem.Alloc(zone, order arg), held
	pcAnonFree         // free held block arg mod the number held
	pcKswapd           // one kswapd pass
	pcDirect           // DirectReclaim(zone, order arg)
	pcOps
)

// pcTwin is a node and the per-block reference driven by the same
// operations, with the anonymous blocks the driver holds.
type pcTwin struct {
	n    *Node
	ref  *refPageCache
	held []heldBlock
}

type heldBlock struct {
	pfn   mem.PFN
	order int
}

func newPCTwin(cfg MachineConfig) *pcTwin {
	return &pcTwin{n: NewNode(cfg, sim.NewEngine(), sim.NewRand(1)), ref: newRefPageCache(cfg)}
}

// apply runs one operation on the node and on the reference and fails
// unless their results and states agree after it.
func (w *pcTwin) apply(t *testing.T, step, op, zone int, arg uint64) {
	t.Helper()
	n, ref := w.n, w.ref
	switch op {
	case pcFill:
		n.PageCacheAdd(zone, arg)
		ref.add(zone, arg)
	case pcAnonAlloc:
		order := int(arg)
		p, _, ok := n.Mem.Alloc(zone, order)
		q, _, wantOK := ref.mem.Alloc(zone, order)
		if p != q || ok != wantOK {
			t.Fatalf("step %d: Alloc(%d, %d) = %d, %v; reference %d, %v", step, zone, order, p, ok, q, wantOK)
		}
		if ok {
			w.held = append(w.held, heldBlock{p, order})
		}
	case pcAnonFree:
		if len(w.held) == 0 {
			return
		}
		i := int(arg % uint64(len(w.held)))
		n.Mem.Free(w.held[i].pfn, w.held[i].order)
		ref.mem.Free(w.held[i].pfn, w.held[i].order)
		w.held = slices.Delete(w.held, i, i+1)
	case pcKswapd:
		n.kswapdPass()
		ref.kswapdPass()
	case pcDirect:
		if got, want := n.DirectReclaim(zone, int(arg)), ref.directReclaim(zone, int(arg)); got != want {
			t.Fatalf("step %d: DirectReclaim = %v, reference %v", step, got, want)
		}
	}
	samePageCache(t, step, n, ref)
	// LoadFor's one-pass snapshot against the pressures it replaces.
	want := n.CommitPressure()
	if zp := n.Mem.Pressure(); zp > want {
		want = zp
	}
	if got := n.LoadFor(&Process{}).MemPressure; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: LoadFor memory pressure %v, CommitPressure and Mem.Pressure give %v", step, got, want)
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
		w := newPCTwin(cfg)
		r := sim.NewRand(seed)
		for step := 0; step < 1500; step++ {
			zone := r.Intn(cfg.NumaZones)
			switch x := r.Intn(100); {
			case x < 45:
				w.apply(t, step, pcFill, zone, r.Uint64n(16<<20))
			case x < 70:
				w.apply(t, step, pcAnonAlloc, zone, uint64(3+r.Intn(mem.MaxOrder-2)))
			case x < 85:
				w.apply(t, step, pcAnonFree, zone, r.Uint64())
			case x < 95:
				w.apply(t, step, pcKswapd, zone, 0)
			default:
				w.apply(t, step, pcDirect, zone, uint64([]int{pcOrder, mem.LargePageOrder}[r.Intn(2)]))
			}
		}
		n, ref := w.n, w.ref
		if n.PCAllocFails == 0 || n.ReclaimedPages == 0 {
			t.Fatalf("seed %d: the sequence never recycled (%d) or reclaimed (%d)", seed, n.PCAllocFails, n.ReclaimedPages)
		}
		// Allocation order: drain both zones and compare the PFNs.
		for zi, z := range n.Mem.Zones {
			var got, want []mem.PFN
			for p, ok := z.AllocPages(pcOrder); ok; p, ok = z.AllocPages(pcOrder) {
				got = append(got, p)
			}
			wz := ref.mem.Zones[zi]
			for p, ok := wz.AllocPages(pcOrder); ok; p, ok = wz.AllocPages(pcOrder) {
				want = append(want, p)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: zone %d drains %d blocks, reference %d, or in another order", seed, zi, len(got), len(want))
			}
		}
	}
}

// checkPageCache decodes data three bytes per step (op, a, b) into
// operations on a 32 MB node of two 16 MB zones and its per-block
// reference. Bit 7 of op picks the zone and op&0x7f mod 5 the operation;
// with x = a | b<<8, a fill caches x 32 KB blocks (x = 0 caches one),
// an anonymous allocation takes order 3 + a mod 9, a free releases held
// block x, and direct reclaim asks for order 3, or order 9 when a is
// odd. In each 16 MB zone the low watermark is 32 pages, so a fill
// leaves at most 39 pages free.
func checkPageCache(t *testing.T, data []byte) {
	const maxSteps = 200
	cfg := DellR415()
	cfg.MemoryBytes = 32 << 20
	w := newPCTwin(cfg)
	for step := 0; len(data) >= 3 && step < maxSteps; step++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		zone := int(op >> 7)
		x := uint64(a) | uint64(b)<<8
		switch kind := int(op&0x7f) % pcOps; kind {
		case pcFill:
			w.apply(t, step, kind, zone, x<<(mem.PageShift+pcOrder))
		case pcAnonAlloc:
			w.apply(t, step, kind, zone, uint64(pcOrder+int(a)%(mem.MaxOrder-2)))
		case pcDirect:
			w.apply(t, step, kind, zone, uint64([]int{pcOrder, mem.LargePageOrder}[a&1]))
		default:
			w.apply(t, step, kind, zone, x)
		}
	}
}

// FuzzPageCache checks the page cache, with its in-place recycle loop,
// against the per-block reference on operation streams decoded from the
// input. The seed corpus replays in plain `go test`; `make fuzz`
// explores further.
func FuzzPageCache(f *testing.F) {
	// A fill of 2000 blocks into zone 0 caches 508 blocks in each zone,
	// down to the gates, and recycles the other 984. The zones tie, so
	// zone 0, the preferred zone, is the fullest, and every one of its
	// blocks has a cached buddy: all 984 steps run in place.
	f.Add([]byte{
		0x00, 0xd0, 0x07, // fill zone 0 with 2000 blocks
	})
	// Zone 0's oldest cached block gets a free buddy: the first recycle
	// step falls back (the freed block merges, and the allocation splits
	// another), and the steps after it run in place.
	f.Add([]byte{
		0x81, 6, 0, // zone 1: anonymous order-9 block, so its cache stays smaller
		0x01, 0, 0, // zone 0: anonymous order-3 block A = the zone's block 2048
		0x00, 0xfb, 0x01, // fill zone 0 with 507 blocks, 2056 first, down to its gate
		0x01, 0, 0, // zone 0: anonymous order-3 block B, leaving 24 pages free
		0x02, 1, 0, // free A: the oldest cached block's buddy, 32 pages free
		0x00, 0xd0, 0x07, // fill zone 0 with 2000 blocks: zone 1 caches 444, the rest recycle
	})
	// The preferred zone is full of anonymous memory, so Mem.Alloc
	// fails there (one Failure per step) and takes the dropped block
	// back from the fullest zone, in place. First the preferred zone
	// comes after the fullest in ID order, then before it.
	f.Add([]byte{
		0x81, 8, 0, // zone 1: anonymous order-11 block
		0x81, 8, 0, // zone 1: anonymous order-11 block, zone 1 full
		0x80, 0xd0, 0x07, // fill zone 1 with 2000 blocks: zone 0 caches 508, the rest recycle
	})
	f.Add([]byte{
		0x01, 8, 0, // zone 0: anonymous order-11 block
		0x01, 8, 0, // zone 0: anonymous order-11 block, zone 0 full
		0x00, 0xd0, 0x07, // fill zone 0 with 2000 blocks: zone 1 caches 508, the rest recycle
	})
	f.Fuzz(checkPageCache)
}

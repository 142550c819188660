package mem

import (
	"slices"
	"testing"

	"hpmmap/internal/sim"
)

// refAllocPages is the block-at-a-time allocator that take generalises:
// pop the smallest free order and split down to the request, pushing each
// upper half. The run tests' twin zone allocates through it, so AllocRun,
// and AllocPages itself, are checked against an independent split path.
func refAllocPages(z *Zone, order int) (PFN, bool) {
	for o := order; o <= MaxOrder; o++ {
		p, ok := z.free[o].pop()
		if !ok {
			continue
		}
		for o > order {
			o--
			z.Splits++
			z.free[o].push(p + PFN(PagesPerOrder(o)))
		}
		z.freePages -= PagesPerOrder(order)
		z.Allocs++
		return p, true
	}
	z.Failures++
	return 0, false
}

// heldRun is a run of blocks the driver still owns.
type heldRun struct {
	Run
	order int
}

// sameZoneState fails unless the two zones hold every free list's items
// in the same order, the same free pages, and the same five counters.
func sameZoneState(t *testing.T, step int, got, want *Zone) {
	t.Helper()
	for o := 0; o <= MaxOrder; o++ {
		if !slices.Equal(got.free[o].items, want.free[o].items) {
			t.Fatalf("step %d: order-%d free list %v, want %v", step, o, got.free[o].items, want.free[o].items)
		}
	}
	if got.freePages != want.freePages {
		t.Fatalf("step %d: free pages %d, want %d", step, got.freePages, want.freePages)
	}
	g := [5]uint64{got.Allocs, got.Frees, got.Splits, got.Merges, got.Failures}
	w := [5]uint64{want.Allocs, want.Frees, want.Splits, want.Merges, want.Failures}
	if g != w {
		t.Fatalf("step %d: Allocs/Frees/Splits/Merges/Failures %v, want %v", step, g, w)
	}
}

// checkZoneRuns decodes data four bytes per step into gated AllocRuns,
// oldest-first FreeRuns (whole or partial), and single AllocPages and
// FreeBlock calls at orders 3-11. Each step runs on one zone and its
// block-at-a-time equivalent on a twin; after every step the blocks
// handed out and the two zones' full state must match.
func checkZoneRuns(t *testing.T, data []byte) {
	const maxSteps = 400
	base := PFN(3 * PagesPerOrder(MaxOrder))
	pages := 4 * PagesPerOrder(MaxOrder)
	z, twin := NewZone(0, base, pages), NewZone(0, base, pages)
	var held []heldRun // oldest first
	var runs []Run
	var want []PFN
	for step := 0; len(data) >= 4 && step < maxSteps; step++ {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		order := 3 + int(a)%9
		switch op % 4 {
		case 0: // gated AllocRun
			n, reserve := 1+uint64(b), uint64(c)<<5
			var got uint64
			runs, got = z.AllocRun(order, n, reserve, runs[:0])
			want = want[:0]
			for uint64(len(want)) < n && twin.FreePages() >= reserve {
				p, ok := refAllocPages(twin, order)
				if !ok {
					break
				}
				want = append(want, p)
			}
			var blocks []PFN
			for i, r := range runs {
				if r.Blocks == 0 || (i > 0 && runs[i-1].End(order) == r.Base) {
					t.Fatalf("step %d: AllocRun returned unmerged or empty runs %v", step, runs)
				}
				for k := uint64(0); k < r.Blocks; k++ {
					blocks = append(blocks, r.Base+PFN(k<<uint(order)))
				}
				held = append(held, heldRun{r, order})
			}
			if got != uint64(len(blocks)) || !slices.Equal(blocks, want) {
				t.Fatalf("step %d: AllocRun(%d, %d, %d) = %d blocks %v, want %v", step, order, n, reserve, got, blocks, want)
			}
		case 1: // FreeRun of the oldest held run, whole or its front
			if len(held) == 0 {
				continue
			}
			h := &held[0]
			k := h.Blocks
			if c%2 == 1 {
				k = 1 + uint64(b)%h.Blocks
			}
			z.FreeRun(h.Base, k, h.order)
			for i := uint64(0); i < k; i++ {
				twin.FreeBlock(h.Base+PFN(i<<uint(h.order)), h.order)
			}
			h.Base += PFN(k << uint(h.order))
			if h.Blocks -= k; h.Blocks == 0 {
				held = held[1:]
			}
		case 2: // single AllocPages
			p, ok := z.AllocPages(order)
			q, wantOK := refAllocPages(twin, order)
			if p != q || ok != wantOK {
				t.Fatalf("step %d: AllocPages(%d) = %d, %v, want %d, %v", step, order, p, ok, q, wantOK)
			}
			if ok {
				held = append(held, heldRun{Run{Base: p, Blocks: 1}, order})
			}
		case 3: // single FreeBlock of any held run's first block
			if len(held) == 0 {
				continue
			}
			i := int(b) % len(held)
			h := &held[i]
			z.FreeBlock(h.Base, h.order)
			twin.FreeBlock(h.Base, h.order)
			h.Base += PFN(PagesPerOrder(h.order))
			if h.Blocks--; h.Blocks == 0 {
				held = slices.Delete(held, i, i+1)
			}
		}
		sameZoneState(t, step, z, twin)
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzZoneRuns differentially checks AllocRun, FreeRun and AllocPages
// against block-at-a-time allocation and freeing. The seed corpus under
// testdata/fuzz/FuzzZoneRuns replays in plain `go test`; `make fuzz`
// explores further.
func FuzzZoneRuns(f *testing.F) {
	f.Add([]byte{0, 0, 255, 0, 1, 0, 0, 0})
	f.Fuzz(checkZoneRuns)
}

// TestZoneRunsMatchBlockAtATime runs the fuzz check over random
// operation streams, so plain `go test` covers more than the corpus.
func TestZoneRunsMatchBlockAtATime(t *testing.T) {
	r := sim.NewRand(0x5eed)
	data := make([]byte, 4*400)
	for seed := 0; seed < 100; seed++ {
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkZoneRuns(t, data)
	}
}

func TestAllocRunDrainsBlockPiecesAscending(t *testing.T) {
	z := newTestZone(t, 16) // two max-order blocks
	runs, got := z.AllocRun(3, 300, 0, nil)
	// The most recently freed max-order block goes first, piece by piece.
	if got != 300 || len(runs) != 2 {
		t.Fatalf("AllocRun = %d blocks in runs %v, want 300 in 2", got, runs)
	}
	if runs[0] != (Run{Base: 2048, Blocks: 256}) || runs[1] != (Run{Base: 0, Blocks: 44}) {
		t.Fatalf("runs %v", runs)
	}
	// 255 splits exhaust the first block; the second leaves 256-44 = 212
	// = 0b11010100 blocks as four pieces, after 43 taken-piece splits.
	if z.Splits != 255+43+4 {
		t.Fatalf("splits %d, want %d", z.Splits, 255+43+4)
	}
	z.FreeRun(runs[1].Base, runs[1].Blocks, 3)
	z.FreeRun(runs[0].Base, runs[0].Blocks, 3)
	if z.largestFreeOrder() != MaxOrder || z.FreeBlocksAt(MaxOrder) != 2 || z.Frees != 300 || z.Merges != z.Splits {
		t.Fatalf("after freeing: largest order %d, %d max blocks, frees %d, merges %d vs splits %d",
			z.largestFreeOrder(), z.FreeBlocksAt(MaxOrder), z.Frees, z.Merges, z.Splits)
	}
}

func TestAllocRunStopsAtGate(t *testing.T) {
	z := newTestZone(t, 16)
	reserve := z.FreePages() - 10*8 // admits 11 order-3 blocks
	_, got := z.AllocRun(3, 100, reserve, nil)
	if got != 11 || z.Failures != 0 {
		t.Fatalf("gated AllocRun got %d blocks (failures %d), want 11", got, z.Failures)
	}
	if _, got := z.AllocRun(3, 100, reserve, nil); got != 0 {
		t.Fatalf("AllocRun under the gate got %d blocks", got)
	}
}

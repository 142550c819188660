package buddy

import (
	"testing"
	"testing/quick"

	"hpmmap/internal/sim"
)

const mb = 1 << 20

func newPool(t *testing.T, sizeMB uint64) *Allocator {
	t.Helper()
	a := New(2 * mb)
	if err := a.AddRegion(0x1_0000_0000, sizeMB*mb); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(3MB) did not panic")
		}
	}()
	New(3 * mb)
}

func TestAddRegionAlignment(t *testing.T) {
	a := New(2 * mb)
	if err := a.AddRegion(1*mb, 128*mb); err == nil {
		t.Fatal("misaligned base accepted")
	}
	if err := a.AddRegion(0, 3*mb); err == nil {
		t.Fatal("misaligned size accepted")
	}
	if err := a.AddRegion(0, 0); err != nil {
		t.Fatalf("empty region rejected: %v", err)
	}
}

func TestAddRegionOverlapRejected(t *testing.T) {
	a := New(2 * mb)
	if err := a.AddRegion(0, 128*mb); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRegion(64*mb, 128*mb); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := a.AddRegion(128*mb, 128*mb); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
	if a.TotalBytes() != 256*mb {
		t.Fatalf("total %d", a.TotalBytes())
	}
}

func TestAllocRoundsToBlockSize(t *testing.T) {
	a := newPool(t, 128)
	addr, size, err := a.Alloc(3 * mb)
	if err != nil {
		t.Fatal(err)
	}
	if size != 4*mb {
		t.Fatalf("3MB request got %d-byte block, want 4MB", size)
	}
	if a.FreeBytes() != 124*mb {
		t.Fatalf("free %d", a.FreeBytes())
	}
	a.Free(addr, size)
	if a.FreeBytes() != 128*mb {
		t.Fatalf("free %d after free", a.FreeBytes())
	}
	if a.LargestFreeBlock() != 128*mb {
		t.Fatalf("pool did not re-coalesce: largest %d", a.LargestFreeBlock())
	}
}

func TestAllocZeroFails(t *testing.T) {
	a := newPool(t, 128)
	if _, _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := newPool(t, 16)
	var blocks []uint64
	for {
		addr, size, err := a.Alloc(2 * mb)
		if err != nil {
			break
		}
		if size != 2*mb {
			t.Fatalf("size %d", size)
		}
		blocks = append(blocks, addr)
	}
	if len(blocks) != 8 {
		t.Fatalf("got %d 2MB blocks from 16MB", len(blocks))
	}
	if a.FreeBytes() != 0 {
		t.Fatalf("free %d after exhaustion", a.FreeBytes())
	}
	if _, _, err := a.Alloc(2 * mb); err == nil {
		t.Fatal("alloc on exhausted pool succeeded")
	}
	if a.Failures == 0 {
		t.Fatal("failure counter not incremented")
	}
	for _, b := range blocks {
		a.Free(b, 2*mb)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.LargestFreeBlock() != 16*mb {
		t.Fatalf("largest after full free: %d", a.LargestFreeBlock())
	}
}

func TestAllocSpansRegions(t *testing.T) {
	a := New(2 * mb)
	if err := a.AddRegion(0, 4*mb); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRegion(1<<32, 128*mb); err != nil {
		t.Fatal(err)
	}
	// A 64MB request cannot fit in region 0.
	addr, _, err := a.Alloc(64 * mb)
	if err != nil {
		t.Fatal(err)
	}
	if addr < 1<<32 {
		t.Fatalf("64MB block at %#x, expected in second region", addr)
	}
}

func TestNonPowerOfTwoRegionDecomposition(t *testing.T) {
	// 96MB = 64 + 32: greedy seeding must cover it exactly.
	a := New(2 * mb)
	if err := a.AddRegion(0, 96*mb); err != nil {
		t.Fatal(err)
	}
	if a.FreeBytes() != 96*mb {
		t.Fatalf("free %d", a.FreeBytes())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := a.LargestFreeBlock(); got != 64*mb {
		t.Fatalf("largest %d, want 64MB", got)
	}
	// Allocate it all as 2MB pages and give it all back.
	var blocks []uint64
	for {
		addr, _, err := a.Alloc(2 * mb)
		if err != nil {
			break
		}
		blocks = append(blocks, addr)
	}
	if len(blocks) != 48 {
		t.Fatalf("%d blocks from 96MB", len(blocks))
	}
	for _, b := range blocks {
		a.Free(b, 2*mb)
	}
	if a.FreeBytes() != 96*mb || a.LargestFreeBlock() != 64*mb {
		t.Fatalf("after free: free=%d largest=%d", a.FreeBytes(), a.LargestFreeBlock())
	}
}

func TestFreePanicsOutsidePool(t *testing.T) {
	a := newPool(t, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Free outside pool did not panic")
		}
	}()
	a.Free(0xdead0000000, 2*mb)
}

func TestFreePanicsOnBadSize(t *testing.T) {
	a := newPool(t, 16)
	addr, size, err := a.Alloc(2 * mb)
	if err != nil {
		t.Fatal(err)
	}
	_ = size
	defer func() {
		if recover() == nil {
			t.Fatal("Free with non-block size did not panic")
		}
	}()
	a.Free(addr, 3*mb)
}

// TestOwns: the region lookup behind Free finds the pool's base and
// nothing outside the pool.
func TestOwns(t *testing.T) {
	a := newPool(t, 16)
	if a.regionOf(0x1_0000_0000) == nil {
		t.Fatal("regionOf(base) = nil")
	}
	if a.regionOf(0) != nil {
		t.Fatal("regionOf(0) != nil")
	}
}

// Property: random alloc/free sequences conserve bytes, never hand out
// overlapping blocks, and full free restores full coalescing.
func TestBuddyRandomOpsProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		a := New(2 * mb)
		if err := a.AddRegion(0, 256*mb); err != nil {
			t.Log(err)
			return false
		}
		type blk struct{ addr, size uint64 }
		var live []blk
		owned := map[uint64]bool{} // 2MB-unit occupancy
		for op := 0; op < 1500; op++ {
			if len(live) == 0 || r.Bool(0.55) {
				req := uint64(1+r.Intn(32)) * mb
				addr, size, err := a.Alloc(req)
				if err != nil {
					continue
				}
				for u := addr; u < addr+size; u += 2 * mb {
					if owned[u] {
						t.Logf("seed %d: unit %#x double-allocated", seed, u)
						return false
					}
					owned[u] = true
				}
				live = append(live, blk{addr, size})
			} else {
				i := r.Intn(len(live))
				b := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				for u := b.addr; u < b.addr+b.size; u += 2 * mb {
					delete(owned, u)
				}
				a.Free(b.addr, b.size)
			}
			var liveBytes uint64
			for _, b := range live {
				liveBytes += b.size
			}
			if liveBytes+a.FreeBytes() != a.TotalBytes() {
				t.Logf("seed %d: conservation violated at op %d", seed, op)
				return false
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, b := range live {
			a.Free(b.addr, b.size)
		}
		if a.LargestFreeBlock() != 256*mb {
			t.Logf("seed %d: did not re-coalesce (largest %d)", seed, a.LargestFreeBlock())
			return false
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSize(t *testing.T) {
	a := New(2 * mb)
	cases := []struct{ req, want uint64 }{
		{1, 2 * mb},
		{2 * mb, 2 * mb},
		{2*mb + 1, 4 * mb},
		{5 * mb, 8 * mb},
	}
	for _, c := range cases {
		if got := a.BlockSize(c.req); got != c.want {
			t.Fatalf("BlockSize(%d) = %d, want %d", c.req, got, c.want)
		}
	}
}

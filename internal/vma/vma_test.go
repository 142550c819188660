package vma

import (
	"testing"
	"testing/quick"

	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
)

const rw = pgtable.ProtRead | pgtable.ProtWrite

func newSpace() *Space { return NewSpace(DefaultLayout()) }

// Len returns the region size in bytes.
func (v *VMA) Len() uint64 { return uint64(v.End - v.Start) }

// Map is MapAligned at the default (small-page) alignment.
func (s *Space) Map(addr pgtable.VirtAddr, length uint64, prot pgtable.Prot, kind Kind) (*VMA, error) {
	return s.MapAligned(addr, length, prot, kind, 0)
}

// LargePageAligned reports whether the VMA can be mapped entirely with
// 2MB pages: both ends 2MB-aligned.
func (v *VMA) LargePageAligned() bool {
	return uint64(v.Start)%mem.LargePageSize == 0 && uint64(v.End)%mem.LargePageSize == 0
}

func TestNewSpaceHasStack(t *testing.T) {
	s := newSpace()
	if len(s.VMAs()) != 1 {
		t.Fatalf("fresh space has %d VMAs", len(s.VMAs()))
	}
	v := s.VMAs()[0]
	if v.Kind != KindStack || v.End != DefaultLayout().StackTop {
		t.Fatalf("stack VMA = %s", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMapChoosesTopDown(t *testing.T) {
	s := newSpace()
	a, err := s.Map(0, 1<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Map(0, 1<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if a.End != DefaultLayout().MmapTop {
		t.Fatalf("first map not at mmap top: %s", a)
	}
	// Adjacent same-kind same-prot regions merge.
	if a != b && b.Contains(a.Start) == false {
		got := s.Find(a.Start)
		if got == nil || got.Len() != 2<<20 {
			t.Fatalf("adjacent anon maps did not merge: %v", s.VMAs())
		}
	}
}

func TestMapFixedOverlapFails(t *testing.T) {
	s := newSpace()
	if _, err := s.Map(0x1000_0000_0000, 1<<20, rw, KindAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x1000_0000_0000+0x1000, 1<<20, rw, KindAnon); err == nil {
		t.Fatal("overlapping fixed map accepted")
	}
	if _, err := s.Map(0x1000_0000_0123, 1<<20, rw, KindAnon); err == nil {
		t.Fatal("unaligned fixed map accepted")
	}
}

func TestMapZeroLengthFails(t *testing.T) {
	s := newSpace()
	if _, err := s.Map(0, 0, rw, KindAnon); err == nil {
		t.Fatal("zero-length map accepted")
	}
}

func TestDefaultPlacementDefeatsLargePages(t *testing.T) {
	// The paper's complaint: default 4KB-granular placement produces VMAs
	// that are not 2MB-aligned. Map an odd size then a 2MB-able size.
	s := newSpace()
	if _, err := s.Map(0, 12<<10, pgtable.ProtRead, KindFile); err != nil {
		t.Fatal(err)
	}
	v, err := s.Map(0, 4<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if v.LargePageAligned() {
		t.Fatalf("default placement unexpectedly 2MB-aligned: %s", v)
	}
	// Explicitly aligned placement fixes it.
	v2, err := s.MapAligned(0, 4<<20, rw, KindHugeTLB, mem.LargePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.LargePageAligned() {
		t.Fatalf("aligned placement not aligned: %s", v2)
	}
}

func TestUnmapSplitsVMA(t *testing.T) {
	s := newSpace()
	v, err := s.Map(0x2000_0000_0000, 8<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	mid := v.Start + pgtable.VirtAddr(2<<20)
	if err := s.Unmap(mid, 2<<20); err != nil {
		t.Fatal(err)
	}
	if s.Find(mid) != nil {
		t.Fatal("unmapped middle still found")
	}
	left := s.Find(v.Start)
	right := s.Find(mid + pgtable.VirtAddr(2<<20))
	if left == nil || right == nil {
		t.Fatal("split remnants missing")
	}
	if left.Len() != 2<<20 || right.Len() != 4<<20 {
		t.Fatalf("remnant sizes %d / %d", left.Len(), right.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapUnmappedIsNoop(t *testing.T) {
	s := newSpace()
	if err := s.Unmap(0x3000_0000_0000, 1<<20); err != nil {
		t.Fatal(err)
	}
}

func TestProtectSplitsAndSetsProt(t *testing.T) {
	s := newSpace()
	v, err := s.Map(0x2000_0000_0000, 4<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	mid := v.Start + pgtable.VirtAddr(1<<20)
	if err := s.Protect(mid, 1<<20, pgtable.ProtRead); err != nil {
		t.Fatal(err)
	}
	if got := s.Find(mid); got.Prot != pgtable.ProtRead {
		t.Fatalf("mid prot %v", got.Prot)
	}
	if got := s.Find(v.Start); got.Prot != rw {
		t.Fatalf("left prot %v", got.Prot)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Hole detection.
	if err := s.Protect(0x4000_0000_0000, 1<<20, rw); err == nil {
		t.Fatal("protect over hole succeeded")
	}
	// mprotect's EINVAL and its zero-length no-op.
	if err := s.Protect(mid+100, mem.PageSize, rw); err == nil {
		t.Fatal("protect at an unaligned address succeeded")
	}
	n := len(s.VMAs())
	if err := s.Protect(mid+mem.PageSize, 0, rw); err != nil {
		t.Fatal(err)
	}
	if len(s.VMAs()) != n || s.Find(mid).Prot != pgtable.ProtRead {
		t.Fatal("zero-length protect changed the space")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProtectCreatesPermissionConflictForLargePages(t *testing.T) {
	// The paper: permission conflicts from mprotect fragment what could
	// have been large-page mappings.
	s := newSpace()
	v, err := s.MapAligned(0, 4<<20, rw, KindAnon, mem.LargePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !v.LargePageAligned() {
		t.Fatal("setup: not aligned")
	}
	if err := s.Protect(v.Start+4096, 4096, pgtable.ProtRead); err != nil {
		t.Fatal(err)
	}
	// Now no single VMA covering the first 2MB is large-page alignable.
	first := s.Find(v.Start)
	if first.LargePageAligned() {
		t.Fatalf("fragmented VMA still large-page capable: %s", first)
	}
}

func TestMergeAdjacentAnon(t *testing.T) {
	s := newSpace()
	a, err := s.Map(0x2000_0000_0000, 1<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(a.End, 1<<20, rw, KindAnon); err != nil {
		t.Fatal(err)
	}
	got := s.Find(a.Start)
	if got.Len() != 2<<20 {
		t.Fatalf("adjacent anon VMAs did not merge: %v", s.VMAs())
	}
	// Different prot must not merge.
	if _, err := s.Map(got.End, 1<<20, pgtable.ProtRead, KindAnon); err != nil {
		t.Fatal(err)
	}
	if s.Find(a.Start).Len() != 2<<20 {
		t.Fatal("different-prot VMAs merged")
	}
}

func TestHugeTLBNeverMerges(t *testing.T) {
	s := newSpace()
	a, err := s.MapAligned(0x2000_0000_0000, 2<<20, rw, KindHugeTLB, mem.LargePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MapAligned(a.End, 2<<20, rw, KindHugeTLB, mem.LargePageSize); err != nil {
		t.Fatal(err)
	}
	if s.Find(a.Start).Len() != 2<<20 {
		t.Fatal("hugetlb VMAs merged")
	}
}

func TestSetBrkGrowShrink(t *testing.T) {
	s := newSpace()
	start := DefaultLayout().BrkStart
	nb, err := s.SetBrk(start + pgtable.VirtAddr(10<<20))
	if err != nil {
		t.Fatal(err)
	}
	if nb != start+pgtable.VirtAddr(10<<20) {
		t.Fatalf("brk = %#x", uint64(nb))
	}
	heap := s.Find(start)
	if heap == nil || heap.Kind != KindHeap || heap.Len() != 10<<20 {
		t.Fatalf("heap VMA %v", heap)
	}
	// Shrink.
	if _, err := s.SetBrk(start + pgtable.VirtAddr(4<<20)); err != nil {
		t.Fatal(err)
	}
	if got := s.Find(start); got.Len() != 4<<20 {
		t.Fatalf("heap after shrink %d", got.Len())
	}
	// Query.
	if cur, _ := s.SetBrk(0); cur != start+pgtable.VirtAddr(4<<20) {
		t.Fatalf("brk query %#x", uint64(cur))
	}
	// Below start fails.
	if _, err := s.SetBrk(start - 1); err == nil {
		t.Fatal("brk below heap start accepted")
	}
}

func TestSetBrkCollision(t *testing.T) {
	s := newSpace()
	start := DefaultLayout().BrkStart
	if _, err := s.Map(start+pgtable.VirtAddr(1<<20), 1<<20, rw, KindAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetBrk(start + pgtable.VirtAddr(4<<20)); err == nil {
		t.Fatal("brk growth through a mapping accepted")
	}
}

func TestFindUnmappedAlignment(t *testing.T) {
	s := newSpace()
	addr, err := s.FindUnmapped(3<<20, mem.LargePageSize)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(addr)%mem.LargePageSize != 0 {
		t.Fatalf("aligned search returned %#x", uint64(addr))
	}
	if _, err := s.FindUnmapped(0, 0); err == nil {
		t.Fatal("zero-length search accepted")
	}
}

func TestFindUnmappedSkipsBusyGaps(t *testing.T) {
	s := newSpace()
	top := DefaultLayout().MmapTop
	// Occupy the top, leaving a 1MB hole, then more mappings.
	if _, err := s.Map(top-pgtable.VirtAddr(4<<20), 4<<20, rw, KindFile); err != nil {
		t.Fatal(err)
	}
	holeStart := top - pgtable.VirtAddr(5<<20)
	if _, err := s.Map(top-pgtable.VirtAddr(16<<20), 11<<20, pgtable.ProtRead, KindFile); err != nil {
		t.Fatal(err)
	}
	// A 512KB request fits in the 1MB hole.
	addr, err := s.FindUnmapped(512<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr < holeStart || addr >= top-pgtable.VirtAddr(4<<20) {
		t.Fatalf("512KB landed at %#x, not in hole", uint64(addr))
	}
	// A 2MB request must skip the hole and land below everything.
	addr2, err := s.FindUnmapped(2<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 >= top-pgtable.VirtAddr(16<<20) {
		t.Fatalf("2MB landed at %#x, inside occupied span", uint64(addr2))
	}
}

// Property test: random map/unmap/protect sequences keep the VMA set
// sorted, non-overlapping and page-aligned.
func TestSpaceRandomOps(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		s := newSpace()
		var regions []*VMA
		for op := 0; op < 400; op++ {
			switch r.Intn(4) {
			case 0, 1:
				length := uint64(1+r.Intn(2048)) * mem.PageSize
				v, err := s.Map(0, length, rw, KindAnon)
				if err == nil {
					regions = append(regions, v)
				}
			case 2:
				if len(regions) > 0 {
					i := r.Intn(len(regions))
					v := regions[i]
					regions = append(regions[:i], regions[i+1:]...)
					off := uint64(r.Intn(4)) * mem.PageSize
					l := v.Len() / 2
					if l == 0 {
						l = mem.PageSize
					}
					if uint64(v.Start)+off+l <= uint64(DefaultLayout().MmapTop) {
						if err := s.Unmap(v.Start+pgtable.VirtAddr(off), l); err != nil {
							t.Logf("seed %d: unmap: %v", seed, err)
							return false
						}
					}
				}
			case 3:
				if len(regions) > 0 {
					v := regions[r.Intn(len(regions))]
					// Protect the first page if it still exists.
					if got := s.Find(v.Start); got != nil {
						if err := s.Protect(got.Start, mem.PageSize, pgtable.ProtRead); err != nil {
							t.Logf("seed %d: protect: %v", seed, err)
							return false
						}
					}
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindAnon, KindHeap, KindStack, KindFile, KindHugeTLB, KindHPMMAP}
	want := []string{"anon", "heap", "stack", "file", "hugetlb", "hpmmap"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("Kind(%d).String() = %q", i, k.String())
		}
	}
	v := &VMA{Start: 0x1000, End: 0x2000, Prot: rw, Kind: KindAnon}
	if v.String() == "" || v.Len() != 0x1000 {
		t.Fatal("VMA String/Len broken")
	}
}

func TestClone(t *testing.T) {
	s := newSpace()
	v, err := s.Map(0x2000_0000_0000, 4<<20, rw, KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetBrk(DefaultLayout().BrkStart + pgtable.VirtAddr(1<<20)); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if c.Brk() != s.Brk() {
		t.Fatal("brk not cloned")
	}
	if len(c.VMAs()) != len(s.VMAs()) {
		t.Fatal("vma count differs")
	}
	// Deep copy: mutating the clone leaves the original alone.
	if err := c.Unmap(v.Start, v.Len()); err != nil {
		t.Fatal(err)
	}
	if s.Find(v.Start) == nil {
		t.Fatal("unmap in clone removed parent's VMA")
	}
	if c.Find(v.Start) != nil {
		t.Fatal("clone still has the unmapped VMA")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

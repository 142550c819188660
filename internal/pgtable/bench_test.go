package pgtable

import (
	"testing"

	"hpmmap/internal/mem"
)

func BenchmarkMapUnmap4K(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := VirtAddr(uint64(i%4096) * mem.PageSize)
		if err := t.Map(va, mem.PFN(i), Page4K, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unmap(va, Page4K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmapRange4K maps a 2MB range as 512 4KB pages and tears it
// down with one UnmapRange, the teardown of a process exit at micro
// fidelity; ns/op covers one MapRun4K and one UnmapRange.
func BenchmarkUnmapRange4K(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.MapRun4K(0, 512, mem.PFN(i), ProtRead|ProtWrite)
		t.UnmapRange(0, mem.LargePageSize)
	}
	if t.Mapped4K != 0 {
		b.Fatalf("%d pages left mapped", t.Mapped4K)
	}
}

func BenchmarkMapUnmap2M(b *testing.B) {
	t := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := VirtAddr(uint64(i%512) * mem.LargePageSize)
		if err := t.Map(va, mem.PFN(i*512), Page2M, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := t.Unmap(va, Page2M); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalkHit(b *testing.B) {
	t := New()
	for i := 0; i < 512; i++ {
		if err := t.Map(VirtAddr(uint64(i)*mem.LargePageSize), mem.PFN(i*512), Page2M, ProtRead); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Walk(VirtAddr(uint64(i%512) * mem.LargePageSize)); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSplit2M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := New()
		if err := t.Map(0, 0, Page2M, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := t.Split2M(0); err != nil {
			b.Fatal(err)
		}
	}
}

// unrelatedLeaves is the number of 4KB leaves BenchmarkUnmapRange and
// TestUnmapRangeAllocationFree keep mapped below the range they unmap.
const unrelatedLeaves = 32 << 10

// tableWithUnrelatedLeaves returns a table holding unrelatedLeaves 4KB
// leaves from address 0 (64 PTs under one PD) and the address of a free
// 2MB slot in that same PD.
func tableWithUnrelatedLeaves(tb testing.TB) (*Table, VirtAddr) {
	t := New()
	for i := uint64(0); i < unrelatedLeaves; i++ {
		if err := t.Map(VirtAddr(i*mem.PageSize), mem.PFN(i), Page4K, ProtRead); err != nil {
			tb.Fatal(err)
		}
	}
	return t, VirtAddr(256 * mem.LargePageSize)
}

// BenchmarkUnmapRange maps one 2MB leaf and unmaps its range with
// UnmapRange, in a table of 32Ki other leaves.
func BenchmarkUnmapRange(b *testing.B) {
	t, va := tableWithUnrelatedLeaves(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Map(va, mem.PFN(i), Page2M, ProtRead|ProtWrite); err != nil {
			b.Fatal(err)
		}
		t.UnmapRange(va, mem.LargePageSize)
	}
}

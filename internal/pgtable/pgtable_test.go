package pgtable

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hpmmap/internal/invariant"
	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

func TestMapWalk4K(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1234, Page4K, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000)
	if !ok {
		t.Fatal("walk missed")
	}
	if m.PFN != 1234 || m.Size != Page4K || m.Prot != ProtRead|ProtWrite {
		t.Fatalf("mapping = %+v", m)
	}
	if m.Levels != 4 {
		t.Fatalf("4K walk depth %d, want 4", m.Levels)
	}
	if pt.Mapped4K != 1 || pt.MappedBytes() != mem.PageSize {
		t.Fatalf("accounting: %d pages, %d bytes", pt.Mapped4K, pt.MappedBytes())
	}
	// Root + PDPT + PD + PT.
	if pt.TablePages != 4 {
		t.Fatalf("table pages %d, want 4", pt.TablePages)
	}
}

func TestMapWalk2M(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 512, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000 + 0x1000)
	if !ok {
		t.Fatal("walk inside 2MB page missed")
	}
	if m.Size != Page2M || m.Levels != 3 || m.PFN != 512 {
		t.Fatalf("mapping = %+v", m)
	}
	if pt.TablePages != 3 {
		t.Fatalf("table pages %d, want 3 (no PT needed)", pt.TablePages)
	}
}

func TestMapWalk1G(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 0, Page1G, ProtRead); err != nil {
		t.Fatal(err)
	}
	m, ok := pt.Walk(0x4000_0000 + mem.LargePageSize)
	if !ok || m.Size != Page1G || m.Levels != 2 {
		t.Fatalf("1G walk = %+v, %v", m, ok)
	}
}

func TestMapAlignmentEnforced(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 0, Page2M, ProtRead); err == nil {
		t.Fatal("misaligned 2MB map accepted")
	}
	if err := pt.Map(0x123, 0, Page4K, ProtRead); err == nil {
		t.Fatal("misaligned 4K map accepted")
	}
}

func TestDoubleMapRejected(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0, 2, Page4K, ProtRead); err == nil {
		t.Fatal("double map accepted")
	}
	// 2MB over existing 4K region must fail.
	if err := pt.Map(0, 3, Page2M, ProtRead); err == nil {
		t.Fatal("2MB map over 4K mappings accepted")
	}
	// 4K under existing 2MB leaf must fail.
	if err := pt.Map(0x4000_0000, 4, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000_0000+0x1000, 5, Page4K, ProtRead); err == nil {
		t.Fatal("4K map under a 2MB leaf accepted")
	}
}

func TestWalkMiss(t *testing.T) {
	pt := New()
	if _, ok := pt.Walk(0xdead000); ok {
		t.Fatal("walk on empty table hit")
	}
}

func TestUnmapReturnsFrameAndPrunes(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 777, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	pfn, err := pt.Unmap(0x4000_0000, Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if pfn != 777 {
		t.Fatalf("unmap returned pfn %d", pfn)
	}
	if _, ok := pt.Walk(0x4000_0000); ok {
		t.Fatal("walk hit after unmap")
	}
	if pt.TablePages != 1 {
		t.Fatalf("table pages %d after prune, want 1 (root only)", pt.TablePages)
	}
	if pt.Mapped4K != 0 {
		t.Fatalf("mapped4K = %d", pt.Mapped4K)
	}
}

func TestUnmapWrongSizeFails(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x4000_0000, Page4K); err == nil {
		t.Fatal("unmap 4K of a 2MB leaf succeeded")
	}
	if _, err := pt.Unmap(0x5000_0000, Page2M); err == nil {
		t.Fatal("unmap of unmapped address succeeded")
	}
}

func TestPrunePreservesSiblings(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x4000_1000, 2, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap(0x4000_0000, Page4K); err != nil {
		t.Fatal(err)
	}
	if _, ok := pt.Walk(0x4000_1000); !ok {
		t.Fatal("sibling mapping lost after unmap")
	}
	if pt.TablePages != 4 {
		t.Fatalf("table pages %d, want 4 (PT still live)", pt.TablePages)
	}
}

func TestProtect(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	ps, err := pt.Protect(0x4000_0000+0x1000, ProtRead|ProtWrite|ProtExec)
	if err != nil {
		t.Fatal(err)
	}
	if ps != Page2M {
		t.Fatalf("Protect size %v", ps)
	}
	m, _ := pt.Walk(0x4000_0000)
	if m.Prot != ProtRead|ProtWrite|ProtExec {
		t.Fatalf("prot = %v", m.Prot)
	}
	if _, err := pt.Protect(0x9000_0000, ProtRead); err == nil {
		t.Fatal("protect of unmapped address succeeded")
	}
}

func TestSplit2M(t *testing.T) {
	pt := New()
	if err := pt.Map(0x4000_0000, 1000, Page2M, ProtRead|ProtWrite); err != nil {
		t.Fatal(err)
	}
	before := pt.TablePages
	if err := pt.Split2M(0x4000_0000); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages != before+1 {
		t.Fatalf("split did not add a PT page")
	}
	if pt.Mapped2M != 0 || pt.Mapped4K != 512 {
		t.Fatalf("accounting after split: 2M=%d 4K=%d", pt.Mapped2M, pt.Mapped4K)
	}
	// Every 4K piece maps to the right frame with the same prot.
	for i := uint64(0); i < 512; i++ {
		m, ok := pt.Walk(VirtAddr(0x4000_0000 + i*mem.PageSize))
		if !ok || m.Size != Page4K || m.PFN != mem.PFN(1000+i) || m.Prot != ProtRead|ProtWrite {
			t.Fatalf("piece %d: %+v, %v", i, m, ok)
		}
	}
	// Total mapped bytes unchanged.
	if pt.MappedBytes() != mem.LargePageSize {
		t.Fatalf("mapped bytes %d", pt.MappedBytes())
	}
}

func TestSplit2MRejectsNon2M(t *testing.T) {
	pt := New()
	if err := pt.Split2M(0x4000_0000); err == nil {
		t.Fatal("split of unmapped address succeeded")
	}
	if err := pt.Map(0x4000_0000, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split2M(0x4000_0000); err == nil {
		t.Fatal("split of 4K region succeeded")
	}
	if err := pt.Split2M(0x4000_0123); err == nil {
		t.Fatal("split of misaligned address succeeded")
	}
}

func TestRangeOrdered(t *testing.T) {
	pt := New()
	addrs := []VirtAddr{0x7000_0000_0000, 0x4000_0000, 0x4020_0000, 0x1000}
	for i, va := range addrs {
		ps := Page4K
		if uint64(va)%mem.LargePageSize == 0 {
			ps = Page2M
		}
		if err := pt.Map(va, mem.PFN(i), ps, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	var got []VirtAddr
	pt.Range(func(va VirtAddr, m Mapping) bool {
		got = append(got, va)
		return true
	})
	if len(got) != 4 {
		t.Fatalf("Range visited %d mappings", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Range not ascending: %v", got)
		}
	}
	// Early stop.
	count := 0
	pt.Range(func(va VirtAddr, m Mapping) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestUnmapRange(t *testing.T) {
	pt := New()
	base := VirtAddr(0x4000_0000)
	for i := uint64(0); i < 8; i++ {
		if err := pt.Map(base+VirtAddr(i*mem.LargePageSize), mem.PFN(i*512), Page2M, ProtRead); err != nil {
			t.Fatal(err)
		}
	}
	pt.UnmapRange(base+VirtAddr(2*mem.LargePageSize), 3*mem.LargePageSize)
	if pt.Mapped2M != 5 || pt.UnmapOps != 3 {
		t.Fatalf("remaining 2M mappings %d, unmap ops %d; want 5, 3", pt.Mapped2M, pt.UnmapOps)
	}
	if pt.TablePages != 3 {
		t.Fatalf("table pages %d, want 3 (the PD still holds 5 leaves)", pt.TablePages)
	}
	for i := uint64(0); i < 8; i++ {
		m, ok := pt.Walk(base + VirtAddr(i*mem.LargePageSize))
		if unmapped := i >= 2 && i < 5; ok == unmapped || ok && (m.PFN != mem.PFN(i*512) || m.Size != Page2M) {
			t.Fatalf("leaf %d after UnmapRange: %+v, %v", i, m, ok)
		}
	}
	// A leaf that starts before the range stays; one that starts in it goes.
	pt.UnmapRange(base+mem.PageSize, mem.LargePageSize)
	if _, ok := pt.Walk(base); !ok || pt.Mapped2M != 4 {
		t.Fatalf("after unmapping from inside leaf 0: leaf 0 mapped %v, 2M mappings %d; want true, 4", ok, pt.Mapped2M)
	}
	pt.UnmapRange(base, 8*mem.LargePageSize)
	if pt.Mapped2M != 0 || pt.TablePages != 1 {
		t.Fatalf("after unmapping all: 2M mappings %d, table pages %d; want 0, 1 (root only)", pt.Mapped2M, pt.TablePages)
	}
}

// TestUnmapRange4KMatchesPerPageUnmap checks UnmapRange's PT loop
// against one Unmap per 4KB page that starts in the range, on a table of
// four PTs with a hole every seventh page: from a misaligned start, over
// a partial first and last PT, and over whole PTs.
func TestUnmapRange4KMatchesPerPageUnmap(t *testing.T) {
	page := func(i uint64) VirtAddr { return VirtAddr(0x4000_0000 + i*mem.PageSize) }
	for _, tc := range []struct {
		name   string
		start  VirtAddr
		length uint64
	}{
		{"misaligned start", page(5) + 123, 40 * mem.PageSize},
		{"partial first and last PT", page(300), 900 * mem.PageSize},
		{"whole PTs", page(512), 1024 * mem.PageSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pts [2]*Table
			for i := range pts {
				pts[i] = New()
				for p := uint64(0); p < 4*512; p++ {
					if p%7 == 3 {
						continue
					}
					if err := pts[i].Map(page(p), mem.PFN(p), Page4K, ProtRead); err != nil {
						t.Fatal(err)
					}
				}
			}
			pts[0].UnmapRange(tc.start, tc.length)
			end := uint64(tc.start) + tc.length
			for va := (tc.start + mem.PageSize - 1) &^ (mem.PageSize - 1); uint64(va) < end; va += mem.PageSize {
				_, _ = pts[1].Unmap(va, Page4K) // a hole is refused and changes nothing
			}
			if got, want := appendLeaves(nil, pts[0]), appendLeaves(nil, pts[1]); !slices.Equal(got, want) {
				t.Fatalf("UnmapRange left %d leaves, per-page Unmap %d", len(got), len(want))
			}
			if got, want := tableCounters(pts[0]), tableCounters(pts[1]); got != want {
				t.Fatalf("UnmapRange counters %v, per-page Unmap %v (Mapped4K/2M/1G, TablePages, Map/Unmap/SplitOps, WalkedSlots)", got, want)
			}
		})
	}
}

// TestUnmapRangeAllocationFree checks that tearing down one 2MB range
// allocates nothing, however many other leaves the table holds.
func TestUnmapRangeAllocationFree(t *testing.T) {
	pt, va := tableWithUnrelatedLeaves(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := pt.Map(va, 1, Page2M, ProtRead); err != nil {
			t.Fatal(err)
		}
		pt.UnmapRange(va, mem.LargePageSize)
	})
	if allocs != 0 {
		t.Fatalf("Map+UnmapRange of one 2MB range: %v allocations, want 0", allocs)
	}
	if pt.Mapped4K != unrelatedLeaves || pt.Mapped2M != 0 {
		t.Fatalf("4K mappings %d, 2M mappings %d after the runs", pt.Mapped4K, pt.Mapped2M)
	}
}

// TestMapAfterPruneAllocationFree checks that Map and MapRun4K reuse the
// tables Unmap and UnmapRange pruned: in a warmed table, mapping and
// unmapping a 4KB page, a 2MB page, or a run of 4KB pages across a PT
// boundary, in an otherwise empty subtree allocates nothing.
func TestMapAfterPruneAllocationFree(t *testing.T) {
	pt := New()
	for _, ps := range []PageSize{Page4K, Page2M} {
		va := VirtAddr(0x7f00_0000_0000)
		allocs := testing.AllocsPerRun(100, func() {
			if err := pt.Map(va, 1, ps, ProtRead); err != nil {
				t.Fatal(err)
			}
			if _, err := pt.Unmap(va, ps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Map+Unmap of one %s page after a prune: %v allocations, want 0", ps, allocs)
		}
		if pt.TablePages != 1 || pt.MappedBytes() != 0 {
			t.Fatalf("%d table pages, %d mapped bytes after the runs", pt.TablePages, pt.MappedBytes())
		}
	}
	va, ops := VirtAddr(0x7f00_0000_0000+300*mem.PageSize), pt.MapOps
	allocs := testing.AllocsPerRun(100, func() {
		pt.MapRun4K(va, 600, 1, ProtRead)
		pt.UnmapRange(va, 600*mem.PageSize)
	})
	// AllocsPerRun calls the function once more to warm up.
	if allocs != 0 || pt.TablePages != 1 || pt.MapOps-ops != 101*600 {
		t.Fatalf("MapRun4K+UnmapRange of 600 pages after a prune: %v allocations, %d table pages, %d map ops", allocs, pt.TablePages, pt.MapOps-ops)
	}
}

// TestUnmapRangeMalformedTreeViolates pins the check UnmapRange keeps for
// the tree shapes Map cannot build: a leaf in the PML4 and a table below
// the PT each raise a contained *invariant.Violation.
func TestUnmapRangeMalformedTreeViolates(t *testing.T) {
	pml4Leaf := New()
	pml4Leaf.nodes[pml4Leaf.rootNode()][1] = leafEntry(7, ProtRead)
	pml4Leaf.live[0] = 1

	belowPT := New()
	if err := belowPT.Map(0x4000_0000, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	pdpt := belowPT.nodes[0][0].child()
	pd := belowPT.nodes[pdpt][1].child()
	pte := &belowPT.nodes[belowPT.nodes[pd][0].child()][0]
	extra := belowPT.newNode()
	belowPT.nodes[extra][0] = leafEntry(1, ProtRead)
	belowPT.live[extra] = 1
	*pte = tableEntry(extra)

	for _, tc := range []struct {
		name  string
		pt    *Table
		start VirtAddr
	}{
		{"leaf in the PML4", pml4Leaf, 1 << 39},
		{"table below the PT", belowPT, 0x4000_0000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				var v *invariant.Violation
				if err, _ := recover().(error); !errors.As(err, &v) || v.Check != "unmap_lost_mapping" {
					t.Fatalf("recovered %v, want an unmap_lost_mapping *invariant.Violation", err)
				}
			}()
			tc.pt.UnmapRange(tc.start, mem.LargePageSize)
		})
	}
}

// Property: map/walk/unmap round-trips across random canonical addresses
// and page sizes.
func TestMapUnmapRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := sim.NewRand(seed)
		pt := New()
		type m struct {
			va VirtAddr
			ps PageSize
			pf mem.PFN
		}
		live := map[VirtAddr]m{}
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.Bool(0.6) {
				ps := PageSize(r.Intn(3))
				va := VirtAddr(r.Uint64n(1<<47)) &^ VirtAddr(ps.Bytes()-1)
				pf := mem.PFN(r.Uint64n(1 << 30))
				if pt.Map(va, pf, ps, ProtRead|ProtWrite) == nil {
					live[va] = m{va, ps, pf}
				}
			} else {
				for _, v := range live {
					pfn, err := pt.Unmap(v.va, v.ps)
					if err != nil || pfn != v.pf {
						t.Logf("seed %d: unmap %+v: %v pfn=%d", seed, v, err, pfn)
						return false
					}
					delete(live, v.va)
					break
				}
			}
		}
		for _, v := range live {
			got, ok := pt.Walk(v.va)
			if !ok || got.PFN != v.pf || got.Size != v.ps {
				t.Logf("seed %d: walk %+v got %+v %v", seed, v, got, ok)
				return false
			}
		}
		// Tear everything down; the tree must shrink to just the root.
		for _, v := range live {
			if _, err := pt.Unmap(v.va, v.ps); err != nil {
				t.Logf("seed %d: final unmap: %v", seed, err)
				return false
			}
		}
		return pt.TablePages == 1 && pt.MappedBytes() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkedSlotsAccumulates(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 1, Page4K, ProtRead); err != nil {
		t.Fatal(err)
	}
	pt.WalkedSlots = 0
	pt.Walk(0)
	if pt.WalkedSlots != 4 {
		t.Fatalf("4K walk touched %d slots, want 4", pt.WalkedSlots)
	}
	pt2 := New()
	if err := pt2.Map(0, 1, Page2M, ProtRead); err != nil {
		t.Fatal(err)
	}
	pt2.WalkedSlots = 0
	pt2.Walk(0)
	if pt2.WalkedSlots != 3 {
		t.Fatalf("2MB walk touched %d slots, want 3", pt2.WalkedSlots)
	}
}

func TestPageSizeBytes(t *testing.T) {
	if Page4K.Bytes() != 4096 || Page2M.Bytes() != 2<<20 || Page1G.Bytes() != 1<<30 {
		t.Fatal("PageSize.Bytes wrong")
	}
	if Page4K.String() != "4KB" || Page2M.String() != "2MB" || Page1G.String() != "1GB" {
		t.Fatal("PageSize.String wrong")
	}
}

// hasPointer reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// checkRoundTrip4K maps one 4KB page and requires Walk, Range, Protect
// and Unmap to hand back its frame and protections unchanged.
func checkRoundTrip4K(t *testing.T, pfn mem.PFN, prot Prot) {
	t.Helper()
	pt, va := New(), VirtAddr(0x7f12_3456_7000)
	if err := pt.Map(va, pfn, Page4K, prot); err != nil {
		t.Fatalf("Map(frame %#x, prot %#x): %v", pfn, prot, err)
	}
	want := Mapping{PFN: pfn, Size: Page4K, Prot: prot, Levels: 4}
	if m, ok := pt.Walk(va); !ok || m != want {
		t.Fatalf("Walk after Map(frame %#x, prot %#x) = %+v, %v", pfn, prot, m, ok)
	}
	if got := appendLeaves(nil, pt); !slices.Equal(got, []leaf{{va, pfn, Page4K, prot}}) {
		t.Fatalf("Range after Map(frame %#x, prot %#x) = %+v", pfn, prot, got)
	}
	if ps, err := pt.Protect(va, ^prot); ps != Page4K || err != nil {
		t.Fatalf("Protect(%#x) = %s, %v", ^prot, ps, err)
	}
	if m, _ := pt.Walk(va); m.PFN != pfn || m.Prot != ^prot {
		t.Fatalf("Walk after Protect(%#x) of frame %#x = %+v", ^prot, pfn, m)
	}
	if _, err := pt.Protect(va, prot); err != nil {
		t.Fatal(err)
	}
	if got, err := pt.Unmap(va, Page4K); got != pfn || err != nil {
		t.Fatalf("Unmap of frame %#x, prot %#x = %#x, %v", pfn, prot, got, err)
	}
}

// checkRoundTripSplit maps one 2MB page from frame pfn, splits it, and
// requires every 4KB piece to carry frame pfn+i and the same prot.
func checkRoundTripSplit(t *testing.T, pfn mem.PFN, prot Prot) {
	t.Helper()
	pt, va := New(), VirtAddr(0x7f12_3440_0000)
	if err := pt.Map(va, pfn, Page2M, prot); err != nil {
		t.Fatalf("Map 2MB (frame %#x, prot %#x): %v", pfn, prot, err)
	}
	if m, ok := pt.Walk(va + mem.PageSize); !ok || m != (Mapping{PFN: pfn, Size: Page2M, Prot: prot, Levels: 3}) {
		t.Fatalf("Walk of 2MB frame %#x, prot %#x = %+v, %v", pfn, prot, m, ok)
	}
	if err := pt.Split2M(va); err != nil {
		t.Fatal(err)
	}
	leaves := appendLeaves(nil, pt)
	if len(leaves) != 512 {
		t.Fatalf("%d leaves after Split2M, want 512", len(leaves))
	}
	for i, l := range leaves {
		if want := (leaf{va + VirtAddr(i)*mem.PageSize, pfn + mem.PFN(i), Page4K, prot}); l != want {
			t.Fatalf("Split2M piece %d = %+v, want %+v", i, l, want)
		}
	}
	if got, err := pt.Unmap(va+511*mem.PageSize, Page4K); got != pfn+511 || err != nil {
		t.Fatalf("Unmap of the last piece of frame %#x = %#x, %v", pfn, got, err)
	}
}

// TestEntryLayout pins the entry representation: an entry is one 64-bit
// word and a node one 4KB page with no pointer in it; every Prot value
// and every frame below 2^40 round-trips through Map, Walk, Range,
// Protect, Split2M and Unmap; and a mapping whose last frame is at or
// above 2^40 is refused, by MapRun4K exactly as by per-page Map.
func TestEntryLayout(t *testing.T) {
	if size := reflect.TypeOf(entry(0)).Size(); size != 8 {
		t.Fatalf("entry is %d bytes, want 8", size)
	}
	if nt := reflect.TypeOf(node{}); nt.Size() != 4096 || hasPointer(nt) {
		t.Fatalf("node is %d bytes (pointers: %v), want 4096 and none", nt.Size(), hasPointer(nt))
	}

	for p := 0; p < 256; p++ {
		for _, pfn := range []mem.PFN{0, 1, 1 << 32, maxFrame - 1} {
			checkRoundTrip4K(t, pfn, Prot(p))
		}
		for _, pfn := range []mem.PFN{0, 1, 1 << 32, maxFrame - 512} {
			checkRoundTripSplit(t, pfn, Prot(p))
		}
	}

	pt := New()
	for _, c := range []struct {
		va  VirtAddr
		pfn mem.PFN
		ps  PageSize
	}{
		{0x4000_0000, maxFrame, Page4K},
		{0x4000_0000, maxFrame - 511, Page2M},
		{0x4000_0000, maxFrame - (1 << 18) + 1, Page1G},
	} {
		if err := pt.Map(c.va, c.pfn, c.ps, ProtRead); err == nil {
			t.Fatalf("Map(%s at frame %#x) accepted: its last frame reaches 2^40", c.ps, c.pfn)
		}
	}
	if c := tableCounters(pt); c != [8]uint64{3: 1} || len(pt.nodes) != 0 {
		t.Fatalf("refused Maps left counters %v and %d arena nodes", c, len(pt.nodes))
	}
	if err := pt.Map(0x4000_0000, maxFrame-512, Page2M, ProtRead); err != nil {
		t.Fatalf("Map of a 2MB leaf ending at frame 2^40-1: %v", err)
	}

	// Runs that cross the limit, from inside a PT, across a PT boundary,
	// and from the limit itself, over a table already holding leaves.
	run, twin := New(), New()
	for _, r := range []struct {
		va  VirtAddr
		n   uint64
		pfn mem.PFN
	}{
		{0x4000_0000 + 400*mem.PageSize, 600, maxFrame - 300},
		{0x4000_0000 + 800*mem.PageSize, 100, maxFrame - 50},
		{0x8000_0000, 10, maxFrame},
		{0x8000_0000, 1, maxFrame - 1},
	} {
		run.MapRun4K(r.va, r.n, r.pfn, ProtRead|ProtWrite)
		refMapRun4K(twin, r.va, r.n, r.pfn, ProtRead|ProtWrite)
		if got, want := appendLeaves(nil, run), appendLeaves(nil, twin); !slices.Equal(got, want) {
			t.Fatalf("MapRun4K(%#x, %d, frame %#x) leaves %v; per-page Map %v", uint64(r.va), r.n, r.pfn, got, want)
		}
		if c, ct := tableCounters(run), tableCounters(twin); c != ct {
			t.Fatalf("MapRun4K(%#x, %d, frame %#x) counters %v; per-page Map %v", uint64(r.va), r.n, r.pfn, c, ct)
		}
	}
	if run.Mapped4K != 300+50+1 {
		t.Fatalf("runs across the limit mapped %d pages, want 351", run.Mapped4K)
	}
}

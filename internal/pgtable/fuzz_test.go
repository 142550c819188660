package pgtable

import (
	"slices"
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/sim"
)

// refUnmapRange is the reference teardown UnmapRange is checked against:
// enumerate every leaf of the table with Range, keep those that start in
// [start, start+length), and Unmap each in ascending order, which prunes
// every table that empties.
func refUnmapRange(tb testing.TB, t *Table, start VirtAddr, length uint64) {
	type target struct {
		va VirtAddr
		ps PageSize
	}
	var targets []target
	t.Range(func(va VirtAddr, m Mapping) bool {
		if uint64(va) >= uint64(start) && uint64(va) < uint64(start)+length {
			targets = append(targets, target{va, m.Size})
		}
		return true
	})
	for _, tg := range targets {
		if _, err := t.Unmap(tg.va, tg.ps); err != nil {
			tb.Fatalf("reference UnmapRange[%#x,+%#x): %v", uint64(start), length, err)
		}
	}
}

// refMapRun4K is the per-page loop MapRun4K replaces: one Map per page,
// in ascending order, each refusal ignored.
func refMapRun4K(t *Table, va VirtAddr, n uint64, pfn mem.PFN, prot Prot) {
	for i := uint64(0); i < n; i++ {
		_ = t.Map(va+VirtAddr(i*mem.PageSize), pfn+mem.PFN(i), Page4K, prot)
	}
}

// leaf is one live mapping as Range reports it, keyed in the flat model by
// its start address.
type leaf struct {
	va   VirtAddr
	pfn  mem.PFN
	size PageSize
	prot Prot
}

// fuzzWindows are the 2GB, 1GB-aligned address windows the operations
// land in: one inside the first PML4 slot, one straddling the boundary
// between the first two, and one far away in the last slot of the lower
// half.
var fuzzWindows = [...]uint64{0x4000_0000, 0x7f_c000_0000, 0x7fff_8000_0000}

// fuzzLengths are the UnmapRange lengths: slot-sized, one short and one
// long of a boundary, whole tables, past the 48-bit space, wrapping, and
// empty.
var fuzzLengths = [...]uint64{
	1, mem.PageSize, 2 * mem.PageSize, 9 * mem.PageSize,
	mem.LargePageSize - mem.PageSize, mem.LargePageSize, mem.LargePageSize + mem.PageSize, 9 * mem.LargePageSize,
	mem.HugePageSize - mem.LargePageSize, mem.HugePageSize, 2 * mem.HugePageSize, 512 * mem.HugePageSize,
	1 << 62, ^uint64(0), 0, 3 * mem.PageSize,
}

// runLengths are the MapRun4K lengths in pages: empty, within one PT,
// one short and one long of a whole PT, and across two and three PTs.
// From an edge slot of the last PT of a PD or PDPT, even short runs
// cross into the next one.
var runLengths = [...]uint64{0, 1, 2, 3, 8, 9, 16, 64, 255, 511, 512, 520, 1023, 513, 1025, 7}

// edgeSlot maps b onto one of the first or last eight slots of a table,
// so operations meet at table boundaries often.
func edgeSlot(b byte) uint64 {
	i := uint64(b % 16)
	if i >= 8 {
		i += 512 - 16
	}
	return i
}

// fuzzAddr decodes an address aligned to ps: the window and its first or
// second gigabyte from w, the 2MB slot from x and the 4KB slot from y.
func fuzzAddr(w, x, y byte, ps PageSize) VirtAddr {
	va := fuzzWindows[int(w)%len(fuzzWindows)] + uint64(w>>7)*mem.HugePageSize
	if ps != Page1G {
		va += edgeSlot(x) * mem.LargePageSize
	}
	if ps == Page4K {
		va += edgeSlot(y) * mem.PageSize
	}
	return VirtAddr(va)
}

// mapSize decodes a mapping size, 4KB half the time.
func mapSize(z byte) PageSize {
	return [...]PageSize{Page4K, Page4K, Page2M, Page1G}[z%4]
}

// tableCounters lists every counter of a table, in field order.
func tableCounters(t *Table) [8]uint64 {
	return [8]uint64{t.Mapped4K, t.Mapped2M, t.Mapped1G, t.TablePages, t.MapOps, t.UnmapOps, t.SplitOps, t.WalkedSlots}
}

// appendLeaves appends the table's leaves in Range order.
func appendLeaves(dst []leaf, t *Table) []leaf {
	t.Range(func(va VirtAddr, m Mapping) bool {
		dst = append(dst, leaf{va, m.PFN, m.Size, m.Prot})
		return true
	})
	return dst
}

// flatLookup returns the flat model's leaf covering va.
func flatLookup(flat map[VirtAddr]leaf, va VirtAddr) (leaf, bool) {
	for _, ps := range [...]PageSize{Page4K, Page2M, Page1G} {
		if l, ok := flat[va&^VirtAddr(ps.Bytes()-1)]; ok && l.size == ps {
			return l, true
		}
	}
	return leaf{}, false
}

// flatOverlaps reports whether a live leaf of the flat model overlaps the
// ps-sized page at va: one covers va, or one starts inside the page.
func flatOverlaps(flat map[VirtAddr]leaf, va VirtAddr, ps PageSize) bool {
	if _, ok := flatLookup(flat, va); ok {
		return true
	}
	end := va + VirtAddr(ps.Bytes())
	for p := range flat {
		if p > va && p < end {
			return true
		}
	}
	return false
}

// checkWalk walks va on both tables and fails unless both agree with
// the flat model's covering leaf, or both miss where it has none.
func checkWalk(t *testing.T, step int, pt, twin *Table, flat map[VirtAddr]leaf, va VirtAddr) {
	t.Helper()
	got, ok := pt.Walk(va)
	wantTwin, okTwin := twin.Walk(va)
	want, wantOK := flatLookup(flat, va)
	if got != wantTwin || ok != okTwin {
		t.Fatalf("step %d: Walk(%#x) = %+v, %v; twin %+v, %v", step, uint64(va), got, ok, wantTwin, okTwin)
	}
	if ok != wantOK || ok && (got.PFN != want.pfn || got.Size != want.size || got.Prot != want.prot) {
		t.Fatalf("step %d: Walk(%#x) = %+v, %v; flat model %+v, %v", step, uint64(va), got, ok, want, wantOK)
	}
}

// checkTree fails unless every node's live count is its number of
// present slots, no table below the root is empty, TablePages counts the
// tree's nodes, and every node on the spare stack is outside the tree
// and empty: no slot present and every slot zero, but for slot 0's link.
// Nodes are read through their arena indexes, and every arena node must
// be in the tree or on the spare stack, exactly once.
func checkTree(t *testing.T, step int, pt *Table) {
	t.Helper()
	if len(pt.live) != len(pt.nodes) {
		t.Fatalf("step %d: %d live counts for %d arena nodes", step, len(pt.live), len(pt.nodes))
	}
	nodes := uint64(1)
	seen := make([]bool, len(pt.nodes))
	var visit func(ni uint32, level int)
	visit = func(ni uint32, level int) {
		seen[ni] = true
		present := 0
		for i, e := range pt.nodes[ni] {
			if !e.present() {
				continue
			}
			present++
			if !e.leaf() {
				c := e.child()
				if level == levelPT || int(c) >= len(pt.nodes) || seen[c] || pt.live[c] == 0 {
					t.Fatalf("step %d: level-%d slot %d holds a malformed or empty table", step, level, i)
				}
				nodes++
				visit(c, level+1)
			}
		}
		if int32(present) != pt.live[ni] {
			t.Fatalf("step %d: level-%d node has %d present slots, live %d", step, level, present, pt.live[ni])
		}
	}
	if len(pt.nodes) > 0 {
		visit(0, levelPML4)
	}
	if nodes != pt.TablePages {
		t.Fatalf("step %d: %d table nodes, TablePages %d", step, nodes, pt.TablePages)
	}
	for s, i := pt.spare, 0; s != 0; s, i = uint32(pt.nodes[s-1][0]), i+1 {
		n := s - 1
		if int(n) >= len(pt.nodes) || seen[n] {
			t.Fatalf("step %d: spare %d (node %d) is outside the arena, in the tree or on the stack twice", step, i, n)
		}
		seen[n] = true
		if pt.live[n] != 0 {
			t.Fatalf("step %d: spare %d has live %d", step, i, pt.live[n])
		}
		for j := 1; j < len(pt.nodes[n]); j++ {
			if pt.nodes[n][j] != 0 {
				t.Fatalf("step %d: spare %d slot %d is %#x", step, i, j, uint64(pt.nodes[n][j]))
			}
		}
	}
	for n, ok := range seen {
		if !ok {
			t.Fatalf("step %d: arena node %d is neither in the tree nor on the spare stack", step, n)
		}
	}
}

// checkTable decodes data five bytes per step (op, w, x, y, z) into Map,
// Unmap, UnmapRange, Split2M, Protect, Walk and MapRun4K calls over
// fuzzWindows. It applies each to the table under test and to a twin
// that tears ranges down with refUnmapRange and maps runs with
// refMapRun4K, and keeps a flat model of the live leaves.
// After every step the two tables must report the same results as each
// other and as the flat model, the same leaves in Range and the same
// counters; Range must equal the flat model, and Walk of the step's
// address must agree with it.
func checkTable(t *testing.T, data []byte) {
	const maxSteps = 256
	pt, twin := New(), New()
	flat := map[VirtAddr]leaf{}
	var got, want []leaf
	for step := 0; len(data) >= 5 && step < maxSteps; step++ {
		op, w, x, y, z := data[0], data[1], data[2], data[3], data[4]
		data = data[5:]
		probe := fuzzAddr(w, x, y, Page4K)
		switch op % 9 {
		case 0, 1, 2: // Map
			ps := mapSize(z)
			va := fuzzAddr(w, x, y, ps)
			pfn, prot := mem.PFN(uint64(x)<<8|uint64(y)), Prot(z>>4)
			err := pt.Map(va, pfn, ps, prot)
			errTwin := twin.Map(va, pfn, ps, prot)
			if (err == nil) != (errTwin == nil) || (err == nil) == flatOverlaps(flat, va, ps) {
				t.Fatalf("step %d: Map(%#x, %s) = %v; twin %v; flat model overlap %v", step, uint64(va), ps, err, errTwin, flatOverlaps(flat, va, ps))
			}
			if err == nil {
				flat[va] = leaf{va, pfn, ps, prot}
			}
		case 3: // Unmap
			ps := mapSize(z)
			va := fuzzAddr(w, x, y, ps)
			pfn, err := pt.Unmap(va, ps)
			pfnTwin, errTwin := twin.Unmap(va, ps)
			l, ok := flat[va]
			if want := ok && l.size == ps; pfn != pfnTwin || (err == nil) != (errTwin == nil) || (err == nil) != want || want && pfn != l.pfn {
				t.Fatalf("step %d: Unmap(%#x, %s) = %d, %v; twin %d, %v; flat model %+v", step, uint64(va), ps, pfn, err, pfnTwin, errTwin, l)
			}
			if err == nil {
				delete(flat, va)
			}
		case 4: // UnmapRange, 4KB/2MB/1GB-aligned or one byte past
			start := fuzzAddr(w, x, y, PageSize(z>>4%3)) + VirtAddr(y>>7)
			length := fuzzLengths[z%16]
			pt.UnmapRange(start, length)
			refUnmapRange(t, twin, start, length)
			for va := range flat {
				if uint64(va) >= uint64(start) && uint64(va) < uint64(start)+length {
					delete(flat, va)
				}
			}
			probe = start
		case 5: // Split2M
			va := fuzzAddr(w, x, y, Page2M)
			err := pt.Split2M(va)
			errTwin := twin.Split2M(va)
			l, ok := flat[va]
			if (err == nil) != (errTwin == nil) || (err == nil) != (ok && l.size == Page2M) {
				t.Fatalf("step %d: Split2M(%#x) = %v; twin %v; flat model %+v", step, uint64(va), err, errTwin, l)
			}
			if err == nil {
				for i := uint64(0); i < 512; i++ {
					p := va + VirtAddr(i*mem.PageSize)
					flat[p] = leaf{p, l.pfn + mem.PFN(i), Page4K, l.prot}
				}
			}
		case 6: // Protect
			prot := Prot(z >> 4)
			ps, err := pt.Protect(probe, prot)
			psTwin, errTwin := twin.Protect(probe, prot)
			l, ok := flatLookup(flat, probe)
			if ps != psTwin || (err == nil) != (errTwin == nil) || (err == nil) != ok || ok && ps != l.size {
				t.Fatalf("step %d: Protect(%#x) = %s, %v; twin %s, %v; flat model %+v", step, uint64(probe), ps, err, psTwin, errTwin, l)
			}
			if err == nil {
				l.prot = prot
				flat[l.va] = l
			}
		case 7: // Walk, anywhere in the probe's page
			probe += VirtAddr(z) << 4
		case 8: // MapRun4K; one run in four starts one byte past a page
			va := probe
			if y&0x60 == 0x60 {
				va++
			}
			n, pfn, prot := runLengths[z%16], mem.PFN(uint64(x)<<8|uint64(y)), Prot(z>>4)
			pt.MapRun4K(va, n, pfn, prot)
			refMapRun4K(twin, va, n, pfn, prot)
			for i := uint64(0); i < n && va == probe; i++ {
				p := va + VirtAddr(i*mem.PageSize)
				if _, ok := flatLookup(flat, p); !ok {
					flat[p] = leaf{p, pfn + mem.PFN(i), Page4K, prot}
				}
			}
			probe = va + VirtAddr(n/2*mem.PageSize)
		}
		checkWalk(t, step, pt, twin, flat, probe)
		got, want = appendLeaves(got[:0], pt), appendLeaves(want[:0], twin)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Range %v; twin %v", step, got, want)
		}
		if c, ct := tableCounters(pt), tableCounters(twin); c != ct {
			t.Fatalf("step %d: counters %v; twin %v (Mapped4K/2M/1G, TablePages, Map/Unmap/SplitOps, WalkedSlots)", step, c, ct)
		}
		if len(got) != len(flat) {
			t.Fatalf("step %d: Range has %d leaves, flat model %d", step, len(got), len(flat))
		}
		for _, l := range got {
			if flat[l.va] != l {
				t.Fatalf("step %d: Range leaf %+v; flat model %+v", step, l, flat[l.va])
			}
		}
		checkTree(t, step, pt)
	}
}

// FuzzTable differentially checks the page table, UnmapRange and
// MapRun4K above all, against a twin that tears ranges down leaf by leaf
// and maps runs page by page, and a flat model of the live leaves. The seed corpus under testdata/fuzz/FuzzTable replays
// in plain `go test`; `make fuzz` explores further.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 4, 0, 0, 0, 1})
	f.Fuzz(checkTable)
}

// TestTableMatchesReference runs the fuzz check over random operation
// streams, so plain `go test` covers more than the corpus.
func TestTableMatchesReference(t *testing.T) {
	r := sim.NewRand(0x9a6e)
	data := make([]byte, 5*256)
	for seed := 0; seed < 100; seed++ {
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkTable(t, data)
	}
}

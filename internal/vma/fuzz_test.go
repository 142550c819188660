package vma

import (
	"fmt"
	"slices"
	"testing"

	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
)

// refVMA is one region of the reference address space, held by value.
type refVMA struct {
	start, end uint64
	prot       pgtable.Prot
	kind       Kind
	locked     bool
}

// refSpace is the reference the Space is checked against: a sorted
// slice of regions rebuilt by plain interval arithmetic, with no node
// pool, no binary search and no in-place edits of shared nodes.
type refSpace struct {
	layout                       Layout
	vmas                         []refVMA // sorted by start, disjoint
	brk                          uint64
	maps, unmaps, splits, merges uint64
}

func newRefSpace(l Layout) *refSpace {
	r := &refSpace{}
	r.reset(l)
	return r
}

func (r *refSpace) reset(l Layout) {
	r.layout = l
	r.vmas = []refVMA{{start: uint64(l.StackTop) - 128<<10, end: uint64(l.StackTop), prot: pgtable.ProtRead | pgtable.ProtWrite, kind: KindStack}}
	r.brk = uint64(l.BrkStart)
	r.maps, r.unmaps, r.splits, r.merges = 0, 0, 0, 0
}

// find returns the index of the region containing va, or -1.
func (r *refSpace) find(va uint64) int {
	for i, v := range r.vmas {
		if va >= v.start && va < v.end {
			return i
		}
	}
	return -1
}

func (r *refSpace) overlaps(start, end uint64) bool {
	for _, v := range r.vmas {
		if v.start < end && start < v.end {
			return true
		}
	}
	return false
}

// covered reports whether every byte of [start, end) is mapped.
func (r *refSpace) covered(start, end uint64) bool {
	for cur := start; cur < end; {
		i := r.find(cur)
		if i < 0 {
			return false
		}
		cur = r.vmas[i].end
	}
	return true
}

// findUnmapped returns the highest align-aligned start whose range fits
// in a gap of [BrkStart, MmapTop).
func (r *refSpace) findUnmapped(length, align uint64) (uint64, bool) {
	if align == 0 {
		align = r.layout.AlignMmap
	}
	lo, top := uint64(r.layout.BrkStart), uint64(r.layout.MmapTop)
	best, ok := uint64(0), false
	fit := func(gapLo, gapHi uint64) {
		if gapHi > gapLo && gapHi-gapLo >= length {
			if a := (gapHi - length) &^ (align - 1); a >= gapLo && (!ok || a > best) {
				best, ok = a, true
			}
		}
	}
	cur := lo
	for _, v := range r.vmas {
		if v.end <= cur {
			continue
		}
		fit(cur, min(v.start, top))
		cur = max(cur, v.end)
	}
	fit(cur, top)
	return best, ok
}

func canMergeRef(a, b refVMA) bool {
	return a.end == b.start && a.kind == b.kind && a.prot == b.prot && a.locked == b.locked &&
		a.kind != KindStack && a.kind != KindHugeTLB && a.kind != KindHPMMAP
}

// mapAligned mirrors Space.MapAligned: place (or check the fixed
// address), insert, and merge with the next and then the previous
// neighbour. It returns the region containing the placement.
func (r *refSpace) mapAligned(addr, length uint64, prot pgtable.Prot, kind Kind, align uint64) (refVMA, bool) {
	if length == 0 {
		return refVMA{}, false
	}
	length = (length + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	if addr == 0 {
		var ok bool
		if addr, ok = r.findUnmapped(length, align); !ok {
			return refVMA{}, false
		}
	} else if addr%mem.PageSize != 0 || r.overlaps(addr, addr+length) {
		return refVMA{}, false
	}
	i := 0
	for i < len(r.vmas) && r.vmas[i].start < addr {
		i++
	}
	r.vmas = slices.Insert(r.vmas, i, refVMA{start: addr, end: addr + length, prot: prot, kind: kind})
	r.maps++
	if i+1 < len(r.vmas) && canMergeRef(r.vmas[i], r.vmas[i+1]) {
		r.vmas[i].end = r.vmas[i+1].end
		r.vmas = slices.Delete(r.vmas, i+1, i+2)
		r.merges++
	}
	if i > 0 && canMergeRef(r.vmas[i-1], r.vmas[i]) {
		r.vmas[i-1].end = r.vmas[i].end
		r.vmas = slices.Delete(r.vmas, i, i+1)
		r.merges++
	}
	return r.vmas[r.find(addr)], true
}

// unmap mirrors Space.Unmap: an unaligned address or a zero length
// fails, as with munmap; otherwise every region the range touches
// counts one unmap, and one split per side it keeps.
func (r *refSpace) unmap(addr, length uint64) bool {
	if addr%mem.PageSize != 0 || length == 0 {
		return false
	}
	end := addr + (length+mem.PageSize-1)/mem.PageSize*mem.PageSize
	var out []refVMA
	for _, v := range r.vmas {
		if v.end <= addr || v.start >= end {
			out = append(out, v)
			continue
		}
		r.unmaps++
		if v.start < addr {
			l := v
			l.end = addr
			out = append(out, l)
			r.splits++
		}
		if v.end > end {
			rt := v
			rt.start = end
			out = append(out, rt)
			r.splits++
		}
	}
	r.vmas = out
	return true
}

// protect mirrors Space.Protect: an unaligned address fails and a zero
// length changes nothing, as with mprotect; otherwise split at both
// ends, no merging.
func (r *refSpace) protect(addr, length uint64, prot pgtable.Prot) bool {
	if addr%mem.PageSize != 0 {
		return false
	}
	if length == 0 {
		return true
	}
	end := addr + (length+mem.PageSize-1)/mem.PageSize*mem.PageSize
	if !r.covered(addr, end) {
		return false
	}
	var out []refVMA
	for _, v := range r.vmas {
		if v.end <= addr || v.start >= end {
			out = append(out, v)
			continue
		}
		if v.start < addr {
			l := v
			l.end = addr
			out = append(out, l)
			r.splits++
		}
		mid := v
		mid.start, mid.end, mid.prot = max(v.start, addr), min(v.end, end), prot
		out = append(out, mid)
		if v.end > end {
			rt := v
			rt.start = end
			out = append(out, rt)
			r.splits++
		}
	}
	r.vmas = out
	return true
}

// setBrk mirrors Space.SetBrk: growth maps a heap region at the old
// page-rounded break, shrinking unmaps down to the new one.
func (r *refSpace) setBrk(newBrk uint64) (uint64, bool) {
	if newBrk == 0 {
		return r.brk, true
	}
	if newBrk < uint64(r.layout.BrkStart) {
		return r.brk, false
	}
	roundUp := func(v uint64) uint64 { return (v + mem.PageSize - 1) / mem.PageSize * mem.PageSize }
	aligned, old := roundUp(newBrk), roundUp(r.brk)
	switch {
	case aligned > old:
		if r.overlaps(old, aligned) {
			return r.brk, false
		}
		r.mapAligned(old, aligned-old, pgtable.ProtRead|pgtable.ProtWrite, KindHeap, mem.PageSize)
	case aligned < old:
		r.unmap(aligned, old-aligned)
	}
	r.brk = newBrk
	return r.brk, true
}

func (r *refSpace) cloneInto(dst *refSpace) {
	dst.layout, dst.brk = r.layout, r.brk
	dst.vmas = slices.Clone(r.vmas)
	dst.maps, dst.unmaps, dst.splits, dst.merges = 0, 0, 0, 0
}

// fuzzLayout packs the heap, the mmap area and the stack into 3072
// pages, so random addresses and lengths collide often.
var fuzzLayout = Layout{
	BrkStart:  0x4000_0000,
	MmapTop:   0x4000_0000 + 2048*mem.PageSize,
	StackTop:  0x4000_0000 + 3072*mem.PageSize,
	StackMax:  256 * mem.PageSize,
	GuardGap:  16 * mem.PageSize,
	AlignMmap: mem.PageSize,
}

func vmaOf(v *VMA) refVMA {
	if v == nil {
		return refVMA{}
	}
	return refVMA{uint64(v.Start), uint64(v.End), v.Prot, v.Kind, v.Locked}
}

// compareSpace fails unless s and ref agree on the region list, the
// break, the four counters and Find at probe (and at each region's
// first and last byte and its end), and s passes CheckInvariants.
func compareSpace(t *testing.T, step int, name string, s *Space, ref *refSpace, probe uint64) {
	t.Helper()
	got := make([]refVMA, 0, len(s.VMAs()))
	for _, v := range s.VMAs() {
		got = append(got, vmaOf(v))
	}
	if !slices.Equal(got, ref.vmas) {
		t.Fatalf("step %d: space %s holds %v; reference %v", step, name, got, ref.vmas)
	}
	gotN := [...]uint64{uint64(s.Brk()), s.Maps, s.Unmaps, s.Splits, s.Merges}
	wantN := [...]uint64{ref.brk, ref.maps, ref.unmaps, ref.splits, ref.merges}
	if gotN != wantN {
		t.Fatalf("step %d: space %s brk, maps, unmaps, splits, merges = %v; reference %v", step, name, gotN, wantN)
	}
	probes := []uint64{probe}
	for _, v := range ref.vmas {
		probes = append(probes, v.start, v.end-1, v.end)
	}
	for _, va := range probes {
		want := refVMA{}
		if i := ref.find(va); i >= 0 {
			want = ref.vmas[i]
		}
		if got := vmaOf(s.Find(pgtable.VirtAddr(va))); got != want {
			t.Fatalf("step %d: space %s Find(%#x) = %v; reference %v", step, name, va, got, want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("step %d: space %s: %v", step, name, err)
	}
}

// checkSpace decodes data into operations on two spaces, applies each
// to the space and to its reference, and fails at the first step where
// a result or the state differs. Each step is five bytes: op, a, b, c,
// d. The top bit of op picks the space; op%8 picks MapAligned at a
// chosen or a fixed address, Unmap, Protect, locking every region (as
// linuxmm.MlockAll does), SetBrk, Reset, or CloneInto the other space. a and b form a page index into fuzzLayout, c a length of
// 1 to 64 pages (times 16 with bit 6; bit 7 makes a fixed address, an
// unmap or a protect unaligned), d the protection (bits 0-2), kind
// (bits 3-5) and placement alignment (bits 6-7). a = 0xff makes a map,
// an unmap or a protect zero-length.
func checkSpace(t *testing.T, data []byte) {
	const maxSteps = 256
	spaces := [2]*Space{NewSpace(fuzzLayout), NewSpace(fuzzLayout)}
	refs := [2]*refSpace{newRefSpace(fuzzLayout), newRefSpace(fuzzLayout)}
	for step := 0; len(data) >= 5 && step < maxSteps; step++ {
		op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
		data = data[5:]
		which := int(op >> 7)
		s, ref := spaces[which], refs[which]
		page := uint64(a) | uint64(b)<<8
		addr := uint64(fuzzLayout.BrkStart) + page%3200*mem.PageSize
		length := 1 + uint64(c%64)
		if c&0x40 != 0 {
			length *= 16
		}
		length *= mem.PageSize
		prot := pgtable.Prot(d & 7)
		kind := Kind((d >> 3 & 7) % 6)
		align := [...]uint64{0, mem.PageSize, 16 * mem.PageSize, mem.LargePageSize}[d>>6]
		kindOfOp := (op & 0x7f) % 8
		if c&0x80 != 0 && kindOfOp <= 3 {
			addr += 123
		}
		var desc string
		switch kindOfOp {
		case 0, 1:
			if kindOfOp == 0 {
				addr = 0
			}
			if a == 0xff {
				length = 0
			} else if b&1 != 0 {
				length -= 100
			}
			desc = fmt.Sprintf("MapAligned(%#x, %#x, %v, %v, %#x)", addr, length, prot, kind, align)
			v, err := s.MapAligned(pgtable.VirtAddr(addr), length, prot, kind, align)
			want, ok := ref.mapAligned(addr, length, prot, kind, align)
			if (err == nil) != ok || vmaOf(v) != want {
				t.Fatalf("step %d: %s = %v, %v; reference %v, %v", step, desc, vmaOf(v), err, want, ok)
			}
		case 2:
			if a == 0xff {
				length = 0
			}
			desc = fmt.Sprintf("Unmap(%#x, %#x)", addr, length)
			if err := s.Unmap(pgtable.VirtAddr(addr), length); (err == nil) != ref.unmap(addr, length) {
				t.Fatalf("step %d: %s error %v differs from the reference", step, desc, err)
			}
		case 3:
			if a == 0xff {
				length = 0
			}
			desc = fmt.Sprintf("Protect(%#x, %#x, %v)", addr, length, prot)
			if err := s.Protect(pgtable.VirtAddr(addr), length, prot); (err == nil) != ref.protect(addr, length, prot) {
				t.Fatalf("step %d: %s error %v differs from the reference", step, desc, err)
			}
		case 4:
			desc = "LockAll"
			for _, v := range s.VMAs() {
				v.Locked = true
			}
			for i := range ref.vmas {
				ref.vmas[i].locked = true
			}
		case 5:
			brk := uint64(fuzzLayout.BrkStart) + page%2560*mem.PageSize + uint64(c%64)*64
			switch {
			case page == 0:
				brk = 0
			case c&0x80 != 0:
				brk = uint64(fuzzLayout.BrkStart) - mem.PageSize
			}
			desc = fmt.Sprintf("SetBrk(%#x)", brk)
			got, err := s.SetBrk(pgtable.VirtAddr(brk))
			want, ok := ref.setBrk(brk)
			if (err == nil) != ok || uint64(got) != want {
				t.Fatalf("step %d: %s = %#x, %v; reference %#x, %v", step, desc, got, err, want, ok)
			}
		case 6:
			desc = "Reset"
			s.Reset(fuzzLayout)
			ref.reset(fuzzLayout)
		case 7:
			desc = "CloneInto"
			s.CloneInto(spaces[1-which])
			ref.cloneInto(refs[1-which])
		}
		for i := range spaces {
			compareSpace(t, step, fmt.Sprintf("%d after %s on %d", i, desc, which), spaces[i], refs[i], addr)
		}
	}
}

// FuzzSpace differentially checks the address space, node pool on,
// against the interval-slice reference above. The seed corpus replays
// in plain `go test`; `make fuzz` explores further.
func FuzzSpace(f *testing.F) {
	// Two read-write anon maps one page apart, then a third filling the
	// gap, which merges all three into one region; then an unmap that
	// splits it in two, a protect that splits again, a lock of every
	// region, and a map beside a locked region, which does not merge.
	f.Add([]byte{
		1, 0, 1, 1, 3, // MapAligned(BrkStart+256p, 2 pages-100, rw, anon)
		1, 3, 1, 1, 3, // MapAligned(BrkStart+259p, 2 pages-100, rw, anon): one page apart
		1, 2, 0, 0, 3, // MapAligned(BrkStart+2p, 1 page, rw, anon) elsewhere
		1, 2, 1, 0, 3, // MapAligned(BrkStart+258p, 1 page-100): fills the gap, merges both ways
		2, 1, 1, 0, 0, // Unmap(BrkStart+257p, 1 page)
		3, 3, 1, 0, 1, // Protect(BrkStart+259p, 1 page, r)
		4, 0, 0, 0, 0, // LockAll
		1, 5, 1, 0, 3, // MapAligned(BrkStart+261p, 1 page-100, rw, anon): abuts a locked region
	})
	// A zero-length unmap inside a region and one outside every region
	// both fail and change nothing.
	f.Add([]byte{
		1, 0xfc, 0, 3, 3, // MapAligned(BrkStart+252p, 4 pages, rw, anon)
		2, 0xff, 0, 0, 0, // Unmap(BrkStart+255p, 0): inside the region
		2, 0xff, 1, 0, 0, // Unmap(BrkStart+511p, 0): nothing mapped there
	})
	// Top-down placement at mixed alignments (the 16-page and 2 MB ones
	// leave gaps), a heap grown, shrunk and grown back into a merge, and
	// a clone into the second space, which then diverges.
	f.Add([]byte{
		0, 0, 0, 4, 3, // MapAligned(0, 5 pages, rw, anon)
		0, 0, 0, 2, 0x80 | 3, // MapAligned(0, 3 pages, rw, anon, align 16 pages)
		0, 0, 0, 0x42, 0xc0 | 3, // MapAligned(0, 48 pages, rw, anon, align 2 MB)
		0, 0, 1, 6, 3, // MapAligned(0, 7 pages-100, rw, anon)
		5, 40, 0, 3, 0, // SetBrk(BrkStart+40p+192)
		5, 20, 0, 0, 0, // SetBrk(BrkStart+20p)
		5, 60, 0, 0, 0, // SetBrk(BrkStart+60p)
		7, 0, 0, 0, 0, // CloneInto(space 1)
		0x82, 20, 0, 9, 0, // space 1: Unmap(BrkStart+20p, 10 pages)
		0x81, 30, 0, 1, 3<<3 | 3, // space 1: MapAligned(BrkStart+30p, 2 pages, rw, file)
		6, 0, 0, 0, 0, // Reset space 0
		0, 0, 0, 0, 4<<3 | 3, // MapAligned(0, 1 page, rw, hugetlb)
		0, 0, 0, 0, 4<<3 | 3, // MapAligned(0, 1 page, rw, hugetlb): adjacent, never merges
	})
	f.Fuzz(checkSpace)
}

// TestSpaceMatchesReference runs the fuzz check over random operation
// streams, so plain `go test` covers more than the corpus.
func TestSpaceMatchesReference(t *testing.T) {
	r := sim.NewRand(0x5ace)
	data := make([]byte, 5*256)
	for seed := 0; seed < 200; seed++ {
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkSpace(t, data)
	}
}

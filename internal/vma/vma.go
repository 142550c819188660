// Package vma models a process virtual address space as Linux does: a
// sorted set of virtual memory areas (VMAs) with permissions and kinds,
// top-down mmap placement, a brk-managed heap, and a growable stack.
//
// The package also reproduces the layout property the paper criticizes:
// by default the search for unmapped space is 4KB-granular, so VMAs land
// at addresses and with sizes that defeat 2MB mappings (alignment issues
// and permission conflicts). Callers that want large-page-friendly
// placement must ask for it explicitly.
package vma

import (
	"fmt"
	"sort"

	"hpmmap/internal/mem"
	"hpmmap/internal/pgtable"
)

// Kind classifies a VMA.
type Kind int

// VMA kinds.
const (
	KindAnon Kind = iota
	KindHeap
	KindStack
	KindFile
	KindHugeTLB
	KindHPMMAP
)

func (k Kind) String() string {
	switch k {
	case KindAnon:
		return "anon"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	case KindFile:
		return "file"
	case KindHugeTLB:
		return "hugetlb"
	case KindHPMMAP:
		return "hpmmap"
	}
	return "?"
}

// VMA is one contiguous region [Start, End) of the address space.
type VMA struct {
	Start, End pgtable.VirtAddr
	Prot       pgtable.Prot
	Kind       Kind
	// Locked marks an mlocked region.
	Locked bool
}

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va pgtable.VirtAddr) bool { return va >= v.Start && va < v.End }

func (v *VMA) String() string {
	return fmt.Sprintf("%#x-%#x %s %s", uint64(v.Start), uint64(v.End), v.Kind, protString(v.Prot))
}

func protString(p pgtable.Prot) string {
	b := []byte("---")
	if p&pgtable.ProtRead != 0 {
		b[0] = 'r'
	}
	if p&pgtable.ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&pgtable.ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Layout fixes the well-known addresses of a space. The defaults mirror a
// 64-bit Linux process with ASLR disabled (HPC systems commonly disable
// it; determinism also demands it).
type Layout struct {
	BrkStart  pgtable.VirtAddr // bottom of the heap
	MmapTop   pgtable.VirtAddr // mmap region grows down from here
	StackTop  pgtable.VirtAddr // top of the main stack
	StackMax  uint64           // stack size limit (RLIMIT_STACK)
	GuardGap  uint64           // gap kept between mmap area and stack
	AlignMmap uint64           // default placement alignment (4KB on Linux)
}

// DefaultLayout returns the standard layout.
func DefaultLayout() Layout {
	return Layout{
		BrkStart:  0x0000_5555_0000_0000,
		MmapTop:   0x0000_7f00_0000_0000,
		StackTop:  0x0000_7fff_ff00_0000,
		StackMax:  8 << 20,
		GuardGap:  1 << 20,
		AlignMmap: mem.PageSize,
	}
}

// Space is one process address space.
type Space struct {
	layout Layout
	vmas   []*VMA // sorted by Start, non-overlapping

	brk pgtable.VirtAddr // current program break

	// pool recycles VMA nodes dropped by Reset, merges and unmaps. No
	// *VMA escapes this package's callers' hands past the operation that
	// returned it, so a dropped node can be reused immediately.
	pool []*VMA

	// Statistics.
	Maps, Unmaps, Splits, Merges uint64
}

// newVMA pops a recycled node (zeroed) or allocates one.
func (s *Space) newVMA() *VMA {
	k := len(s.pool)
	if k == 0 {
		return new(VMA)
	}
	v := s.pool[k-1]
	s.pool[k-1] = nil
	s.pool = s.pool[:k-1]
	*v = VMA{}
	return v
}

// recycle returns a node dropped from s.vmas to the pool.
func (s *Space) recycle(v *VMA) { s.pool = append(s.pool, v) }

// NewSpace creates an address space with an empty heap and a minimal
// stack VMA.
func NewSpace(layout Layout) *Space {
	s := &Space{layout: layout, brk: layout.BrkStart}
	// Initial 128KB stack.
	stackLow := layout.StackTop - pgtable.VirtAddr(128<<10)
	s.insert(&VMA{Start: stackLow, End: layout.StackTop, Prot: pgtable.ProtRead | pgtable.ProtWrite, Kind: KindStack})
	return s
}

// Reset restores the space to its NewSpace state — empty heap, the
// initial 128KB stack VMA, zeroed statistics — while keeping the vmas
// slice's backing array and recycling one VMA struct, so a pooled
// process lifecycle (kernel.ExitReap) re-attaches without reallocating
// the address-space skeleton.
func (s *Space) Reset(layout Layout) {
	old := s.vmas
	var stack *VMA
	if len(old) > 0 {
		stack = old[0]
		for i := 1; i < len(old); i++ {
			s.recycle(old[i])
			old[i] = nil
		}
	} else {
		stack = new(VMA)
	}
	*stack = VMA{
		Start: layout.StackTop - pgtable.VirtAddr(128<<10),
		End:   layout.StackTop,
		Prot:  pgtable.ProtRead | pgtable.ProtWrite,
		Kind:  KindStack,
	}
	s.vmas = append(old[:0], stack)
	s.layout = layout
	s.brk = layout.BrkStart
	s.Maps, s.Unmaps, s.Splits, s.Merges = 0, 0, 0, 0
}

// Layout returns the fixed layout.
func (s *Space) Layout() Layout { return s.layout }

// Brk returns the current program break.
func (s *Space) Brk() pgtable.VirtAddr { return s.brk }

// VMAs returns the regions in address order. The slice is shared; callers
// must not mutate it.
func (s *Space) VMAs() []*VMA { return s.vmas }

// searchIdx returns the index of the first VMA with End > va.
func (s *Space) searchIdx(va pgtable.VirtAddr) int {
	return sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > va })
}

// Find returns the VMA containing va, or nil.
func (s *Space) Find(va pgtable.VirtAddr) *VMA {
	i := s.searchIdx(va)
	if i < len(s.vmas) && s.vmas[i].Contains(va) {
		return s.vmas[i]
	}
	return nil
}

// overlaps reports whether [start,end) intersects any VMA.
func (s *Space) overlaps(start, end pgtable.VirtAddr) bool {
	i := s.searchIdx(start)
	return i < len(s.vmas) && s.vmas[i].Start < end
}

func (s *Space) insert(v *VMA) {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= v.Start })
	s.vmas = append(s.vmas, nil)
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
}

// FindUnmapped finds space for length bytes with the given alignment,
// searching top-down from below MmapTop, skipping the stack guard area —
// Linux's arch_get_unmapped_area_topdown. Returns an error when the
// address space between heap and mmap ceiling is exhausted.
func (s *Space) FindUnmapped(length, align uint64) (pgtable.VirtAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("vma: zero-length search")
	}
	if align == 0 {
		align = s.layout.AlignMmap
	}
	alignDown := func(a pgtable.VirtAddr) pgtable.VirtAddr {
		return pgtable.VirtAddr(uint64(a) &^ (align - 1))
	}
	// Walk gaps from just below MmapTop downward. VMAs entirely at or
	// above MmapTop (the stack) do not constrain the search.
	high := s.layout.MmapTop
	for i := len(s.vmas) - 1; i >= -1; i-- {
		var low pgtable.VirtAddr
		if i >= 0 {
			v := s.vmas[i]
			if v.Start >= high {
				continue // entirely above the current ceiling
			}
			if v.End > high {
				// Straddles the ceiling: lower it and retry this gap.
				high = v.Start
				continue
			}
			low = v.End
		} else {
			low = s.layout.BrkStart
		}
		if high > low && uint64(high-low) >= length {
			start := alignDown(high - pgtable.VirtAddr(length))
			if start >= low {
				return start, nil
			}
		}
		if i >= 0 && s.vmas[i].Start < high {
			high = s.vmas[i].Start
		}
	}
	return 0, fmt.Errorf("vma: no unmapped gap of %d bytes (align %d)", length, align)
}

// MapAligned is Map with an explicit placement alignment (e.g. 2MB for
// hugetlbfs-backed regions).
func (s *Space) MapAligned(addr pgtable.VirtAddr, length uint64, prot pgtable.Prot, kind Kind, align uint64) (*VMA, error) {
	if length == 0 {
		return nil, fmt.Errorf("vma: zero-length map")
	}
	length = roundUp(length, mem.PageSize)
	if addr == 0 {
		var err error
		addr, err = s.FindUnmapped(length, align)
		if err != nil {
			return nil, err
		}
	} else {
		if uint64(addr)%mem.PageSize != 0 {
			return nil, fmt.Errorf("vma: fixed address %#x unaligned", uint64(addr))
		}
		if s.overlaps(addr, addr+pgtable.VirtAddr(length)) {
			return nil, fmt.Errorf("vma: fixed map [%#x,+%#x) overlaps", uint64(addr), length)
		}
	}
	v := s.newVMA()
	v.Start, v.End, v.Prot, v.Kind = addr, addr+pgtable.VirtAddr(length), prot, kind
	s.insert(v)
	s.Maps++
	s.mergeAround(v)
	return s.Find(addr), nil
}

// mergeAround coalesces v with adjacent VMAs of identical kind, prot and
// lock state, as Linux's vma_merge does.
func (s *Space) mergeAround(v *VMA) {
	i := s.searchIdx(v.Start)
	if i >= len(s.vmas) || s.vmas[i] != v {
		// Position by identity scan (insert may have shifted).
		i = -1
		for j, u := range s.vmas {
			if u == v {
				i = j
				break
			}
		}
		if i < 0 {
			return
		}
	}
	canMerge := func(a, b *VMA) bool {
		return a.End == b.Start && a.Kind == b.Kind && a.Prot == b.Prot && a.Locked == b.Locked &&
			a.Kind != KindStack && a.Kind != KindHugeTLB && a.Kind != KindHPMMAP
	}
	// Merge with next.
	if i+1 < len(s.vmas) && canMerge(v, s.vmas[i+1]) {
		v.End = s.vmas[i+1].End
		s.recycle(s.vmas[i+1])
		s.vmas = append(s.vmas[:i+1], s.vmas[i+2:]...)
		s.Merges++
	}
	// Merge with previous.
	if i > 0 && canMerge(s.vmas[i-1], v) {
		s.vmas[i-1].End = v.End
		s.recycle(v)
		s.vmas = append(s.vmas[:i], s.vmas[i+1:]...)
		s.Merges++
	}
}

func roundUp(v, to uint64) uint64 { return (v + to - 1) / to * to }

// Unmap removes [addr, addr+length), splitting straddling VMAs. Removing
// unmapped space is a no-op, as with munmap; an unaligned address or a
// zero length fails, as munmap's EINVAL.
func (s *Space) Unmap(addr pgtable.VirtAddr, length uint64) error {
	if uint64(addr)%mem.PageSize != 0 {
		return fmt.Errorf("vma: unmap address %#x unaligned", uint64(addr))
	}
	if length == 0 {
		return fmt.Errorf("vma: zero-length unmap at %#x", uint64(addr))
	}
	length = roundUp(length, mem.PageSize)
	end := addr + pgtable.VirtAddr(length)
	var out []*VMA
	for _, v := range s.vmas {
		if v.End <= addr || v.Start >= end {
			out = append(out, v)
			continue
		}
		s.Unmaps++
		left, right := v.Start < addr, v.End > end
		switch {
		case left && right:
			r := s.newVMA()
			*r = *v
			r.Start = end
			v.End = addr
			out = append(out, v, r)
			s.Splits += 2
		case left:
			v.End = addr
			out = append(out, v)
			s.Splits++
		case right:
			v.Start = end
			out = append(out, v)
			s.Splits++
		default:
			s.recycle(v)
		}
	}
	s.vmas = out
	return nil
}

// Protect applies prot to [addr, addr+length), splitting VMAs at the
// boundaries — mprotect. Fails if addr is not page-aligned or any byte
// of the range is unmapped; a zero length changes nothing.
func (s *Space) Protect(addr pgtable.VirtAddr, length uint64, prot pgtable.Prot) error {
	if uint64(addr)%mem.PageSize != 0 {
		return fmt.Errorf("vma: protect address %#x unaligned", uint64(addr))
	}
	if length == 0 {
		return nil
	}
	length = roundUp(length, mem.PageSize)
	end := addr + pgtable.VirtAddr(length)
	// Verify full coverage first.
	cur := addr
	for cur < end {
		v := s.Find(cur)
		if v == nil {
			return fmt.Errorf("vma: protect range [%#x,+%#x) has unmapped hole at %#x", uint64(addr), length, uint64(cur))
		}
		cur = v.End
	}
	var out []*VMA
	for _, v := range s.vmas {
		if v.End <= addr || v.Start >= end {
			out = append(out, v)
			continue
		}
		if v.Start < addr {
			left := *v
			left.End = addr
			out = append(out, &left)
			s.Splits++
		}
		mid := *v
		if mid.Start < addr {
			mid.Start = addr
		}
		if mid.End > end {
			mid.End = end
		}
		mid.Prot = prot
		out = append(out, &mid)
		if v.End > end {
			right := *v
			right.Start = end
			out = append(out, &right)
			s.Splits++
		}
	}
	s.vmas = out
	return nil
}

// SetBrk moves the program break (the brk system call). Growth creates or
// extends the heap VMA; shrinking trims it. Returns the resulting break.
func (s *Space) SetBrk(newBrk pgtable.VirtAddr) (pgtable.VirtAddr, error) {
	if newBrk == 0 {
		return s.brk, nil
	}
	if newBrk < s.layout.BrkStart {
		return s.brk, fmt.Errorf("vma: brk below heap start")
	}
	aligned := pgtable.VirtAddr(roundUp(uint64(newBrk), mem.PageSize))
	old := pgtable.VirtAddr(roundUp(uint64(s.brk), mem.PageSize))
	switch {
	case aligned > old:
		if s.overlaps(old, aligned) {
			return s.brk, fmt.Errorf("vma: brk growth collides with a mapping")
		}
		if _, err := s.MapAligned(old, uint64(aligned-old), pgtable.ProtRead|pgtable.ProtWrite, KindHeap, mem.PageSize); err != nil {
			return s.brk, err
		}
	case aligned < old:
		if err := s.Unmap(aligned, uint64(old-aligned)); err != nil {
			return s.brk, err
		}
	}
	s.brk = newBrk
	return s.brk, nil
}

// Clone returns a deep copy of the address space — fork's view of the
// parent's VMAs.
func (s *Space) Clone() *Space {
	c := &Space{layout: s.layout, brk: s.brk}
	c.vmas = make([]*VMA, len(s.vmas))
	for i, v := range s.vmas {
		cp := *v
		c.vmas[i] = &cp
	}
	return c
}

// CloneInto deep-copies the space into dst — the same state Clone
// produces, but reusing dst's VMA slice and structs so a pooled fork
// (kernel.ExitReap recycling) allocates nothing when capacities suffice.
// dst's statistics are zeroed, matching a freshly Cloned space.
func (s *Space) CloneInto(dst *Space) {
	old := dst.vmas
	vmas := old[:0]
	for i, v := range s.vmas {
		var cp *VMA
		if i < len(old) {
			cp = old[i]
		}
		if cp == nil {
			cp = new(VMA)
		}
		*cp = *v
		vmas = append(vmas, cp)
	}
	for i := len(s.vmas); i < len(old); i++ {
		old[i] = nil
	}
	dst.vmas = vmas
	dst.layout = s.layout
	dst.brk = s.brk
	dst.Maps, dst.Unmaps, dst.Splits, dst.Merges = 0, 0, 0, 0
}

// CheckInvariants verifies ordering and non-overlap; used in tests.
func (s *Space) CheckInvariants() error {
	for i, v := range s.vmas {
		if v.Start >= v.End {
			return fmt.Errorf("vma %d empty or inverted: %s", i, v)
		}
		if uint64(v.Start)%mem.PageSize != 0 || uint64(v.End)%mem.PageSize != 0 {
			return fmt.Errorf("vma %d unaligned: %s", i, v)
		}
		if i > 0 && s.vmas[i-1].End > v.Start {
			return fmt.Errorf("vmas %d/%d overlap: %s / %s", i-1, i, s.vmas[i-1], v)
		}
	}
	return nil
}

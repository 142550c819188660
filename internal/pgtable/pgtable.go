// Package pgtable implements x86-64 4-level page tables (PML4 → PDPT → PD
// → PT) as explicit radix-tree data structures. Mappings can be installed
// at 4KB (PT), 2MB (PD) and 1GB (PDPT) granularity, walked, protected,
// split and torn down, with table-page accounting — everything both the
// Linux-model fault handlers and HPMMAP's lightweight paging scheme need.
package pgtable

import (
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/mem"
	"hpmmap/internal/metrics"
)

// VirtAddr is a canonical 48-bit virtual address.
type VirtAddr uint64

// Prot is a permission bit set.
type Prot uint8

// Permission bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// PageSize selects a mapping granularity.
type PageSize int

// Mapping granularities.
const (
	Page4K PageSize = iota
	Page2M
	Page1G
)

// Bytes returns the byte size of the page.
func (ps PageSize) Bytes() uint64 {
	switch ps {
	case Page4K:
		return mem.PageSize
	case Page2M:
		return mem.LargePageSize
	case Page1G:
		return mem.HugePageSize
	}
	// Programmer error: invalid PageSize constant from the caller.
	panic(fmt.Sprintf("pgtable: Bytes() with invalid PageSize %d (valid: Page4K, Page2M, Page1G)", ps))
}

func (ps PageSize) String() string {
	switch ps {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return "?"
}

// Levels of the radix tree, numbered from the root: 0=PML4, 1=PDPT, 2=PD,
// 3=PT. A 1GB mapping terminates at level 1, 2MB at level 2, 4KB at 3.
const (
	levelPML4 = 0
	levelPDPT = 1
	levelPD   = 2
	levelPT   = 3
	numLevels = 4
)

// shiftFor returns the address shift of the given level's index field.
func shiftFor(level int) uint { return uint(39 - 9*level) }

func indexAt(va VirtAddr, level int) int {
	return int((uint64(va) >> shiftFor(level)) & 0x1ff)
}

// levelFor returns the tree level at which a page of the given size maps.
func levelFor(ps PageSize) int {
	switch ps {
	case Page4K:
		return levelPT
	case Page2M:
		return levelPD
	case Page1G:
		return levelPDPT
	}
	// Programmer error: the caller passed a PageSize value that is not
	// one of the three declared constants.
	panic(fmt.Sprintf("pgtable: level lookup with invalid PageSize %d (valid: Page4K, Page2M, Page1G)", ps))
}

// entry is one slot of a table node, a 64-bit word laid out as an x86-64
// page-table entry is: bit 0 is present, bit 1 is leaf (a terminal
// mapping, possibly large, rather than a child table), bits 8–15 hold
// the Prot, and bits 16–63 hold the frame of a leaf or the arena index
// of a child table. The zero entry is an empty slot.
type entry uint64

const (
	entryPresent entry = 1 << 0
	entryLeaf    entry = 1 << 1
	protShift          = 8
	frameShift         = 16
	protMask     entry = 0xff << protShift
)

// maxFrame is one past the highest frame a leaf can map: 2^40 4KB
// frames, x86-64's 52-bit physical address limit. Map refuses a mapping
// whose last frame reaches it.
const maxFrame mem.PFN = 1 << 40

func leafEntry(pfn mem.PFN, prot Prot) entry {
	return entry(pfn)<<frameShift | entry(prot)<<protShift | entryLeaf | entryPresent
}

func tableEntry(child uint32) entry { return entry(child)<<frameShift | entryPresent }

func (e entry) present() bool { return e&entryPresent != 0 }
func (e entry) leaf() bool    { return e&entryLeaf != 0 }
func (e entry) pfn() mem.PFN  { return mem.PFN(e >> frameShift) }
func (e entry) prot() Prot    { return Prot(e >> protShift) }
func (e entry) child() uint32 { return uint32(e >> frameShift) }

// node is one 4KB table page: 512 entries and nothing else, so the
// collector never scans it and no slot write needs a barrier.
type node [512]entry

// Table is one process address space's page-table tree.
type Table struct {
	// nodes is the arena of table pages, the root at index 0; a table
	// entry names its child by index. live[i] counts the present
	// entries of nodes[i], kept beside the nodes so a node stays
	// exactly one page.
	nodes []*node
	live  []int32
	// spare is 1 + the arena index of the top of a stack of the nodes
	// this table pruned, 0 when it is empty, and each spare's slot 0
	// holds the next one the same way; Map and Split2M pop from it
	// before allocating. A pruned node has no present slot, and every
	// slot stops being present only by being zeroed, so a spare is
	// all-zero apart from its link.
	spare uint32

	// Accounting, visible to cost models and tests.
	Mapped4K    uint64
	Mapped2M    uint64
	Mapped1G    uint64
	TablePages  uint64 // number of table nodes, including the root
	MapOps      uint64
	UnmapOps    uint64
	SplitOps    uint64
	WalkedSlots uint64 // total slots touched by Walk (hardware walk cost proxy)

	// Shared push handles installed by Instrument; nil (no-op) by
	// default, so uninstrumented walks pay only the nil checks.
	walks     *metrics.Counter
	walkDepth *metrics.Histogram
}

// New returns an empty address space. The root node is materialized on
// first Map: aggregate-fidelity runs create page tables for every
// process and fork without ever mapping a page, and eager roots were
// 70% of all simulator allocation (DESIGN.md §10). TablePages still
// counts the root from birth so accounting is unchanged.
func New() *Table {
	return &Table{TablePages: 1}
}

// Reset returns the table to its New() state so the struct can be
// recycled across process lifecycles (kernel.ExitReap). The arena and
// the spare stack are dropped for the collector rather than scrubbed:
// roots are lazy, so a reset table is indistinguishable from a fresh
// one — the next Map materializes a clean root. Instrument handles are
// cleared too; owners re-instrument on reuse exactly as they do on
// creation.
func (t *Table) Reset() {
	*t = Table{TablePages: 1}
}

// rootNode returns the root's arena index, materializing it on first
// use.
func (t *Table) rootNode() uint32 {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, new(node))
		t.live = append(t.live, 0)
	}
	return 0
}

// newNode returns the arena index of an empty table node, reusing a
// pruned one when the spare stack has any.
func (t *Table) newNode() uint32 {
	if s := t.spare; s != 0 {
		n := t.nodes[s-1]
		t.spare = uint32(n[0])
		n[0] = 0
		return s - 1
	}
	t.nodes = append(t.nodes, new(node))
	t.live = append(t.live, 0)
	return uint32(len(t.nodes) - 1)
}

// freeNode pushes a node just pruned from the tree onto the spare stack.
func (t *Table) freeNode(i uint32) {
	t.nodes[i][0] = entry(t.spare)
	t.spare = i + 1
}

// MappedBytes returns the total bytes currently mapped.
func (t *Table) MappedBytes() uint64 {
	return t.Mapped4K*mem.PageSize + t.Mapped2M*mem.LargePageSize + t.Mapped1G*mem.HugePageSize
}

func checkAligned(va VirtAddr, ps PageSize) error {
	if uint64(va)&(ps.Bytes()-1) != 0 {
		return fmt.Errorf("pgtable: address %#x not aligned to %s", uint64(va), ps)
	}
	return nil
}

// Map installs a leaf mapping of the given size at va. It fails if any
// part of the range is already mapped (at any granularity) — callers
// unmap first, as the kernel does — or if the mapping's last frame is
// at or above 2^40, which no entry can hold.
func (t *Table) Map(va VirtAddr, pfn mem.PFN, ps PageSize, prot Prot) error {
	if err := checkAligned(va, ps); err != nil {
		return err
	}
	if pfn > maxFrame-mem.PFN(ps.Bytes()/mem.PageSize) {
		return fmt.Errorf("pgtable: %s mapping of frame %d at %#x reaches past frame 2^40", ps, pfn, uint64(va))
	}
	target := levelFor(ps)
	ni, level := t.descend(va, target)
	if level != target {
		return fmt.Errorf("pgtable: %#x already covered by a %s mapping", uint64(va), leafSize(level))
	}
	e := &t.nodes[ni][indexAt(va, target)]
	if e.present() {
		if e.leaf() {
			return fmt.Errorf("pgtable: %#x already mapped", uint64(va))
		}
		return fmt.Errorf("pgtable: %#x has smaller mappings below; unmap before mapping %s", uint64(va), ps)
	}
	*e = leafEntry(pfn, prot)
	t.live[ni]++
	t.MapOps++
	switch ps {
	case Page4K:
		t.Mapped4K++
	case Page2M:
		t.Mapped2M++
	case Page1G:
		t.Mapped1G++
	}
	return nil
}

// MapRun4K maps the n consecutive 4KB pages from va to the consecutive
// frames from pfn, leaving the tree and counters exactly as n ascending
// Map(va+i·4KB, pfn+i, Page4K, prot) calls would: it skips each page Map
// refuses (every page of a misaligned va, a page whose frame is at or
// above 2^40, a page whose PTE is present, a page under a 2MB or 1GB
// leaf) and creates the same tables in the same order. It descends once
// per PT instead of once per page, and allocates nothing but the tables
// it creates.
//
//detsim:hotpath
func (t *Table) MapRun4K(va VirtAddr, n uint64, pfn mem.PFN, prot Prot) {
	if uint64(va)&(mem.PageSize-1) != 0 || pfn >= maxFrame {
		return
	}
	if n > uint64(maxFrame-pfn) {
		n = uint64(maxFrame - pfn) // the pages past the limit come last
	}
	for n > 0 {
		idx := indexAt(va, levelPT)
		k := uint64(512 - idx)
		if k > n {
			k = n
		}
		if pt, level := t.descend(va, levelPT); level == levelPT {
			slots := t.nodes[pt][idx : idx+int(k)]
			first := leafEntry(pfn, prot)
			var mapped int32
			for i, e := range slots {
				if e.present() {
					continue
				}
				slots[i] = first + entry(i)<<frameShift
				mapped++
			}
			t.live[pt] += mapped
			t.MapOps += uint64(mapped)
			t.Mapped4K += uint64(mapped)
		}
		va += VirtAddr(k * mem.PageSize)
		pfn += mem.PFN(k)
		n -= k
	}
}

// descend returns the arena index of the table at level target that
// covers va, creating the missing tables above it, and target; or, when
// a large leaf covers va, the level of that leaf. A leaf's ancestors
// all exist, so that return has created nothing.
//
//detsim:hotpath
func (t *Table) descend(va VirtAddr, target int) (uint32, int) {
	ni := t.rootNode()
	for level := 0; level < target; level++ {
		e := &t.nodes[ni][indexAt(va, level)]
		if !e.present() {
			c := t.newNode()
			*e = tableEntry(c)
			t.live[ni]++
			t.TablePages++
			ni = c
			continue
		}
		if e.leaf() {
			return 0, level
		}
		ni = e.child()
	}
	return ni, target
}

func leafSize(level int) PageSize {
	switch level {
	case levelPDPT:
		return Page1G
	case levelPD:
		return Page2M
	default:
		return Page4K
	}
}

// Mapping describes the result of a successful walk.
type Mapping struct {
	PFN    mem.PFN
	Size   PageSize
	Prot   Prot
	Levels int // table levels traversed (hardware walk depth)
}

// Instrument installs shared push handles incremented by Walk: a walk
// counter and a walk-depth histogram (levels traversed per walk, the
// hardware walk-cost signal behind the paper's TLB argument). Handles
// may be nil (the no-op default) and are typically shared by every
// table on a node so per-process walks aggregate under one metric.
func (t *Table) Instrument(walks *metrics.Counter, depth *metrics.Histogram) {
	t.walks = walks
	t.walkDepth = depth
}

// Walk resolves va. The boolean reports whether a mapping is present.
// Walk also accumulates the WalkedSlots counter used as a page-walk cost
// proxy by the TLB-miss model, and feeds the handles installed by
// Instrument.
func (t *Table) Walk(va VirtAddr) (Mapping, bool) {
	m, ok := t.walk(va)
	t.walks.Inc()
	t.walkDepth.Observe(uint64(m.Levels))
	return m, ok
}

func (t *Table) walk(va VirtAddr) (Mapping, bool) {
	if len(t.nodes) == 0 {
		// Same observable result as an empty root: one slot probed, miss
		// at the top level.
		t.WalkedSlots++
		return Mapping{Levels: 1}, false
	}
	n := t.nodes[0]
	for level := 0; level < numLevels; level++ {
		t.WalkedSlots++
		e := n[indexAt(va, level)]
		if !e.present() {
			return Mapping{Levels: level + 1}, false
		}
		if e.leaf() {
			return Mapping{PFN: e.pfn(), Size: leafSize(level), Prot: e.prot(), Levels: level + 1}, true
		}
		n = t.nodes[e.child()]
	}
	// Simulated-state violation: a bottom-level entry was present but not
	// a leaf — the radix tree grew a level that cannot exist on x86-64.
	invariant.Failf("walk_off_tree", "pgtable",
		"walk(%#x) descended past the PT level without hitting a leaf", uint64(va))
	return Mapping{}, false // unreachable
}

// Unmap removes the leaf mapping of the given size at va and returns its
// frame. It fails if the range is mapped at a different granularity.
func (t *Table) Unmap(va VirtAddr, ps PageSize) (mem.PFN, error) {
	if err := checkAligned(va, ps); err != nil {
		return 0, err
	}
	target := levelFor(ps)
	if len(t.nodes) == 0 {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	var path [numLevels]uint32
	ni := uint32(0)
	for level := 0; level < target; level++ {
		path[level] = ni
		e := t.nodes[ni][indexAt(va, level)]
		if !e.present() || e.leaf() {
			return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
		}
		ni = e.child()
	}
	e := &t.nodes[ni][indexAt(va, target)]
	if !e.present() || !e.leaf() {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	pfn := e.pfn()
	*e = 0
	t.live[ni]--
	t.UnmapOps++
	switch ps {
	case Page4K:
		t.Mapped4K--
	case Page2M:
		t.Mapped2M--
	case Page1G:
		t.Mapped1G--
	}
	// Prune empty tables bottom-up.
	for level := target - 1; level >= 0; level-- {
		parent := path[level]
		e := &t.nodes[parent][indexAt(va, level)]
		if t.live[e.child()] > 0 {
			break
		}
		t.freeNode(e.child())
		*e = 0
		t.live[parent]--
		t.TablePages--
	}
	return pfn, nil
}

// Protect updates the permissions of the leaf covering va. Reports the
// mapping's size so callers can iterate ranges.
func (t *Table) Protect(va VirtAddr, prot Prot) (PageSize, error) {
	if len(t.nodes) == 0 {
		return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
	}
	n := t.nodes[0]
	for level := 0; level < numLevels; level++ {
		e := &n[indexAt(va, level)]
		if !e.present() {
			return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
		}
		if e.leaf() {
			*e = *e&^protMask | entry(prot)<<protShift
			return leafSize(level), nil
		}
		n = t.nodes[e.child()]
	}
	// Simulated-state violation: same impossible shape as walk_off_tree,
	// reached through the protection-change path.
	invariant.Failf("protect_off_tree", "pgtable",
		"Protect(%#x) descended past the PT level without hitting a leaf", uint64(va))
	return 0, nil // unreachable
}

// Split2M replaces the 2MB leaf at va with a PT of 512 4KB leaves covering
// the same frames with the same protections — the operation THP performs
// when a large page must be pinned or partially unmapped. The new PT page
// is accounted.
func (t *Table) Split2M(va VirtAddr) error {
	if err := checkAligned(va, Page2M); err != nil {
		return err
	}
	if len(t.nodes) == 0 {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	n := t.nodes[0]
	for level := 0; level < levelPD; level++ {
		e := n[indexAt(va, level)]
		if !e.present() || e.leaf() {
			return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
		}
		n = t.nodes[e.child()]
	}
	e := &n[indexAt(va, levelPD)]
	if !e.present() || !e.leaf() {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	pt := t.newNode()
	first, slots := leafEntry(e.pfn(), e.prot()), t.nodes[pt]
	for i := range slots {
		slots[i] = first + entry(i)<<frameShift
	}
	t.live[pt] = 512
	*e = tableEntry(pt)
	t.TablePages++
	t.SplitOps++
	t.Mapped2M--
	t.Mapped4K += 512
	return nil
}

// Range calls fn for every leaf mapping with start address and mapping,
// in ascending address order. Returning false stops the iteration.
func (t *Table) Range(fn func(va VirtAddr, m Mapping) bool) {
	var walk func(n *node, level int, prefix uint64) bool
	walk = func(n *node, level int, prefix uint64) bool {
		for i, e := range n {
			if !e.present() {
				continue
			}
			va := prefix | uint64(i)<<shiftFor(level)
			if e.leaf() {
				if !fn(VirtAddr(va), Mapping{PFN: e.pfn(), Size: leafSize(level), Prot: e.prot(), Levels: level + 1}) {
					return false
				}
				continue
			}
			if !walk(t.nodes[e.child()], level+1, va) {
				return false
			}
		}
		return true
	}
	if len(t.nodes) == 0 {
		return
	}
	walk(t.nodes[0], 0, 0)
}

// UnmapRange removes every leaf mapping that starts inside
// [start, start+length), in ascending address order, and prunes every
// table it empties, leaving the tree and counters exactly as calling
// Unmap on each of those leaves would. Mappings straddling the range
// boundary are not supported (callers align ranges to mapping
// boundaries, as the VMA layer guarantees): a large leaf that starts
// before start stays mapped.
//
//detsim:hotpath
func (t *Table) UnmapRange(start VirtAddr, length uint64) {
	first, end := uint64(start), uint64(start)+length
	if len(t.nodes) == 0 || end <= first { // empty, or wraps past 2^64
		return
	}
	t.unmapRange(0, levelPML4, 0, first, end-1)
}

// unmapRange is UnmapRange's pass over node ni, the table at level whose
// first slot maps base. It visits only the slots from the one holding
// first to the one holding last, clears each leaf that starts in
// [first, last], and, on the way back up, prunes each child table it
// emptied onto the spare stack. Past the 48-bit space the root indexes,
// a first leaves lo above 511 and a last leaves hi at 511. A PT, whose
// slots can only be 4KB leaves, takes a loop of its own that keeps its
// counts in locals: process exit at micro fidelity runs it once per
// mapped 4KB page.
//
//detsim:hotpath
func (t *Table) unmapRange(ni uint32, level int, base, first, last uint64) {
	n := t.nodes[ni]
	shift := shiftFor(level)
	lo, hi := 0, 511
	if first > base {
		lo = int((first - base) >> shift)
	}
	if last < base+(512<<shift)-1 {
		hi = int((last - base) >> shift)
	}
	if level == levelPT {
		slots := n[lo : hi+1]
		var cleared int32
		for i, e := range slots {
			if !e.present() {
				continue
			}
			va := base + uint64(lo+i)<<shift
			if !e.leaf() {
				// Simulated-state violation: a table below the PT, a
				// shape Map never builds.
				invariant.Failf("unmap_lost_mapping", "pgtable",
					"UnmapRange over [%#x, %#x]: level-%d slot at %#x (leaf %v) cannot exist on x86-64",
					first, last, level, va, false)
			}
			if va >= first { // a misaligned first keeps the page it starts in
				slots[i] = 0
				cleared++
			}
		}
		t.live[ni] -= cleared
		t.UnmapOps += uint64(cleared)
		t.Mapped4K -= uint64(cleared)
		return
	}
	for i := lo; i <= hi; i++ {
		e := &n[i]
		if !e.present() {
			continue
		}
		va := base + uint64(i)<<shift
		leaf := e.leaf()
		if leaf && level == levelPML4 {
			// Simulated-state violation: a leaf in the PML4, a shape Map
			// never builds.
			invariant.Failf("unmap_lost_mapping", "pgtable",
				"UnmapRange over [%#x, %#x]: level-%d slot at %#x (leaf %v) cannot exist on x86-64",
				first, last, level, va, leaf)
		}
		if !leaf {
			c := e.child()
			t.unmapRange(c, level+1, va, first, last)
			if t.live[c] == 0 {
				t.freeNode(c)
				*e = 0
				t.live[ni]--
				t.TablePages--
			}
			continue
		}
		if va < first {
			continue // a large leaf that starts before the range
		}
		if level == levelPD {
			t.Mapped2M--
		} else {
			t.Mapped1G--
		}
		*e = 0
		t.live[ni]--
		t.UnmapOps++
	}
}

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
	// ProtLocked marks the mapping as pinned in RAM (mlock).
	ProtLocked
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

// entry is one slot of a table node. The word-sized fields come first so
// the three byte-sized ones share one padded word: 24 bytes, not 32.
type entry struct {
	pfn     mem.PFN
	child   *node
	prot    Prot
	present bool
	leaf    bool // terminal mapping (possibly large) rather than a child table
}

// node is one 4KB table page holding 512 entries.
type node struct {
	slots [512]entry
	live  int // number of present entries
}

// Table is one process address space's page-table tree.
type Table struct {
	root *node
	// spare is a stack of the nodes this table pruned, linked through
	// slot 0's child pointer; Map and Split2M pop from it before
	// allocating. A pruned node has no present slot, and every slot
	// stops being present only by being overwritten with entry{}, so a
	// spare is all-zero apart from its link.
	spare *node

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
// first Map: a node is 512 entries (~12KB), and aggregate-fidelity runs
// create page tables for every process and fork without ever mapping a
// page — eager roots were 70% of all simulator allocation (ISSUE 6).
// TablePages still counts the root from birth so accounting is unchanged.
func New() *Table {
	return &Table{TablePages: 1}
}

// Reset returns the table to its New() state so the struct can be
// recycled across process lifecycles (kernel.ExitReap). The node tree
// and the spare stack are dropped for the collector rather than
// scrubbed: roots are lazy, so a reset table is indistinguishable from a
// fresh one — the next Map materializes a clean root. Instrument handles
// are cleared too; owners re-instrument on reuse exactly as they do on
// creation.
func (t *Table) Reset() {
	*t = Table{TablePages: 1}
}

// rootNode returns the root, materializing it on first use.
func (t *Table) rootNode() *node {
	if t.root == nil {
		t.root = &node{}
	}
	return t.root
}

// newNode returns an empty table node, reusing a pruned one when the
// spare stack has any.
func (t *Table) newNode() *node {
	n := t.spare
	if n == nil {
		return &node{}
	}
	t.spare = n.slots[0].child
	n.slots[0].child = nil
	return n
}

// freeNode pushes a node just pruned from the tree onto the spare stack.
func (t *Table) freeNode(n *node) {
	n.slots[0].child = t.spare
	t.spare = n
}

// MappedBytes returns the total bytes currently mapped.
func (t *Table) MappedBytes() uint64 {
	return t.Mapped4K*mem.PageSize + t.Mapped2M*mem.LargePageSize + t.Mapped1G*mem.HugePageSize
}

// MappedPages returns the number of leaf mappings of the given size.
func (t *Table) MappedPages(ps PageSize) uint64 {
	switch ps {
	case Page4K:
		return t.Mapped4K
	case Page2M:
		return t.Mapped2M
	default:
		return t.Mapped1G
	}
}

func checkAligned(va VirtAddr, ps PageSize) error {
	if uint64(va)&(ps.Bytes()-1) != 0 {
		return fmt.Errorf("pgtable: address %#x not aligned to %s", uint64(va), ps)
	}
	return nil
}

// Map installs a leaf mapping of the given size at va. It fails if any
// part of the range is already mapped (at any granularity) — callers
// unmap first, as the kernel does.
func (t *Table) Map(va VirtAddr, pfn mem.PFN, ps PageSize, prot Prot) error {
	if err := checkAligned(va, ps); err != nil {
		return err
	}
	target := levelFor(ps)
	n, level := t.descend(va, target)
	if n == nil {
		return fmt.Errorf("pgtable: %#x already covered by a %s mapping", uint64(va), leafSize(level))
	}
	e := &n.slots[indexAt(va, target)]
	if e.present {
		if e.leaf {
			return fmt.Errorf("pgtable: %#x already mapped", uint64(va))
		}
		return fmt.Errorf("pgtable: %#x has smaller mappings below; unmap before mapping %s", uint64(va), ps)
	}
	e.present = true
	e.leaf = true
	e.pfn = pfn
	e.prot = prot
	n.live++
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
// refuses (every page of a misaligned va, a page whose PTE is present,
// a page under a 2MB or 1GB leaf) and creates the same tables in the
// same order. It descends once per PT instead of once per page, and
// allocates nothing but the tables it creates.
//
//detsim:hotpath
func (t *Table) MapRun4K(va VirtAddr, n uint64, pfn mem.PFN, prot Prot) {
	if uint64(va)&(mem.PageSize-1) != 0 {
		return
	}
	for n > 0 {
		idx := indexAt(va, levelPT)
		k := uint64(512 - idx)
		if k > n {
			k = n
		}
		if pt, _ := t.descend(va, levelPT); pt != nil {
			var mapped uint64
			for i := uint64(0); i < k; i++ {
				e := &pt.slots[idx+int(i)]
				if e.present {
					continue
				}
				// As in Map, a slot that is not present is all-zero, so
				// the child pointer needs no write (nor its barrier).
				e.pfn, e.prot, e.present, e.leaf = pfn+mem.PFN(i), prot, true, true
				mapped++
			}
			pt.live += int(mapped)
			t.MapOps += mapped
			t.Mapped4K += mapped
		}
		va += VirtAddr(k * mem.PageSize)
		pfn += mem.PFN(k)
		n -= k
	}
}

// descend returns the table at level target that covers va, creating
// the missing tables above it, or nil and the level of the large leaf
// covering va. A leaf's ancestors all exist, so a nil return has
// created nothing.
//
//detsim:hotpath
func (t *Table) descend(va VirtAddr, target int) (*node, int) {
	n := t.rootNode()
	for level := 0; level < target; level++ {
		e := &n.slots[indexAt(va, level)]
		if !e.present {
			e.present = true
			e.child = t.newNode()
			n.live++
			t.TablePages++
		} else if e.leaf {
			return nil, level
		}
		n = e.child
	}
	return n, target
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

// Observe registers the table's accounting with the metrics registry as
// pull-mode gauges read at snapshot time: table pages and 4KB/large
// leaf counts. Registering several tables is additive. No-op on a nil
// registry.
func (t *Table) Observe(reg *metrics.Registry) {
	reg.GaugeFunc(metrics.PgtableTablePages, func() float64 { return float64(t.TablePages) })
	reg.GaugeFunc(metrics.PgtableMappedSmallPages, func() float64 { return float64(t.Mapped4K) })
	reg.GaugeFunc(metrics.PgtableMappedLargePages, func() float64 { return float64(t.Mapped2M + t.Mapped1G) })
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
	if t.root == nil {
		// Same observable result as an empty root: one slot probed, miss
		// at the top level.
		t.WalkedSlots++
		return Mapping{Levels: 1}, false
	}
	n := t.root
	for level := 0; level < numLevels; level++ {
		t.WalkedSlots++
		e := &n.slots[indexAt(va, level)]
		if !e.present {
			return Mapping{Levels: level + 1}, false
		}
		if e.leaf {
			return Mapping{PFN: e.pfn, Size: leafSize(level), Prot: e.prot, Levels: level + 1}, true
		}
		n = e.child
	}
	// Simulated-state violation: a bottom-level entry was present but not
	// a leaf — the radix tree grew a level that cannot exist on x86-64.
	invariant.Failf("walk_off_tree", "pgtable",
		"walk(%#x) descended past the PT level without hitting a leaf", uint64(va))
	return Mapping{}, false // unreachable
}

// Translate returns the physical frame backing va along with the byte
// offset's frame, for convenience in data-path models.
func (t *Table) Translate(va VirtAddr) (mem.PFN, bool) {
	m, ok := t.Walk(va)
	if !ok {
		return 0, false
	}
	base := uint64(va) &^ (m.Size.Bytes() - 1)
	off := uint64(va) - base
	return m.PFN + mem.PFN(off/mem.PageSize), true
}

// Unmap removes the leaf mapping of the given size at va and returns its
// frame. It fails if the range is mapped at a different granularity.
func (t *Table) Unmap(va VirtAddr, ps PageSize) (mem.PFN, error) {
	if err := checkAligned(va, ps); err != nil {
		return 0, err
	}
	target := levelFor(ps)
	if t.root == nil {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	path := make([]*node, 0, numLevels)
	n := t.root
	for level := 0; level < target; level++ {
		path = append(path, n)
		e := &n.slots[indexAt(va, level)]
		if !e.present || e.leaf {
			return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
		}
		n = e.child
	}
	e := &n.slots[indexAt(va, target)]
	if !e.present || !e.leaf {
		return 0, fmt.Errorf("pgtable: %#x not mapped as %s", uint64(va), ps)
	}
	pfn := e.pfn
	*e = entry{}
	n.live--
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
		e := &parent.slots[indexAt(va, level)]
		if e.child.live > 0 {
			break
		}
		t.freeNode(e.child)
		*e = entry{}
		parent.live--
		t.TablePages--
	}
	return pfn, nil
}

// Protect updates the permissions of the leaf covering va. Reports the
// mapping's size so callers can iterate ranges.
func (t *Table) Protect(va VirtAddr, prot Prot) (PageSize, error) {
	if t.root == nil {
		return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
	}
	n := t.root
	for level := 0; level < numLevels; level++ {
		e := &n.slots[indexAt(va, level)]
		if !e.present {
			return 0, fmt.Errorf("pgtable: %#x not mapped", uint64(va))
		}
		if e.leaf {
			e.prot = prot
			return leafSize(level), nil
		}
		n = e.child
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
	if t.root == nil {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	n := t.root
	for level := 0; level < levelPD; level++ {
		e := &n.slots[indexAt(va, level)]
		if !e.present || e.leaf {
			return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
		}
		n = e.child
	}
	e := &n.slots[indexAt(va, levelPD)]
	if !e.present || !e.leaf {
		return fmt.Errorf("pgtable: %#x not mapped as 2MB", uint64(va))
	}
	pt := t.newNode()
	for i := 0; i < 512; i++ {
		pt.slots[i] = entry{present: true, leaf: true, pfn: e.pfn + mem.PFN(i), prot: e.prot}
	}
	pt.live = 512
	e.leaf = false
	e.pfn = 0
	e.child = pt
	e.prot = 0
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
		for i := 0; i < 512; i++ {
			e := &n.slots[i]
			if !e.present {
				continue
			}
			va := prefix | uint64(i)<<shiftFor(level)
			if e.leaf {
				if !fn(VirtAddr(va), Mapping{PFN: e.pfn, Size: leafSize(level), Prot: e.prot, Levels: level + 1}) {
					return false
				}
				continue
			}
			if !walk(e.child, level+1, va) {
				return false
			}
		}
		return true
	}
	if t.root == nil {
		return
	}
	walk(t.root, 0, 0)
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
	if t.root == nil || end <= first { // empty, or wraps past 2^64
		return
	}
	t.unmapRange(t.root, levelPML4, 0, first, end-1)
}

// unmapRange is UnmapRange's pass over n, the table at level whose first
// slot maps base. It visits only the slots from the one holding first to
// the one holding last, clears each leaf that starts in [first, last],
// and, on the way back up, prunes each child table it emptied onto the
// spare stack. Past the 48-bit space the root indexes, a first leaves lo
// above 511 and a last leaves hi at 511.
//
//detsim:hotpath
func (t *Table) unmapRange(n *node, level int, base, first, last uint64) {
	shift := shiftFor(level)
	lo, hi := 0, 511
	if first > base {
		lo = int((first - base) >> shift)
	}
	if last < base+(512<<shift)-1 {
		hi = int((last - base) >> shift)
	}
	for i := lo; i <= hi; i++ {
		e := &n.slots[i]
		if !e.present {
			continue
		}
		va := base + uint64(i)<<shift
		if e.leaf && level == levelPML4 || !e.leaf && level == levelPT {
			// Simulated-state violation: a shape Map never builds, a leaf
			// in the PML4 or a table below the PT.
			invariant.Failf("unmap_lost_mapping", "pgtable",
				"UnmapRange over [%#x, %#x]: level-%d slot at %#x (leaf %v) cannot exist on x86-64",
				first, last, level, va, e.leaf)
		}
		if !e.leaf {
			t.unmapRange(e.child, level+1, va, first, last)
			if e.child.live == 0 {
				t.freeNode(e.child)
				*e = entry{}
				n.live--
				t.TablePages--
			}
			continue
		}
		if va < first {
			continue // a large leaf that starts before the range
		}
		switch level {
		case levelPT:
			t.Mapped4K--
		case levelPD:
			t.Mapped2M--
		default:
			t.Mapped1G--
		}
		*e = entry{}
		n.live--
		t.UnmapOps++
	}
}

// Package thp implements the khugepaged background daemon of Transparent
// Huge Pages: a kernel thread that periodically allocates a 2MB page and
// merges 512 resident small pages of some THP-eligible process region
// into it. While a merge runs it holds the target process's mm lock, so
// page faults arriving in the window stall for the remainder of the merge
// — the paper's "Merge" fault rows (Figure 2) and the blue dots of
// Figure 4. Merges are driven by OS heuristics with no knowledge of
// application phase, and are unsynchronized across ranks: exactly the OS
// noise source the paper identifies.
package thp

import (
	"hpmmap/internal/kernel"
	"hpmmap/internal/metrics"
	"hpmmap/internal/sim"
)

// Merger is the memory-manager side of khugepaged: it knows which
// processes have mergeable small-mapped chunks and how to convert them.
// internal/linuxmm implements it.
type Merger interface {
	// NextMergeCandidate returns a process with at least one THP-eligible
	// chunk currently mapped small, or nil. Successive calls rotate
	// through candidates (khugepaged's round-robin scan).
	NextMergeCandidate() *kernel.Process
	// PerformMerge converts one 2MB chunk of p from small to large
	// mappings, reporting success.
	PerformMerge(p *kernel.Process) bool
}

// Daemon is the khugepaged simulation.
type Daemon struct {
	node   *kernel.Node
	merger Merger
	rand   *sim.Rand
	tracer *metrics.ChromeTracer // nil unless Observe attached one

	// Statistics.
	Scans, Merges, FailedMerges uint64
}

// Start launches khugepaged with the node's configured scan period.
func Start(node *kernel.Node, merger Merger) *Daemon {
	d := &Daemon{node: node, merger: merger, rand: node.Rand().Split()}
	period := sim.Cycles(node.Config().KhugepagedScanPeriod)
	// Jitter the first scan so multiple nodes' daemons do not align; it
	// starts the periodic scans.
	eng := node.Engine()
	eng.Schedule(d.rand.Jitter(period, 0.5)+1, func() {
		d.scan()
		eng.NewTicker(d.rand.Jitter(period, 0.25)+1, d.scan)
	})
	return d
}

// scan performs one khugepaged pass: pick a candidate, lock its mm for
// the merge duration, then apply the conversion.
func (d *Daemon) scan() {
	d.Scans++
	p := d.merger.NextMergeCandidate()
	if p == nil || p.Exited {
		return
	}
	load := d.node.LoadFor(p)
	dur := d.node.Costs().MergeDuration(d.rand, load)
	now := d.node.Now()
	p.MMLockedUntil = now + dur
	// Deposit the stall: the process's next fault activity inside the
	// window pays for it. (If the process never faults again, nothing is
	// charged — merges only hurt active processes.)
	p.PendingMergeCosts = append(p.PendingMergeCosts, dur)
	d.node.Engine().Schedule(dur, func() {
		if p.Exited {
			return
		}
		if d.merger.PerformMerge(p) {
			d.Merges++
			d.tracer.Complete(0, "khugepaged", "merge", uint64(now), uint64(dur))
		} else {
			d.FailedMerges++
			d.tracer.Complete(0, "khugepaged", "merge_failed", uint64(now), uint64(dur))
		}
	})
}

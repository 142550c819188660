package kernel

import (
	"fmt"

	"hpmmap/internal/invariant"
	"hpmmap/internal/sim"
)

// core is one CPU with its runqueue occupancy and the NUMA zone it sits
// in.
type core struct {
	id       int
	zone     int
	runnable int     // tasks currently executing a Run segment here
	bwWeight float64 // summed bandwidth weights of those tasks
}

// Scheduling is a fair-share fluid model of CFS: a Run segment of W
// CPU-cycles on a core shared by N runnable tasks completes after W*N
// cycles (plus context-switch noise). Segments are short relative to load
// changes, so sampling the share at segment start is a good approximation
// of per-tick fairness, while keeping event counts tractable. Floating
// tasks are placed on the least-loaded core at every segment, modelling
// CFS load balancing of the unpinned kernel-build processes.

// Place assigns a floating task to the least-loaded core. Ties prefer
// the highest core ID: pinned HPC ranks occupy the low IDs, and CFS's
// idle balancing similarly avoids displacing running tasks. Placement is
// deterministic.
func (n *Node) Place(t *Task) int {
	if t.Pinned >= 0 {
		t.cur = t.Pinned
		return t.Pinned
	}
	best := len(n.cores) - 1
	for i := len(n.cores) - 2; i >= 0; i-- {
		if n.cores[i].runnable < n.cores[best].runnable {
			best = i
		}
	}
	t.cur = best
	return best
}

// arrive adds the task to its core's runqueue.
func (n *Node) arrive(t *Task) {
	if t.running {
		// Simulated-state violation: a task entered a runqueue while
		// already on one — overlapping Run segments for the same task.
		invariant.Fail(invariant.Violation{
			Check: "sched_double_arrive", Subsystem: "sched", PID: t.Proc.PID,
			Detail: fmt.Sprintf("task %d (%s) arrived on core %d while already running",
				t.ID, t.Proc.Name, t.cur),
		})
	}
	t.running = true
	t.Proc.running++
	if t.Proc.Commodity {
		n.runningCommodity++
	}
	c := &n.cores[t.cur]
	c.runnable++
	c.bwWeight += t.BandwidthWeight
	n.bwValid = false
}

// depart removes the task from its core's runqueue.
func (n *Node) depart(t *Task) {
	if !t.running {
		return
	}
	t.running = false
	t.Proc.running--
	if t.Proc.Commodity {
		n.runningCommodity--
	}
	c := &n.cores[t.cur]
	c.runnable--
	c.bwWeight -= t.BandwidthWeight
	n.bwValid = false
	if c.runnable < 0 {
		// Simulated-state violation: more departures than arrivals —
		// runqueue accounting went negative on this core.
		invariant.Fail(invariant.Violation{
			Check: "sched_runnable_negative", Subsystem: "sched", PID: t.Proc.PID,
			Detail: fmt.Sprintf("core %d runnable count %d after task %d departed",
				t.cur, c.runnable, t.ID),
		})
	}
	if c.bwWeight < 1e-9 {
		c.bwWeight = 0
	}
}

// Run executes a segment: cpuWork cycles of CPU-bound work plus stall
// cycles of time not subject to CPU sharing (fault waits, I/O retries).
// fn runs when the segment completes, with the wall-cycles it took.
func (n *Node) Run(t *Task, cpuWork, stall sim.Cycles, fn func(elapsed sim.Cycles)) {
	if t.done {
		// Programmer error (API misuse, not simulated-state divergence):
		// a workload driver issued a segment on a task it already finished.
		panic(fmt.Sprintf("kernel: Run on finished task %d (pid %d) — callers must not reuse a finished task",
			t.ID, t.Proc.PID))
	}
	n.Place(t)
	n.arrive(t)
	share := n.cores[t.cur].runnable
	if share < 1 {
		share = 1
	}
	elapsed := cpuWork*sim.Cycles(share) + stall
	var switches sim.Cycles
	if share > 1 {
		// Context-switch and cache-pollution noise while timesharing.
		switches = sim.Cycles(float64(cpuWork) / 2.4e6) // switches at ~1ms granularity
		elapsed += sim.Cycles(n.rand.Jitter(switches*sim.Cycles(n.cfg.CtxSwitch), 0.5))
	}
	if o := n.obs; o != nil {
		o.schedSegments.Inc()
		o.ctxSwitches.Add(uint64(switches))
	}
	start := n.eng.Now()
	n.eng.Schedule(elapsed, func() {
		n.depart(t)
		fn(n.eng.Now() - start)
	})
}

// Sleep blocks the task off the runqueue for d cycles (I/O, network).
func (n *Node) Sleep(t *Task, d sim.Cycles, fn func()) {
	if t.running {
		n.depart(t)
	}
	n.eng.Schedule(d, fn)
}

// bandwidthLoadExcluding returns the fraction of node memory bandwidth
// consumed by running tasks of processes other than p, in [0,1]. Tasks
// timesharing a core generate traffic one at a time, so a core's
// contribution is the average weight of its runnable tasks, not the sum.
// Bandwidth saturates at roughly half the core count of streaming tasks.
func (n *Node) bandwidthLoadExcluding(p *Process) float64 {
	if !n.bwValid {
		var w float64
		for i := range n.cores {
			c := &n.cores[i]
			if c.runnable > 0 {
				w += c.bwWeight / float64(c.runnable)
			}
		}
		n.bwSum, n.bwValid = w, true
	}
	w := n.bwSum
	// Subtract p's own running tasks' time-shared contribution. p.tasks
	// preserves creation order, so the subtraction sequence (and thus the
	// float result) matches the old whole-node scan exactly.
	for _, t := range p.tasks {
		if t.running {
			if r := n.cores[t.cur].runnable; r > 0 {
				w -= t.BandwidthWeight / float64(r)
			}
		}
	}
	if w < 0 {
		w = 0
	}
	sat := float64(len(n.cores)) * 0.5
	load := w / sat
	if load > 1 {
		load = 1
	}
	return load
}

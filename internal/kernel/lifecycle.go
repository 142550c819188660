package kernel

// Process-lifecycle fast path (DESIGN.md §11). Fork/exec/exit churn is
// the dominant allocation source in macro runs: every kernel-build
// compile and every datacenter pod is a Process + Task + vma.Space +
// pgtable.Table that previously lived for one compile and was then
// garbage. ExitReap recycles those structs through per-node free lists
// so steady-state churn allocates nothing, under the same pinned-output
// contract as the ISSUE-6 hot-path work: recycling is invisible to the
// simulation. PIDs stay monotonic, teardown frees frames in the same
// order Detach does, and no PRNG draw or cycle charge moves — the
// committed goldens must stay byte-identical with pooling on.
//
// The safety contract is quiescence. Plain Exit keeps its semantics
// exactly (tear down, never recycle) because processes can be exited
// mid-operation — the OOM killer fires from inside a touch, and chaos
// holds process references across events. ExitReap is for call sites
// that know the process is quiescent: no running tasks, no unfinished
// tasks, no event closures that will touch the process afterwards. The
// build worker's end-of-compile exit and the datacenter pod reaper are
// such sites; the OOM killer and the chaos injector are not and stay on
// Exit.

// lifecyclePools holds the node's recycled lifecycle structs.
type lifecyclePools struct {
	procs []*Process
	tasks []*Task
}

// SetLifecyclePooling toggles the fork/exit struct-recycling fast path
// (on by default). Turning it off makes ExitReap behave exactly like
// Exit — the unpooled baseline the fork/exit microbenchmark compares
// against.
func (n *Node) SetLifecyclePooling(on bool) { n.poolLifecycle = on }

// LifecyclePooling reports whether the fast path is enabled.
func (n *Node) LifecyclePooling() bool { return n.poolLifecycle }

// ExitReap tears the process down like Exit and, when the lifecycle
// fast path is enabled, recycles its structs for the next NewProcess or
// Fork. The manager teardown goes through DetachReap when the manager
// supports it (recycling its per-process state too); recycling of the
// Process itself happens only if the process is quiescent — every task
// finished, nothing on a runqueue. Callers must guarantee no event
// closure touches the process after this call (see the package comment
// above); when in doubt, use Exit.
//
//detsim:hotpath
func (n *Node) ExitReap(p *Process) {
	if p.Exited {
		return
	}
	if !n.poolLifecycle {
		n.Exit(p)
		return
	}
	p.Exited = true
	mm := n.mmFor(p)
	if rd, ok := mm.(ReapDetacher); ok {
		rd.DetachReap(p)
	} else {
		mm.Detach(p)
	}
	n.unlist(p)
	n.reap(p)
	n.LifecycleReaps++
}

// reap recycles a detached process's structs if it is quiescent. The
// Space and page table are kept with the struct (they reset on reuse);
// tasks go to their own free list.
//
//detsim:hotpath
func (n *Node) reap(p *Process) {
	if p.running != 0 {
		return
	}
	// A khugepaged merge deposits a closure that fires when the mm-lock
	// window closes, guarded only by p.Exited. Recycling the struct
	// before then would reset Exited and the stale closure would operate
	// on the next process to inherit the struct (the ABA problem). The
	// window closing is exactly when the closure fires, so an open (or
	// just-closing) window means the struct must stay dead. Zero means
	// the process was never mm-locked: merge windows always close at
	// Now()+cost > 0, so there is no closure to wait out.
	if p.MMLockedUntil > 0 && p.MMLockedUntil >= n.eng.Now() {
		return
	}
	for _, t := range p.tasks {
		if !t.done {
			return
		}
	}
	for _, t := range p.tasks {
		*t = Task{}
		//detsim:allow this IS the lifecycle pool (DESIGN.md §11): growth is the pool warming up, amortised to 0 B/op at steady churn
		n.pool.tasks = append(n.pool.tasks, t)
	}
	sp, pt := p.Space, p.PT
	tasks := p.tasks[:0]
	pmc := p.PendingMergeCosts[:0]
	pec := p.PendingEvictCosts[:0]
	*p = Process{Space: sp, PT: pt, tasks: tasks, PendingMergeCosts: pmc, PendingEvictCosts: pec}
	//detsim:allow this IS the lifecycle pool (DESIGN.md §11): growth is the pool warming up, amortised to 0 B/op at steady churn
	n.pool.procs = append(n.pool.procs, p)
}

// procStruct pops a recycled Process (with its Space and page table
// reset to newborn state) or returns nil when the pool is empty or
// pooling is off. The caller fills in identity fields.
//
//detsim:hotpath
func (n *Node) procStruct() *Process {
	if !n.poolLifecycle {
		return nil
	}
	k := len(n.pool.procs)
	if k == 0 {
		return nil
	}
	p := n.pool.procs[k-1]
	n.pool.procs[k-1] = nil
	n.pool.procs = n.pool.procs[:k-1]
	p.PT.Reset()
	n.LifecycleProcReuses++
	return p
}

// taskStruct pops a recycled Task or returns nil.
//
//detsim:hotpath
func (n *Node) taskStruct() *Task {
	if !n.poolLifecycle {
		return nil
	}
	k := len(n.pool.tasks)
	if k == 0 {
		return nil
	}
	t := n.pool.tasks[k-1]
	n.pool.tasks[k-1] = nil
	n.pool.tasks = n.pool.tasks[:k-1]
	n.LifecycleTaskReuses++
	return t
}

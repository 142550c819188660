package workload

import (
	"fmt"

	"hpmmap/internal/kernel"
	"hpmmap/internal/metrics"
	"hpmmap/internal/pgtable"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/trace"
	"hpmmap/internal/vma"
)

const rw = pgtable.ProtRead | pgtable.ProtWrite

// Launcher creates the process for one rank. Plain Linux ranks use
// node.NewProcess; HPMMAP ranks use the registration launch tool.
type Launcher func(name string, preferredZone int) (*kernel.Process, error)

// RankPlacement pins one rank to a node and core.
type RankPlacement struct {
	Node   *kernel.Node
	Core   int
	Launch Launcher
}

// Options configures an application run.
type Options struct {
	Spec  AppSpec
	Ranks []RankPlacement
	// CommDelay, when non-nil, returns per-iteration communication time
	// for a rank (the cluster layer computes network costs; single-node
	// runs use shared memory and leave it nil).
	CommDelay func(iter, rank int) sim.Cycles
	// Recorder, when non-nil, captures rank 0's faults.
	Recorder *trace.Recorder
	// Metrics, when non-nil, receives BSP barrier statistics
	// (bsp_barriers_total once per completed barrier, and
	// bsp_barrier_wait_cycles: each rank's wait from arrival to release).
	// Nil leaves the barrier path uninstrumented.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives one Chrome duration event per rank
	// per iteration (thread id = the rank's PID) and names the rank
	// threads. Nil disables tracing.
	Tracer *metrics.ChromeTracer
	// Attribution, when non-nil, installs one timeline.Account per rank
	// (threaded to every charge site via Process.Account) and records a
	// critical-path decomposition at every barrier release. With a Tracer
	// also attached, each non-balanced barrier emits an instant event on
	// the straggler's thread naming the dominant cause. Nil disables
	// attribution entirely.
	Attribution *timeline.Attribution
}

// RankResult reports one rank's execution.
type RankResult struct {
	Runtime sim.Cycles
	Faults  kernel.TouchStats
}

// Result reports a completed application run.
type Result struct {
	// Runtime is job completion time: the slowest rank.
	Runtime sim.Cycles
	Ranks   []RankResult
	Err     error
}

// App is a running application.
type App struct {
	opts  Options
	eng   *sim.Engine
	ranks []*rankState
	start sim.Cycles

	barrierCount int
	barrierGen   int
	waiting      []func()
	waitingAt    []sim.Cycles // arrival time of each waiter, for barrier wait metrics
	waitingRank  []int        // rank index of each waiter, in arrival order (attribution)

	// Metric push handles; nil when Options.Metrics is nil.
	barriers    *metrics.Counter
	barrierWait *metrics.Histogram

	done   int
	result Result
	onDone func(Result)
	failed bool
}

// rankState is one rank's execution state.
type rankState struct {
	app  *App
	idx  int
	node *kernel.Node
	p    *kernel.Process
	t    *kernel.Task

	bigRegions []regionRef
	heapBase   pgtable.VirtAddr
	heapLen    uint64
	churnAddr  pgtable.VirtAddr
	churnLen   uint64
	smallAddr  pgtable.VirtAddr
	smallLen   uint64

	setupStep int
	iter      int
	iterStart sim.Cycles // engine time the current iteration began (tracing)

	stall sim.Cycles // accumulated fault/syscall time for the next segment
}

type regionRef struct {
	addr    pgtable.VirtAddr
	size    uint64
	touched uint64
}

// Start launches the application. onDone fires when the last rank exits.
func Start(eng *sim.Engine, opts Options, onDone func(Result)) (*App, error) {
	if len(opts.Ranks) == 0 {
		return nil, fmt.Errorf("workload: no ranks")
	}
	if opts.Spec.SetupSteps <= 0 {
		opts.Spec.SetupSteps = 1
	}
	a := &App{opts: opts, eng: eng, onDone: onDone, start: eng.Now()}
	a.barriers = opts.Metrics.Counter(metrics.BSPBarriersTotal)
	a.barrierWait = opts.Metrics.Histogram(metrics.BSPBarrierWaitCycles)
	for i, pl := range opts.Ranks {
		r := &rankState{app: a, idx: i, node: pl.Node}
		p, err := pl.Launch(fmt.Sprintf("%s.%d", opts.Spec.Name, i), pl.Node.ZoneOfCore(pl.Core))
		if err != nil {
			return nil, fmt.Errorf("workload: launch rank %d: %w", i, err)
		}
		r.p = p
		if i == 0 && opts.Recorder != nil {
			p.Recorder = opts.Recorder
		}
		// Rank returns nil when attribution is off or the rank is out of
		// range; a nil Account makes every downstream charge a no-op.
		p.Account = opts.Attribution.Rank(i)
		r.t = pl.Node.NewTask(p, pl.Core, opts.Spec.BandwidthWeight)
		if opts.Tracer != nil {
			opts.Tracer.SetThreadName(p.PID, fmt.Sprintf("rank%d", i))
		}
		a.ranks = append(a.ranks, r)
		a.result.Ranks = append(a.result.Ranks, RankResult{})
	}
	for _, r := range a.ranks {
		r := r
		eng.Schedule(0, func() { r.begin() })
	}
	return a, nil
}

// fail aborts the run.
func (a *App) fail(err error) {
	if a.failed {
		return
	}
	a.failed = true
	a.result.Err = err
	a.finish()
}

func (a *App) finish() {
	if a.onDone != nil {
		cb := a.onDone
		a.onDone = nil
		cb(a.result)
	}
}

// barrier blocks rank r until all ranks arrive, then releases everyone.
func (a *App) barrier(r *rankState, fn func()) {
	a.waiting = append(a.waiting, fn)
	a.waitingAt = append(a.waitingAt, a.eng.Now())
	a.waitingRank = append(a.waitingRank, r.idx)
	a.barrierCount++
	if a.barrierCount < len(a.ranks)-a.done {
		return
	}
	ws := a.waiting
	now := a.eng.Now()
	if a.barrierWait != nil {
		// The last arrival releases the barrier: each waiter's wait is
		// the gap between its arrival and now.
		for _, at := range a.waitingAt {
			a.barrierWait.Observe(uint64(now - at))
		}
		a.barriers.Inc()
	}
	if attr := a.opts.Attribution; attr != nil {
		rec := attr.RecordBarrier(now, a.waitingRank, a.waitingAt)
		if tr := a.opts.Tracer; tr != nil && rec.Lateness > 0 {
			name := "straggler:(balanced)"
			if dom, ok := rec.DominantCause(); ok {
				name = "straggler:" + dom.String()
			}
			tr.Instant(a.ranks[rec.Straggler].p.PID, "bsp", name, uint64(now))
		}
	}
	a.waiting = nil
	a.waitingAt = a.waitingAt[:0]
	a.waitingRank = a.waitingRank[:0]
	a.barrierCount = 0
	a.barrierGen++
	for _, w := range ws {
		a.eng.Schedule(0, w)
	}
}

// --- rank state machine ----------------------------------------------------

// begin allocates the address space: stack, big arrays (mmap), and the
// initial heap, then enters the setup-touch loop.
func (r *rankState) begin() {
	spec := r.app.opts.Spec
	node := r.node
	// Stack.
	fc, err := node.TouchStack(r.p, spec.StackBytes)
	if err != nil {
		r.app.fail(err)
		return
	}
	r.stall += fc

	// Big arrays: mmap everything up front (demand-paged managers charge
	// almost nothing here; HPMMAP performs its eager on-request backing).
	bigTotal := uint64(float64(spec.FootprintPerRank) * (1 - spec.SmallFraction))
	for got := uint64(0); got < bigTotal; {
		sz := spec.AllocChunk
		if bigTotal-got < sz {
			sz = bigTotal - got
		}
		addr, c, err := node.Mmap(r.p, sz, rw, vma.KindAnon)
		if err != nil {
			r.app.fail(err)
			return
		}
		r.stall += c
		r.bigRegions = append(r.bigRegions, regionRef{addr: addr, size: sz})
		got += sz
	}
	// MPI shared-memory segments with same-node peers (file-backed).
	if spec.SharedPerPeer > 0 {
		peers := 0
		for _, pl := range r.app.opts.Ranks {
			if pl.Node == r.node {
				peers++
			}
		}
		if peers > 1 {
			shm := spec.SharedPerPeer * uint64(peers-1)
			addr, c, err := node.Mmap(r.p, shm, rw, vma.KindFile)
			if err != nil {
				r.app.fail(err)
				return
			}
			r.stall += c
			fc, err := node.TouchRange(r.p, addr, shm)
			if err != nil {
				r.app.fail(err)
				return
			}
			r.stall += fc
		}
	}

	// Heap base.
	b, c, err := node.Brk(r.p, 0)
	if err != nil {
		r.app.fail(err)
		return
	}
	r.stall += c
	r.heapBase = b
	r.setupStep = 0
	r.setup()
}

// setup touches 1/SetupSteps of the footprint per segment, interleaved
// with initialization compute.
func (r *rankState) setup() {
	spec := r.app.opts.Spec
	if r.setupStep >= spec.SetupSteps {
		r.iter = 0
		r.app.barrier(r, func() { r.iterate() })
		return
	}
	r.setupStep++

	// Touch the next slice of the big arrays.
	bigTotal := uint64(0)
	for _, reg := range r.bigRegions {
		bigTotal += reg.size
	}
	target := bigTotal * uint64(r.setupStep) / uint64(spec.SetupSteps)
	cum := uint64(0)
	for i := range r.bigRegions {
		reg := &r.bigRegions[i]
		regTarget := target - cum
		if regTarget > reg.size {
			regTarget = reg.size
		}
		if regTarget > reg.touched {
			fc, err := r.node.TouchRange(r.p, reg.addr, regTarget)
			if err != nil {
				r.app.fail(err)
				return
			}
			r.stall += fc
			reg.touched = regTarget
		}
		cum += reg.size
		if cum >= target {
			break
		}
	}

	// Grow the heap by this step's share of the small allocations, in
	// glibc-sized brk increments, touching as we go.
	smallTotal := uint64(float64(spec.FootprintPerRank) * spec.SmallFraction)
	heapTarget := smallTotal * uint64(r.setupStep) / uint64(spec.SetupSteps)
	if err := r.growHeap(heapTarget); err != nil {
		r.app.fail(err)
		return
	}

	// Initialization compute: a fraction of an iteration per step.
	cpu := sim.Cycles(uint64(spec.ComputePerIter) / uint64(spec.SetupSteps) / 2)
	stall := r.stall
	r.stall = 0
	r.node.Run(r.t, cpu, stall, func(el sim.Cycles) {
		r.chargeSched(el, cpu, stall)
		r.setup()
	})
}

// chargeSched attributes the scheduler-inflicted share of one Run segment
// — elapsed time beyond the rank's own cpu work and already-attributed
// stall (CPU fair-sharing with co-runners plus context switches) — to the
// sched cause. No-op without an account.
func (r *rankState) chargeSched(elapsed, cpu, stall sim.Cycles) {
	if elapsed > cpu+stall {
		r.p.Account.Charge(timeline.CauseSched, elapsed-cpu-stall)
	}
}

// growHeap extends the heap to target bytes in BrkStep increments.
func (r *rankState) growHeap(target uint64) error {
	spec := r.app.opts.Spec
	for r.heapLen < target {
		step := spec.BrkStep
		if target-r.heapLen < step {
			step = target - r.heapLen
		}
		_, c, err := r.node.Brk(r.p, r.heapBase+pgtable.VirtAddr(r.heapLen+step))
		if err != nil {
			return err
		}
		r.stall += c
		fc, err := r.node.TouchRange(r.p, r.heapBase+pgtable.VirtAddr(r.heapLen), step)
		if err != nil {
			return err
		}
		r.stall += fc
		r.heapLen += step
	}
	return nil
}

// iterate runs one bulk-synchronous iteration.
func (r *rankState) iterate() {
	spec := r.app.opts.Spec
	if r.iter >= spec.Iterations {
		r.complete()
		return
	}
	r.iter++
	r.iterStart = r.app.eng.Now()

	// Work-buffer churn: drop last iteration's buffer, map and touch a
	// fresh one — the ongoing allocation activity of Figures 4 and 5.
	if spec.ChurnPerIter > 0 {
		if r.churnAddr != 0 {
			c, err := r.node.Munmap(r.p, r.churnAddr, r.churnLen)
			if err != nil {
				r.app.fail(err)
				return
			}
			r.stall += c
		}
		addr, c, err := r.node.Mmap(r.p, spec.ChurnPerIter, rw, vma.KindAnon)
		if err != nil {
			r.app.fail(err)
			return
		}
		r.stall += c
		r.churnAddr, r.churnLen = addr, spec.ChurnPerIter
		fc, err := r.node.TouchRange(r.p, addr, spec.ChurnPerIter)
		if err != nil {
			r.app.fail(err)
			return
		}
		r.stall += fc
	}
	// Small-buffer churn: a sub-2MB scratch buffer remapped every
	// iteration (4KB-mapped under the Linux managers).
	if spec.SmallChurnPerIter > 0 {
		if r.smallAddr != 0 {
			c, err := r.node.Munmap(r.p, r.smallAddr, r.smallLen)
			if err != nil {
				r.app.fail(err)
				return
			}
			r.stall += c
		}
		addr, c, err := r.node.Mmap(r.p, spec.SmallChurnPerIter, rw, vma.KindAnon)
		if err != nil {
			r.app.fail(err)
			return
		}
		r.stall += c
		r.smallAddr, r.smallLen = addr, spec.SmallChurnPerIter
		fc, err := r.node.TouchRange(r.p, addr, spec.SmallChurnPerIter)
		if err != nil {
			r.app.fail(err)
			return
		}
		r.stall += fc
	}
	// Heap churn: small temporary allocations push the heap tail.
	if spec.HeapChurnPerIter > 0 {
		if err := r.growHeap(r.heapLen + spec.HeapChurnPerIter); err != nil {
			r.app.fail(err)
			return
		}
	}

	cpu := spec.ComputePerIter + MemoryOverhead(r.node, r.p, spec)
	stall := r.stall
	r.stall = 0
	// Run the iteration in sub-segments so the fair-share sample tracks
	// transient co-runners instead of charging a whole iteration at the
	// instantaneous share.
	const chunks = 4
	var step func(left int, carry sim.Cycles)
	step = func(left int, carry sim.Cycles) {
		if left == 0 {
			end := func() {
				r.traceIter()
				r.app.barrier(r, func() { r.iterate() })
			}
			if d := r.commDelay(); d > 0 {
				r.node.Sleep(r.t, d, end)
				return
			}
			end()
			return
		}
		chunkCarry := carry
		r.node.Run(r.t, cpu/chunks, chunkCarry, func(el sim.Cycles) {
			r.chargeSched(el, cpu/chunks, chunkCarry)
			step(left-1, 0)
		})
	}
	step(chunks, stall)
}

// traceIter emits the just-finished iteration (compute + communication,
// up to the barrier arrival) as a Chrome duration event on the rank's
// thread. No-op without a tracer.
func (r *rankState) traceIter() {
	tr := r.app.opts.Tracer
	if tr == nil {
		return
	}
	now := r.app.eng.Now()
	tr.Complete(r.p.PID, "app", "iter", uint64(r.iterStart), uint64(now-r.iterStart))
}

func (r *rankState) commDelay() sim.Cycles {
	if r.app.opts.CommDelay == nil {
		return 0
	}
	return r.app.opts.CommDelay(r.iter, r.idx)
}

// complete records the rank result; the last rank finishes the app.
func (r *rankState) complete() {
	a := r.app
	a.result.Ranks[r.idx] = RankResult{
		Runtime: a.eng.Now() - a.start,
		Faults:  r.p.Faults,
	}
	if rt := a.eng.Now() - a.start; rt > a.result.Runtime {
		a.result.Runtime = rt
	}
	r.t.Finish()
	r.node.Exit(r.p)
	a.done++
	if a.done == len(a.ranks) && !a.failed {
		a.finish()
	}
}

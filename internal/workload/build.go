package workload

import (
	"fmt"

	"hpmmap/internal/kernel"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// execer is the exec side of the fork/exec pair (implemented by the Linux
// manager).
type execer interface {
	Exec(p *kernel.Process) (sim.Cycles, error)
}

// BuildSpec parameterizes a parallel kernel build: the paper's commodity
// interference workload. Each worker loops forever: fork/exec a compiler
// process, fault in its working set, burn CPU, write page cache, exit.
// The churn of short-lived processes and file I/O is what fragments
// memory and drags the system to its watermarks.
type BuildSpec struct {
	// Workers is the -j level.
	Workers int
	// CompileCompute is the mean CPU work of one compilation.
	CompileCompute sim.Cycles
	// CompileJitter spreads compile times (relative).
	CompileJitter float64
	// AnonPerCompile is the anonymous working set faulted per compile.
	AnonPerCompile uint64
	// FilePerCompile is the page cache added per compile (headers read,
	// objects written).
	FilePerCompile uint64
	// IOWait is the mean off-CPU gap between compiles (reading sources,
	// waiting on make).
	IOWait sim.Cycles
	// BandwidthWeight per running worker.
	BandwidthWeight float64
	// ResidentAnon is the long-lived anonymous footprint of the build
	// itself (make, ccache, linker inputs) held for the build's whole
	// lifetime.
	ResidentAnon uint64
}

// KernelBuild returns the calibrated kernel-compile profile for the given
// -j level at 2.2GHz: ~0.3s of CPU per compilation unit, ~120MB working
// set, a few MB of file traffic.
func KernelBuild(workers int) BuildSpec {
	return BuildSpec{
		Workers:         workers,
		CompileCompute:  660_000_000,
		CompileJitter:   0.45,
		AnonPerCompile:  70 << 20,
		FilePerCompile:  16 << 20,
		IOWait:          330_000_000, // ~150ms: compiles block on reads/pipes
		BandwidthWeight: 0.45,
		ResidentAnon:    800 << 20,
	}
}

// Build is a running kernel build.
type Build struct {
	node *kernel.Node
	spec BuildSpec
	rand *sim.Rand

	stopped  bool
	resident *kernel.Process
	// names[id] is worker id's compiler process name, formatted once.
	names []string

	// Statistics.
	Compiles uint64
	Failures uint64
}

// StartBuild launches the build's workers on the node. The build runs
// until Stop is called (experiments stop it when the measured application
// completes, as the paper's harness does).
func StartBuild(node *kernel.Node, spec BuildSpec, seed uint64) *Build {
	b := &Build{node: node, spec: spec, rand: sim.NewRand(seed)}
	// The build's own long-lived footprint (make, caches).
	if spec.ResidentAnon > 0 {
		p, err := node.NewProcess("make", true, b.rand.Intn(node.Config().NumaZones))
		if err == nil {
			b.resident = p
			// Touch it in slices over the first second so the pressure
			// ramps like a build starting up.
			slices := 8
			per := spec.ResidentAnon / uint64(slices)
			if addr, _, err := node.Mmap(p, spec.ResidentAnon, rw, vma.KindAnon); err == nil {
				for i := 1; i <= slices; i++ {
					i := i
					node.Engine().Schedule(sim.Cycles(uint64(i)*uint64(node.Config().ClockHz/8)), func() {
						if !b.stopped {
							_, _ = node.TouchRange(p, addr, per*uint64(i))
						}
					})
				}
			}
		}
	}
	for w := 0; w < spec.Workers; w++ {
		w := w
		b.names = append(b.names, fmt.Sprintf("cc1.%d", w))
		// Stagger worker starts so the first compiles do not align.
		node.Engine().Schedule(sim.Cycles(b.rand.Uint64n(uint64(spec.IOWait)+1)), func() {
			b.worker(w)
		})
	}
	return b
}

// Stop halts the build after in-flight compiles finish and releases the
// resident footprint.
func (b *Build) Stop() {
	b.stopped = true
	if b.resident != nil {
		b.node.Exit(b.resident)
		b.resident = nil
	}
}

// worker runs one make job slot.
func (b *Build) worker(id int) {
	if b.stopped {
		return
	}
	zone := b.rand.Intn(b.node.Config().NumaZones)
	var p *kernel.Process
	var stall sim.Cycles
	// make fork+execs each compiler: fork is COW-cheap under Linux, exec
	// discards the inherited image.
	if b.resident != nil && !b.resident.Exited {
		child, c, err := b.node.Fork(b.resident, b.names[id])
		if err == nil {
			p = child
			stall += c
			if mgr, ok := b.node.DefaultMM().(execer); ok {
				if ec, err := mgr.Exec(p); err == nil {
					stall += ec
				}
			}
		}
	}
	if p == nil {
		var err error
		p, err = b.node.NewProcess(b.names[id], true, zone)
		if err != nil {
			b.Failures++
			return
		}
	}
	t := b.node.NewTask(p, -1, b.spec.BandwidthWeight)

	// Fault in the compiler's working set through the normal demand
	// paging path: this is where the commodity side stresses the
	// allocator.
	anon := b.rand.Jitter(sim.Cycles(b.spec.AnonPerCompile), 0.3)
	// Odd-size the region so THP covers only the aligned interior.
	size := uint64(anon) + 24<<10
	addr, c, err := b.node.Mmap(p, size, rw, vma.KindAnon)
	if err == nil {
		stall += c
		if fc, terr := b.node.TouchRange(p, addr, size); terr == nil {
			stall += fc
		}
	}

	cpu := b.rand.Jitter(b.spec.CompileCompute, b.spec.CompileJitter)
	// Run the compile in slices: each slice re-places the floating task,
	// modelling CFS load balancing migrating it off a busy core.
	const slices = 3
	var step func(left int, carry sim.Cycles)
	step = func(left int, carry sim.Cycles) {
		if left == 0 {
			// Object write + header reads land in the page cache.
			b.node.PageCacheAdd(zone, b.spec.FilePerCompile)
			b.Compiles++
			t.Finish()
			// Quiescent exit: the compile task just finished and no event
			// closure references p afterwards, so the lifecycle fast path
			// may recycle the process structs.
			b.node.ExitReap(p)
			if b.stopped {
				return
			}
			gap := sim.Cycles(b.rand.Exponential(float64(b.spec.IOWait)))
			b.node.Engine().Schedule(gap+1, func() { b.worker(id) })
			return
		}
		b.node.Run(t, cpu/slices, carry, func(sim.Cycles) { step(left-1, 0) })
	}
	step(slices, stall)
}

package workload

import (
	"fmt"

	"hpmmap/internal/kernel"
	"hpmmap/internal/sim"
	"hpmmap/internal/vma"
)

// AnalyticsSpec parameterizes an in-situ analytics consumer: the
// commodity-side workload of the paper's motivating scenario ("in-situ
// application architectures ... running HPC applications in a
// consolidated environment"). Every period it ingests a snapshot of
// simulation output into freshly allocated buffers, crunches it with
// bandwidth-heavy compute, writes results to the page cache, and frees
// the snapshot — a pulsed memory load, unlike the kernel build's steady
// churn.
type AnalyticsSpec struct {
	// SnapshotBytes ingested per analysis pass.
	SnapshotBytes uint64
	// PeriodCycles between passes (start to start).
	PeriodCycles sim.Cycles
	// ComputePerPass is the CPU work of one pass.
	ComputePerPass sim.Cycles
	// OutputBytes written to the page cache per pass.
	OutputBytes uint64
	// Pipelines is the number of concurrent analysis tasks.
	Pipelines int
	// BandwidthWeight per running pipeline (analytics streams hard).
	BandwidthWeight float64
}

// VizPipeline returns a visualization-style consumer calibrated for the
// 2.2GHz testbed: a 1.5GB snapshot every ~4 seconds, heavily
// bandwidth-bound.
func VizPipeline() AnalyticsSpec {
	return AnalyticsSpec{
		SnapshotBytes:   1536 << 20,
		PeriodCycles:    sim.Cycles(4 * 2.2e9),
		ComputePerPass:  2_600_000_000,
		OutputBytes:     64 << 20,
		Pipelines:       2,
		BandwidthWeight: 0.8,
	}
}

// Analytics is a running in-situ consumer.
type Analytics struct {
	node *kernel.Node
	spec AnalyticsSpec
	rand *sim.Rand

	stopped bool

	// Statistics.
	Passes   uint64
	Failures uint64
}

// StartAnalytics launches the consumer's pipelines on the node.
func StartAnalytics(node *kernel.Node, spec AnalyticsSpec, seed uint64) *Analytics {
	a := &Analytics{node: node, spec: spec, rand: sim.NewRand(seed)}
	if a.spec.Pipelines <= 0 {
		a.spec.Pipelines = 1
	}
	for i := 0; i < a.spec.Pipelines; i++ {
		i := i
		node.Engine().Schedule(sim.Cycles(a.rand.Uint64n(uint64(spec.PeriodCycles)+1)), func() {
			a.pass(i)
		})
	}
	return a
}

// Stop halts the consumer after in-flight passes complete.
func (a *Analytics) Stop() { a.stopped = true }

// pass runs one ingest-analyze-emit cycle.
func (a *Analytics) pass(id int) {
	if a.stopped {
		return
	}
	start := a.node.Now()
	zone := id % a.node.Config().NumaZones
	p, err := a.node.NewProcess(fmt.Sprintf("viz.%d", id), true, zone)
	if err != nil {
		a.Failures++
		a.reschedule(id, start)
		return
	}
	t := a.node.NewTask(p, -1, a.spec.BandwidthWeight)

	var stall sim.Cycles
	size := uint64(a.rand.Jitter(sim.Cycles(a.spec.SnapshotBytes), 0.15))
	addr, c, err := a.node.Mmap(p, size, rw, vma.KindAnon)
	if err == nil {
		stall += c
		if fc, terr := a.node.TouchRange(p, addr, size); terr == nil {
			stall += fc
		}
	}
	cpu := a.rand.Jitter(a.spec.ComputePerPass, 0.2)
	// Analyze in slices so the floating task migrates off busy cores.
	const slices = 4
	var step func(left int, carry sim.Cycles)
	step = func(left int, carry sim.Cycles) {
		if left == 0 {
			a.node.PageCacheAdd(zone, a.spec.OutputBytes)
			a.Passes++
			t.Finish()
			a.node.Exit(p)
			a.reschedule(id, start)
			return
		}
		a.node.Run(t, cpu/slices, carry, func(sim.Cycles) { step(left-1, 0) })
	}
	step(slices, stall)
}

// reschedule arms the next pass one period after the previous start.
func (a *Analytics) reschedule(id int, prevStart sim.Cycles) {
	if a.stopped {
		return
	}
	next := prevStart + a.rand.Jitter(a.spec.PeriodCycles, 0.1)
	now := a.node.Now()
	delay := sim.Cycles(1)
	if next > now {
		delay = next - now
	}
	a.node.Engine().Schedule(delay, func() { a.pass(id) })
}

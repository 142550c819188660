package main

import (
	"math"
	"sort"
	"strings"

	"hpmmap/internal/metrics"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, each the
// median over a run's reps. Bound is the share of the baseline median by
// which a metric may worsen before it counts as a regression; README.md
// gives the spreads measured across seeds that set them.
var endToEnd = []metricDef{
	// How fast a figure regenerates, runner idle time included, at the
	// nominal speed probe (probe.go).
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.2},
	// Host CPU per simulated event, at the nominal speed probe;
	// independent of the worker count.
	{Name: "cpu_ns_per_event", Unit: "ns", Better: "lower", Bound: 0.2},
	// Go heap allocation per cell of the reference rep: the same on
	// every run to within a few kilobytes, so it moves only when the
	// code allocates differently.
	{Name: "alloc_mb_per_cell", Unit: "MB", Better: "lower", Bound: 0.01},
	// Spawn to first entry call: runtime and package init plus option
	// building.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layers are the simulator's internal packages plus goruntime, which
// collects samples with no simulator frame on the stack.
var layers = []string{
	"sim", "mem", "buddy", "pgtable", "tlb", "vma", "kernel", "linuxmm", "core",
	"thp", "hugetlb", "workload", "cluster", "datacenter", "chaos", "invariant",
	"fault", "trace", "timeline", "metrics", "runner", "ledger", "stats",
	"experiments", "goruntime",
}

// layerCount is a per-layer work count read from the layers' own
// counters in the merged snapshot. pgtable has none: its walk counter
// reads 0 in every workload.
type layerCount struct {
	name     string
	counters []string
	// layer, when set, also gets <layer>.ns_per_op = layer CPU / count.
	layer string
}

var layerCounts = []layerCount{
	{name: "sim.ops", layer: "sim", counters: []string{metrics.SimEventsTotal}},
	{name: "buddy.ops", layer: "buddy", counters: []string{metrics.BuddyAllocsTotal, metrics.BuddyFreesTotal}},
	{name: "linuxmm.ops", layer: "linuxmm", counters: []string{metrics.LinuxmmSmallFaultsTotal, metrics.LinuxmmLargeFaultsTotal}},
	{name: "core.ops", layer: "core", counters: []string{metrics.HPMMAPMapCallsTotal, metrics.HPMMAPUnmapCallsTotal, metrics.HPMMAPBrkCallsTotal}},
	{name: "thp.ops", layer: "thp", counters: []string{metrics.THPScansTotal}},
	{name: "datacenter.ops", layer: "datacenter", counters: []string{metrics.DatacenterPodsLaunchedTotal}},
	{name: "invariant.ops", layer: "invariant", counters: []string{metrics.InvariantChecksTotal}},
	{name: "workload.ops", counters: []string{metrics.AppFaultsTotal, metrics.CommodityFaultsTotal}},
	{name: "chaos.ops", counters: []string{metrics.ChaosEventsTotal}},
	{name: "cluster.ops", counters: []string{metrics.ClusterExchangesTotal}},
	{name: "tlb.ops", counters: []string{metrics.TLBSmallHitsTotal, metrics.TLBSmallMissesTotal, metrics.TLBLargeHitsTotal, metrics.TLBLargeMissesTotal}},
	{name: "kernel.reclaimed_pages", counters: []string{metrics.KernelReclaimedPagesTotal}},
	{name: "kernel.reaps", counters: []string{metrics.KernelLifecycleReapsTotal}},
}

// layerCounters lists every counter a rep reports back.
var layerCounters = func() []string {
	var out []string
	for _, c := range layerCounts {
		out = append(out, c.counters...)
	}
	return out
}()

// microBenches are the package microbenchmarks the sweep runs, by
// package. ForkExit reports two sub-benchmarks.
var microBenches = []struct {
	pkg   string
	names []string
}{
	{"sim", []string{"EngineScheduleStep", "EngineDeepQueue", "RandNormal", "RandPareto"}},
	{"mem", []string{"ZoneAllocFree4K", "ZoneAllocFree2M", "ZoneSplitCoalesceCycle", "FragmentationIndex"}},
	{"buddy", []string{"AllocFree2M", "AllocChurn"}},
	{"pgtable", []string{"MapUnmap4K", "MapUnmap2M", "WalkHit", "Split2M"}},
	{"tlb", []string{"AccessHit", "AccessStreaming4K", "MissRateAnalytic"}},
	{"linuxmm", []string{"TouchDemand", "TouchHugetlb", "GatedAlloc", "ForkExit/pooled", "ForkExit/unpooled"}},
	{"core", []string{"HPMMAPTouchRange"}},
	{"metrics", []string{"UninstrumentedFault", "InstrumentedFault"}},
}

// benchMetricName turns a benchmark into a metric-name stem; "/" is not
// allowed in metric names.
func benchMetricName(pkg, bench string) string {
	return pkg + ".bench." + strings.ReplaceAll(bench, "/", "_")
}

// perLayer lists the per-layer metrics in the order they are printed.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{Name: l + ".cpu_pct", Unit: "%", Better: "lower"})
	}
	for _, c := range layerCounts {
		out = append(out, metricDef{Name: c.name, Unit: "count", Better: "lower"})
		if c.layer != "" {
			out = append(out, metricDef{Name: c.layer + ".ns_per_op", Unit: "ns", Better: "lower"})
		}
	}
	out = append(out,
		metricDef{Name: "runner.idle_pct", Unit: "%", Better: "lower"},
		// The process's VmHWM. Not end-to-end: the GC's timing moves it by
		// up to half between reps of one seed.
		metricDef{Name: "goruntime.peak_rss_mb", Unit: "MB", Better: "lower"},
		// The speed probe the timings are scaled by (probe.go).
		metricDef{Name: "host.probe_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	)
	for _, p := range microBenches {
		for _, b := range p.names {
			stem := benchMetricName(p.pkg, b)
			out = append(out,
				metricDef{Name: stem + ".ns_op", Unit: "ns", Better: "lower"},
				metricDef{Name: stem + ".allocs_op", Unit: "count", Better: "lower"},
			)
		}
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the method the regression check uses.
// With fewer than two values both are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// with the given direction (negative when b is better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == a {
			return 0
		}
		return math.Inf(1)
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

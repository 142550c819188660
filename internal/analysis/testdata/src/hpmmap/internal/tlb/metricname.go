// Golden testdata for the metricname analyzer: registrations on a
// metrics.Registry must use internal/metrics constants.
package tlb

import "hpmmap/internal/metrics"

const localName = "tlb_local_hits_total"

type stats struct{ hits uint64 }

type otherRegistry struct{}

// Histogram on a non-Registry receiver must not be confused with the
// contract-bound method (the trace.Recorder false-positive guard).
func (o *otherRegistry) Histogram(name string, lo, hi int) string { return name }

func register(reg *metrics.Registry, s *stats) {
	// Constants from internal/metrics: fine.
	reg.CounterFunc(metrics.TLBSmallHitsTotal, func() uint64 { return s.hits })
	_ = reg.Counter(metrics.BuddyAllocsTotal)

	// Raw string literal: flagged.
	_ = reg.Counter("tlb_adhoc_total") // want `metricname: string literal "tlb_adhoc_total" in Counter\(...\)`

	// A literal smuggled into a concatenation: flagged.
	reg.GaugeFunc(metrics.TLBSmallHitsTotal+"_zone0", func() float64 { return 0 }) // want `metricname: string literal "_zone0" in GaugeFunc\(...\)`

	// A constant declared outside internal/metrics: flagged.
	_ = reg.Histogram(localName) // want `metricname: constant localName declared outside internal/metrics in Histogram\(...\)`

	// Dynamic names are left to the runtime contract test.
	name := pick()
	reg.GaugeFunc(name, func() float64 { return 0 })

	// Non-Registry receivers are out of scope.
	o := &otherRegistry{}
	_ = o.Histogram("anything", 14, 60)

	// The escape hatch.
	_ = reg.Counter("debug_scratch_total") //detsim:allow throwaway local-profiling counter, never snapshotted into an artifact
}

func pick() string { return localName }

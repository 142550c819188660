package timeline

import (
	"fmt"
	"io"

	"hpmmap/internal/metrics"
)

// probe is one registered sample source. track caches the Chrome
// counter-track name ("<metric>/node<N>") so the sampling hot path does
// no per-sample formatting.
type probe struct {
	node  int
	name  string
	track string
	fn    func() float64
}

// sample is one cadence tick: the simulated cycle and every probe's
// reading, in probe registration order.
type sample struct {
	at   uint64
	vals []float64
}

// Series is the deterministic time-series sampler: probes registered in
// a fixed order are read at a caller-driven simulated-cycle cadence
// (experiment rigs piggyback Sample on their existing pressure/audit
// ticker, so enabling a series schedules no extra events on the
// single-node path). Samples render as a long-format CSV (WriteCSV) and,
// when a tracer is attached, as Chrome counter ('C') tracks named
// "<metric>/node<N>".
//
// A Series belongs to one simulation cell, like a metrics.Registry; a
// nil *Series is the no-op default and every method is nil-safe.
type Series struct {
	probes  []probe
	samples []sample
	tracer  *metrics.ChromeTracer
	count   *metrics.Counter
}

// NewSeries returns an empty sampler.
func NewSeries() *Series { return &Series{} }

// AddProbe registers a sample source for a node-scoped metric. name
// should be a canonical metrics name (names.go) so series rows
// cross-reference the metric table; node distinguishes cluster members
// (0 for single-node rigs). Registration order fixes the CSV and trace
// track order. No-op on a nil receiver.
func (s *Series) AddProbe(node int, name string, fn func() float64) {
	if s == nil || fn == nil {
		return
	}
	s.probes = append(s.probes, probe{
		node: node, name: name,
		track: fmt.Sprintf("%s/node%d", name, node),
		fn:    fn,
	})
}

// Observe attaches the cell's registry and tracer: timeline_samples_total
// counts cadence ticks, and each Sample emits one counter-track trace
// event per probe. No-op on a nil receiver; nil registry/tracer are the
// uninstrumented defaults.
func (s *Series) Observe(reg *metrics.Registry, tr *metrics.ChromeTracer) {
	if s == nil {
		return
	}
	s.count = reg.Counter(metrics.TimelineSamplesTotal)
	s.tracer = tr
}

// Sample reads every probe at simulated cycle at, appends the row, and
// emits the trace counter tracks. Called from the owning rig's ticker;
// it draws no randomness and mutates no simulated state, so attaching a
// series never perturbs a run. No-op on a nil receiver.
func (s *Series) Sample(at uint64) {
	if s == nil {
		return
	}
	vals := make([]float64, len(s.probes))
	for i := range s.probes {
		p := &s.probes[i]
		v := p.fn()
		vals[i] = v
		s.tracer.Value(0, "series", p.track, at, v)
	}
	s.samples = append(s.samples, sample{at: at, vals: vals})
	s.count.Inc()
}

// WriteCSV renders the samples in long format, one row per
// (sample, probe): cell,node,cycle,metric,value — sorted by sample time
// then probe registration order, so output is deterministic. The header
// is the caller's job (runner.Observations writes it once for a merged
// multi-cell file); cell labels the owning cell. Safe on a nil receiver
// (writes nothing).
func (s *Series) WriteCSV(w io.Writer, cell string) error {
	if s == nil {
		return nil
	}
	for _, row := range s.samples {
		for i, p := range s.probes {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%s,%s\n",
				cell, p.node, row.at, p.name, formatSeriesValue(row.vals[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesCSVHeader is the header row of the series CSV format.
const SeriesCSVHeader = "cell,node,cycle,metric,value"

// formatSeriesValue prints integral values as integers (so counter
// samples byte-match table output) and the rest with fixed precision,
// mirroring the metrics text format.
func formatSeriesValue(v float64) string {
	if v >= 0 && v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%.6f", v)
}

package runner

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/timeline"
)

// Observations collects per-cell metric registries and Chrome tracers
// for one plan execution, and folds them into plan-wide artifacts after
// the run. It exists because cells execute concurrently: each cell gets
// a private registry and tracer (cells are single-threaded internally,
// so the per-cell hot paths stay lock-free), and the collector merges
// them in cell-index order afterwards — so the merged snapshot and trace
// are byte-identical at any worker count, mirroring the runner's seeding
// contract. Tracers exist only after EnableTrace: a trace records an
// event per fault and per reclaim pass, which nothing reads unless it
// is written.
//
// A nil *Observations is a valid no-op collector: Cell returns (nil,
// nil) handles, which every instrumentation hook treats as "off".
type Observations struct {
	mu      sync.Mutex
	clockHz float64
	cells   map[int]*cellObs

	// seriesOn marks that per-cell time-series samplers were requested
	// (EnableSeries); Series then returns a live sampler per cell.
	seriesOn bool

	// traceOn marks that per-cell Chrome tracers were requested
	// (EnableTrace); Cell then returns a live tracer per cell.
	traceOn bool

	// plan holds plan-level (not per-cell) metric sources: the runner's
	// own failure/retry counters and the result cache's corruption
	// tally. Folded into Merged exactly once, after the cells.
	plan *metrics.Registry

	// led is the attached run journal (SetLedger); Run writes to it
	// when the collector is Options.Obs. ledgerPlans and ledgerRecords
	// count the plans and canonical records this collector journaled
	// there (journaled); other collectors may share the ledger.
	led                        *ledger.Ledger
	ledgerPlans, ledgerRecords atomic.Uint64
}

// cellObs is one cell's collected instrumentation.
type cellObs struct {
	reg     *metrics.Registry
	tracer  *metrics.ChromeTracer
	snap    metrics.Snapshot
	hasSnap bool
	label   string
	series  *timeline.Series
}

// NewObservations creates a collector. clockHz converts simulated cycles
// to trace microseconds (pass the machine's clock; <= 0 keeps the
// tracer's 1 GHz default).
func NewObservations(clockHz float64) *Observations {
	return &Observations{clockHz: clockHz, cells: make(map[int]*cellObs)}
}

// Cell returns the registry and tracer for the cell at the given plan
// index, creating them on first use. label names the trace process
// (typically Cell.String()). The tracer is nil, the no-op tracer,
// unless EnableTrace was called. Safe for concurrent use by worker
// goroutines; safe on a nil receiver (returns nil handles, the
// uninstrumented path).
func (o *Observations) Cell(idx int, label string) (*metrics.Registry, *metrics.ChromeTracer) {
	if o == nil {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cells[idx]
	if c == nil {
		c = &cellObs{reg: metrics.NewRegistry(), label: label}
		if o.traceOn {
			c.tracer = metrics.NewChromeTracer(idx)
			if o.clockHz > 0 {
				c.tracer.SetClock(o.clockHz)
			}
			c.tracer.SetProcessName(label)
		}
		if o.seriesOn {
			c.series = timeline.NewSeries()
		}
		o.cells[idx] = c
	}
	return c.reg, c.tracer
}

// EnableTrace requests a per-cell Chrome tracer: every cell created by
// Cell afterwards records trace events, which WriteTrace renders. Call
// before the plan runs, and only when the trace will be written. Safe
// on a nil receiver.
func (o *Observations) EnableTrace() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.traceOn = true
	o.mu.Unlock()
}

// EnableSeries requests a per-cell time-series sampler: every cell
// created by Cell afterwards carries a timeline.Series, retrievable via
// Series and rendered by WriteSeriesCSV. Call before the plan runs. Safe
// on a nil receiver.
func (o *Observations) EnableSeries() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.seriesOn = true
	o.mu.Unlock()
}

// seriesEnabled reports whether EnableSeries was called (false on a nil
// receiver). Run bypasses the result cache when it is.
func (o *Observations) seriesEnabled() bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.seriesOn
}

// Series returns the cell's sampler, or nil when series collection is
// off, the cell was never created via Cell, or the receiver is nil — a
// nil *timeline.Series is the no-op sampler, so callers pass the result
// straight into the experiment options.
func (o *Observations) Series(idx int) *timeline.Series {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cells[idx]
	if c == nil {
		return nil
	}
	return c.series
}

// WriteSeriesCSV writes every cell's samples as one long-format CSV
// (header row, then cells in ascending index order; each cell's rows are
// labelled with its trace label). Deterministic at any worker count.
// Safe on a nil receiver (writes only the header).
func (o *Observations) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, timeline.SeriesCSVHeader); err != nil {
		return err
	}
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, i := range o.indexes() {
		c := o.cells[i]
		if c.series == nil {
			continue
		}
		if err := c.series.WriteCSV(w, c.label); err != nil {
			return err
		}
	}
	return nil
}

// Snap returns the cell's registry snapshot, capturing it on the first
// call and returning the stored snapshot afterwards. Run calls it when a
// cell succeeds; a cell function that needs a value from its own
// snapshot may call it first, at the end of the cell. Safe on a nil
// receiver (returns an empty snapshot).
func (o *Observations) Snap(idx int) metrics.Snapshot {
	if o == nil {
		return metrics.Snapshot{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cells[idx]
	if c == nil {
		return metrics.Snapshot{}
	}
	if !c.hasSnap {
		c.snap = c.reg.Snapshot()
		c.hasSnap = true
	}
	return c.snap
}

// record stores a pre-computed snapshot for a cell that did not run
// (a result-cache hit replaying the metrics it cached). Safe on a nil
// receiver.
func (o *Observations) record(idx int, snap metrics.Snapshot) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cells[idx]
	if c == nil {
		c = &cellObs{}
		o.cells[idx] = c
	}
	c.snap = snap
	c.hasSnap = true
}

// PlanRegistry returns the plan-level registry, creating it on first
// use. It holds metrics that belong to the orchestration itself rather
// than any one cell (runner_cells_failed_total, runner_cell_retries_
// total, runner_cache_corrupt_total); pass it as Options.Metrics. Its
// snapshot is merged once, after every cell's, so plan-level totals are
// deterministic at any worker count. Safe on a nil receiver (returns
// nil, the no-op registry).
func (o *Observations) PlanRegistry() *metrics.Registry {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.plan == nil {
		o.plan = metrics.NewRegistry()
	}
	return o.plan
}

// SetLedger attaches the run journal. The runner writes lifecycle
// records and cache hit/miss traffic to it (pass the collector as
// Options.Obs), and the plan registry gains two counters of what this
// collector journaled: runner_ledger_plans_total counts its plans and
// runner_ledger_records_total their canonical records only — host
// record counts vary with cache state and so would break the merged
// snapshot's byte-identity contract. Several collectors may share one
// ledger (one per experiment of an invocation); each counts only its
// own plans. Call before the plan runs. Safe on a nil receiver or nil
// ledger.
func (o *Observations) SetLedger(l *ledger.Ledger) {
	if o == nil || l == nil {
		return
	}
	o.mu.Lock()
	o.led = l
	o.mu.Unlock()
	reg := o.PlanRegistry()
	reg.CounterFunc(metrics.RunnerLedgerRecordsTotal, o.ledgerRecords.Load)
	reg.CounterFunc(metrics.RunnerLedgerPlansTotal, o.ledgerPlans.Load)
}

// journaled counts one plan this collector journaled, which wrote
// records canonical records (Ledger.EndPlan). A no-op on a nil receiver
// or without a ledger.
func (o *Observations) journaled(records uint64) {
	if o.ledgerSink() == nil {
		return
	}
	o.ledgerPlans.Add(1)
	o.ledgerRecords.Add(records)
}

// ledgerSink returns the attached ledger (nil when none is attached or
// on a nil receiver — a nil *ledger.Ledger is the no-op sink).
func (o *Observations) ledgerSink() *ledger.Ledger {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.led
}

// indexes returns the collected cell indexes in ascending order. Callers
// must hold o.mu.
func (o *Observations) indexes() []int {
	idxs := make([]int, 0, len(o.cells))
	for i := range o.cells {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

// Merged folds every cell's snapshot into one plan-wide snapshot,
// merging in ascending cell-index order so the result is independent of
// worker count and completion order. Cells not yet snapped are snapped
// now. Safe on a nil receiver (returns an empty snapshot).
func (o *Observations) Merged() metrics.Snapshot {
	if o == nil {
		return metrics.Snapshot{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	snaps := make([]metrics.Snapshot, 0, len(o.cells))
	for _, i := range o.indexes() {
		c := o.cells[i]
		if !c.hasSnap {
			c.snap = c.reg.Snapshot()
			c.hasSnap = true
		}
		snaps = append(snaps, c.snap)
	}
	if o.plan != nil {
		snaps = append(snaps, o.plan.Snapshot())
	}
	return metrics.Merge(snaps...)
}

// WriteTrace writes every cell's trace events as one Chrome trace-event
// JSON document (cells become trace processes, in ascending cell-index
// order — deterministic at any worker count). Cells that never created
// a tracer (cache hits) are skipped. It is an error on a collector
// without EnableTrace, which recorded nothing. Safe on a nil receiver
// (writes an empty trace).
func (o *Observations) WriteTrace(w io.Writer) error {
	var tracers []*metrics.ChromeTracer
	if o != nil {
		o.mu.Lock()
		if !o.traceOn {
			o.mu.Unlock()
			return fmt.Errorf("runner: WriteTrace without EnableTrace: no trace was recorded")
		}
		for _, i := range o.indexes() {
			if c := o.cells[i]; c.tracer != nil {
				tracers = append(tracers, c.tracer)
			}
		}
		o.mu.Unlock()
	}
	return metrics.WriteChromeTrace(w, tracers...)
}

// Package runner is the experiment-orchestration subsystem: a declarative
// run plan (an experiment name plus a grid of independent cells) executed
// by a bounded worker pool with deterministic per-cell seeding.
//
// The design contract, relied on by every figure harness in
// internal/experiments:
//
//   - A Cell's PRNG seed is a pure function of the plan's base seed and
//     the cell's coordinates (bench/profile/manager/cores/run-index),
//     derived through a SplitMix64 finalizer chain — never from execution
//     order. Results are therefore byte-identical at any worker count,
//     including 1.
//   - Results are returned indexed by the cell's position in Plan.Cells,
//     so reducers fold them in declaration order regardless of which
//     worker finished first.
//   - Progress events are emitted through a single serialized sink: the
//     Progress callback is never invoked concurrently with itself, so
//     consumers may write to unsynchronized state (a terminal, a log
//     line buffer) without locking.
//   - The first cell error cancels the remaining cells and is returned;
//     worker panics are contained and converted into errors whose cause
//     chain is preserved (a structured invariant.Violation survives the
//     recovery). Options.ContinueOnError flips the policy: failed cells
//     are quarantined as holes and reported together in a *GridError
//     while every other cell still runs. Options.CellTimeout bounds a
//     cell's wall clock.
//   - Per-cell results can be memoized on disk (Options.Cache) and
//     instrumented (Options.Obs: Observations hands each cell a private
//     metrics registry and Chrome tracer, then merges them in cell-index
//     order — see OBSERVABILITY.md at the repository root). Run owns the
//     whole cache protocol, so a cell function only simulates.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
)

// Cell is one point of an experiment grid. The string/int coordinates
// identify the cell uniquely within its experiment; they feed both the
// deterministic seed derivation (Seed) and the result-cache key.
type Cell struct {
	// Exp names the experiment ("fig7", "fig8", "faultstudy", ...).
	Exp string
	// Bench is the benchmark name ("HPCCG", "miniMD", ...).
	Bench string
	// Profile is the commodity-load profile ("none", "A", ... ).
	Profile string
	// Manager is the memory-manager key ("thp", "hugetlbfs", "hpmmap").
	Manager string
	// Variant is an optional extra coordinate for experiments with an
	// axis beyond the standard five (noise base/noisy, sweep knob value).
	Variant string
	// Cores is the core count (single node) or rank count (cluster).
	Cores int
	// Run is the repetition index within the cell's coordinates.
	Run int
}

// String renders the cell compactly for progress lines and errors.
func (c Cell) String() string {
	s := c.Exp
	if c.Bench != "" {
		s += " " + c.Bench
	}
	if c.Profile != "" {
		s += "/" + c.Profile
	}
	if c.Manager != "" {
		s += "/" + c.Manager
	}
	if c.Variant != "" {
		s += "/" + c.Variant
	}
	s += fmt.Sprintf("/c%d#%d", c.Cores, c.Run)
	return s
}

// Plan is a named experiment: a base seed and a grid of independent cells.
type Plan struct {
	Name string
	Seed uint64
	// Inputs renders the plan-wide inputs that change a cell's result
	// but not its seed: the problem scale, plus any study option that is
	// not a cell coordinate (the auditor, a fixed churn rate, ...). The
	// result-cache key hashes it, so runs that differ in such an input
	// never share entries.
	Inputs string
	Cells  []Cell
}

// Event is one progress notification. Events are delivered in completion
// order through the serialized sink; Done counts completed cells.
type Event struct {
	Plan string
	// Cell that just completed (or failed); Index is its position in
	// Plan.Cells.
	Cell  Cell
	Index int
	// Done of Total cells have completed.
	Done, Total int
	// Elapsed is the wall-clock time since the executor started; ETA
	// extrapolates the remaining time from the mean cell rate so far.
	Elapsed, ETA time.Duration
	// Result is the cell function's returned value (nil on error).
	Result any
	// Err is the cell's error, if any.
	Err error
	// Failed counts cells that have failed so far (quarantined holes
	// under ContinueOnError, fatal otherwise). Done includes them — a
	// failed cell is finished, just not successful — so Failed is what
	// distinguishes "10/10" from "10/10 with holes" in a progress line.
	Failed int
}

// String renders a progress line with done/total and ETA; failed cells
// are called out distinctly so a grid with quarantined holes never
// reads as clean.
func (e Event) String() string {
	s := fmt.Sprintf("%s %d/%d", e.Plan, e.Done, e.Total)
	if e.Failed > 0 {
		s += fmt.Sprintf(" [%d failed]", e.Failed)
	}
	s += fmt.Sprintf(" (ETA %s) %s", e.ETA.Round(time.Second), e.Cell)
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Options configures an execution.
type Options struct {
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	Workers int
	// Context cancels the run; nil means context.Background(). The
	// context handed to cell functions is cancelled on the first cell
	// error as well.
	Context context.Context
	// Progress, when non-nil, receives one event per completed cell
	// through a serialized sink: invocations never overlap, so the
	// callback may touch unsynchronized state.
	Progress func(Event)

	// CellTimeout bounds one cell's wall-clock execution: the cell's
	// context is cancelled after the duration and the cell fails with a
	// timeout-annotated error. Zero means no per-cell bound. Simulation
	// cells observe cancellation every few tens of thousands of engine
	// events (see experiments.runToCompletion), so a runaway cell stops
	// promptly rather than at its natural end.
	CellTimeout time.Duration

	// ContinueOnError quarantines failed cells instead of cancelling
	// the plan: every remaining cell still runs, the zero value stands
	// in for each failed cell's result, and Run returns a *GridError
	// listing the failures in cell-index order. Parent-context
	// cancellation still aborts the run (and takes precedence over the
	// grid error in the return).
	ContinueOnError bool

	// Metrics, when non-nil, receives the runner's own plan-level
	// counters (runner_cells_failed_total, runner_cell_retries_total,
	// and runner_cache_corrupt_total when Cache is set) as pull sources
	// — typically Observations.PlanRegistry(). No cell is ever re-run,
	// so runner_cell_retries_total always reads 0; it stays registered
	// because recorded snapshots carry it.
	Metrics *metrics.Registry

	// Cache, when non-nil, memoizes successful cells under a key of the
	// cache's version, the plan name, the cell's coordinates and seed,
	// and Plan.Inputs. A hit returns the stored result without calling
	// the cell function and replays its metric snapshot into Obs. While
	// observing, an entry without a snapshot (written by an unobserved
	// run) is a miss. Failed cells are never stored, and a run with Obs
	// series sampling enabled neither reads nor writes the cache.
	Cache *Cache

	// Obs, when non-nil, observes the run: the runner snapshots each
	// successful cell's registry (Observations.Snap), replays cached
	// snapshots, and writes the run journal to the collector's ledger
	// (SetLedger) — a canonical manifest + cell-lifecycle stream
	// (byte-identical at any worker count; see internal/ledger) plus a
	// host annex of wall-times, worker IDs, allocation deltas, timeouts
	// and cache traffic.
	Obs *Observations
}

// CellFunc computes one cell. idx is the cell's position in Plan.Cells;
// seed is the cell's coordinate-derived PRNG seed. The function must not
// retain ctx past its return and must be safe to call concurrently with
// itself on different cells.
type CellFunc[T any] func(ctx context.Context, idx int, cell Cell, seed uint64) (T, error)

// Run executes every cell of the plan on a bounded worker pool and
// returns the results indexed by cell position. The first error cancels
// the remaining cells and is returned (cells already running finish or
// observe ctx cancellation). A nil error means every cell completed.
func Run[T any](opts Options, plan Plan, fn CellFunc[T]) ([]T, error) {
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(plan.Cells) {
		workers = len(plan.Cells)
	}
	results := make([]T, len(plan.Cells))
	if len(plan.Cells) == 0 {
		return results, parent.Err()
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	obs := opts.Obs
	led := obs.ledgerSink() // nil is the no-op sink, but host probes are gated on it
	led.BeginPlan(plan.Name, plan.Seed, len(plan.Cells), workers)

	var (
		mu       sync.Mutex // serializes progress + failure recording
		firstErr error
		failures []CellError
		done     int
		start    = time.Now()

		cellsFailed atomic.Uint64
	)
	if opts.Metrics != nil {
		opts.Metrics.CounterFunc(metrics.RunnerCellsFailedTotal, func() uint64 { return cellsFailed.Load() })
		opts.Metrics.CounterFunc(metrics.RunnerCellRetriesTotal, func() uint64 { return 0 })
		if opts.Cache != nil {
			opts.Metrics.CounterFunc(metrics.RunnerCacheCorruptTotal, opts.Cache.CorruptCount)
		}
	}
	fail := func(idx int, err error) {
		cellsFailed.Add(1)
		mu.Lock()
		if opts.ContinueOnError {
			failures = append(failures, CellError{Index: idx, Cell: plan.Cells[idx], Err: err})
			mu.Unlock()
			return
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", plan.Cells[idx], err)
			cancel()
		}
		mu.Unlock()
	}
	emit := func(idx int, res any, err error) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress == nil {
			return
		}
		elapsed := time.Since(start)
		var eta time.Duration
		if rem := len(plan.Cells) - done; rem > 0 && done > 0 {
			eta = time.Duration(float64(elapsed) / float64(done) * float64(rem))
		}
		opts.Progress(Event{
			Plan: plan.Name, Cell: plan.Cells[idx], Index: idx,
			Done: done, Total: len(plan.Cells),
			Elapsed: elapsed, ETA: eta,
			Result: res, Err: err,
			Failed: int(cellsFailed.Load()),
		})
	}

	// runOnce executes one cell, containing panics so one bad cell
	// cannot take down the process. A recovered error payload (e.g. a
	// structured *invariant.Violation raised by a simulated-state audit)
	// is preserved in the wrap chain, so callers can errors.As through
	// the cell error to the original cause.
	runOnce := func(idx int) (out T, err error) {
		defer func() {
			if r := recover(); r != nil {
				if cause, ok := r.(error); ok {
					err = fmt.Errorf("runner: panic in cell %s: %w\n%s",
						plan.Cells[idx], cause, debug.Stack())
				} else {
					err = fmt.Errorf("runner: panic in cell %s: %v\n%s",
						plan.Cells[idx], r, debug.Stack())
				}
			}
		}()
		cellCtx := ctx
		if opts.CellTimeout > 0 {
			var cancelCell context.CancelFunc
			cellCtx, cancelCell = context.WithTimeout(ctx, opts.CellTimeout)
			defer cancelCell()
		}
		out, err = fn(cellCtx, idx, plan.Cells[idx], plan.Cells[idx].Seed(plan.Seed))
		if err != nil && cellCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = fmt.Errorf("runner: cell exceeded timeout %s: %w", opts.CellTimeout, err)
			led.CellTimeout(idx)
		}
		return out, err
	}

	// execute puts the result cache in front of runOnce. Series sampling
	// bypasses the cache both ways: a hit would replay no samples, and a
	// sampled cell's snapshot (which carries timeline_samples_total)
	// must never overwrite an unsampled entry.
	cache := opts.Cache
	if obs.seriesEnabled() {
		cache = nil
	}
	execute := func(idx int) (T, error) {
		var key string
		if cache != nil {
			cell := plan.Cells[idx]
			key = cache.key(plan.Name, cell, cell.Seed(plan.Seed), plan.Inputs)
			var e entry[T]
			// An entry without a snapshot (written by an unobserved run)
			// cannot replay metrics, so it is a miss while observing.
			if cache.get(key, &e) && (obs == nil || len(e.Metrics.Metrics) > 0) {
				led.CacheHit(idx)
				obs.record(idx, e.Metrics)
				return e.Result, nil
			}
			led.CacheMiss(idx)
		}
		out, err := runOnce(idx)
		if err != nil {
			return out, err
		}
		snap := obs.Snap(idx)
		if cache != nil {
			// A failed put only costs a future re-simulation.
			_ = cache.put(key, entry[T]{Result: out, Metrics: snap})
		}
		return out, nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil {
					continue // cancelled: drain without executing
				}
				// Host probes (wall clock, allocation delta) are gated
				// on an attached ledger so the bare path pays nothing.
				var cellStart time.Time
				var alloc0 uint64
				if led != nil {
					led.CellStart(idx, plan.Cells[idx].String(), plan.Cells[idx].Seed(plan.Seed))
					alloc0 = totalAlloc()
					cellStart = time.Now()
				}
				out, err := execute(idx)
				if led != nil {
					led.CellHost(idx, worker, time.Since(cellStart), totalAlloc()-alloc0)
					status, errText := ledger.StatusOK, ""
					if err != nil {
						errText = ledger.FirstLine(err)
						if opts.ContinueOnError {
							status = ledger.StatusQuarantined
						} else {
							status = ledger.StatusFailed
						}
					}
					led.CellFinish(idx, status, errText)
				}
				if err != nil {
					fail(idx, err)
					emit(idx, nil, err)
					continue
				}
				results[idx] = out
				emit(idx, out, nil)
			}
		}(w)
	}
	for idx := range plan.Cells {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	obs.journaled(led.EndPlan())

	mu.Lock()
	err := firstErr
	fails := failures
	mu.Unlock()
	if err != nil {
		return results, err
	}
	if cerr := parent.Err(); cerr != nil {
		return results, cerr
	}
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].Index < fails[j].Index })
		return results, &GridError{Plan: plan.Name, Total: len(plan.Cells), Failures: fails}
	}
	return results, nil
}

// totalAlloc reads the process-wide cumulative allocation counter for
// the ledger's per-cell alloc delta. With overlapping workers the
// delta attributes concurrent allocation to whichever cell is being
// bracketed — a host-annex attribution, never canonical data.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Package cli is the artifact layer of the experiment CLI,
// hpmmap-bench. It registers the six artifact flags, opens what those
// flags name, and closes it all on every exit path: a run that
// succeeds, fails, hits its -timeout or receives SIGINT/SIGTERM leaves
// the same set of files behind (partial ones for a run cut short).
//
//	-metrics     merged metric snapshot, per experiment
//	-ledger      JSONL run ledger, one per invocation
//	-trace-out   Chrome trace-event JSON, per experiment
//	-series      memory-state time-series CSV, per experiment
//	-cpuprofile  pprof CPU profile of the invocation
//	-memprofile  pprof allocation profile, taken at exit
//
// A metrics path picks its format by extension: .prom writes the
// OpenMetrics exposition, .json the JSON dump, anything else the
// Prometheus-style text format. "-" writes a per-experiment artifact to
// stdout. When one invocation emits more than one experiment, each
// per-experiment path gets the experiment name spliced in before its
// extension: metrics.prom becomes metrics-fig7.prom.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// Artifacts is one invocation's artifact set. Register it before
// flag.Parse and Start it after; hand each experiment the collector
// from Observe, Flush once the experiment's output is printed, and end
// the invocation with Done or Fatal.
type Artifacts struct {
	tool string

	metrics, ledger, trace, series string
	cpuProfile, memProfile         string

	run     Run
	led     *ledger.Ledger
	cpu     *os.File
	stop    func()
	pending []experiment
}

// experiment is a collector Observe handed out and Flush has not yet
// written.
type experiment struct {
	name string
	obs  *runner.Observations
}

// Run describes the invocation to Start.
type Run struct {
	// Meta is stamped into every plan manifest of the ledger.
	Meta ledger.Meta
	// Timeout cancels the run's context after this long (0 = never).
	Timeout time.Duration
	// Multi marks an invocation that emits more than one experiment:
	// each experiment's name is spliced into its artifact paths.
	Multi bool
	// Cache, when set, adds its corrupt-entry tally to the ledger when
	// the ledger closes.
	Cache *runner.Cache
}

// Register adds the six artifact flags to the default flag set. tool
// prefixes the messages the layer prints.
func Register(tool string) *Artifacts {
	a := &Artifacts{tool: tool}
	flag.StringVar(&a.metrics, "metrics", "", `write each experiment's merged metric snapshot to this file ("-" = stdout; .prom = OpenMetrics, .json = JSON, else text)`)
	flag.StringVar(&a.ledger, "ledger", "", "write a JSONL run ledger to this file: canonical records (manifest/cell_start/cell_finish/plan_end) plus a host annex (timings, timeouts, cache traffic); inspect with hpmmap-ledger")
	flag.StringVar(&a.trace, "trace-out", "", "write each experiment's Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.StringVar(&a.series, "series", "", "sample each cell's memory-state time series and write a long-format CSV to this file; sampling bypasses -cache-dir both ways")
	flag.StringVar(&a.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	flag.StringVar(&a.memProfile, "memprofile", "", "write a pprof allocation profile (taken at exit) to this file")
	return a
}

// Start opens the ledger and the CPU profile and returns the run's
// context, cancelled by SIGINT/SIGTERM and after r.Timeout. A file that
// cannot be created ends the invocation through Fatal.
func (a *Artifacts) Start(r Run) context.Context {
	a.run = r
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	a.stop = stop
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		a.stop = func() { cancel(); stop() }
	}
	if a.cpuProfile != "" {
		f, err := os.Create(a.cpuProfile)
		if err != nil {
			a.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			a.Fatal(err)
		}
		a.cpu = f
	}
	if a.ledger != "" {
		led, err := ledger.Open(a.ledger, r.Meta)
		if err != nil {
			a.Fatal(err)
		}
		a.led = led
	}
	if r.Cache != nil && a.trace != "" {
		fmt.Fprintf(os.Stderr, "%s: note: cells served from -cache-dir replay cached metrics but contribute no trace events\n", a.tool)
	}
	if r.Cache != nil && a.series != "" {
		fmt.Fprintf(os.Stderr, "%s: note: -series bypasses -cache-dir (sampled cells neither read nor write cache entries)\n", a.tool)
	}
	return ctx
}

// Observe returns a fresh collector for the experiment name, or nil
// when no artifact needs one. Each experiment gets its own collector,
// so cell indexes (trace pids) never collide across experiments. The
// next Flush, Done or Fatal writes its artifacts.
func (a *Artifacts) Observe(name string) *runner.Observations {
	if a.metrics == "" && a.trace == "" && a.series == "" && a.led == nil {
		return nil
	}
	obs := runner.NewObservations(0)
	if a.trace != "" {
		obs.EnableTrace()
	}
	if a.series != "" {
		obs.EnableSeries()
	}
	obs.SetLedger(a.led)
	a.pending = append(a.pending, experiment{name, obs})
	return obs
}

// Flush writes the metrics, trace and series of every collector
// Observe handed out since the last Flush, in the order it handed them
// out.
func (a *Artifacts) Flush() error {
	for len(a.pending) > 0 {
		e := a.pending[0]
		a.pending = a.pending[1:]
		outs := []struct {
			path  string
			write func(io.Writer) error
		}{
			{a.metrics, func(w io.Writer) error { return writeMetrics(w, a.metrics, e.obs.Merged()) }},
			{a.trace, e.obs.WriteTrace},
			{a.series, e.obs.WriteSeriesCSV},
		}
		for _, o := range outs {
			if o.path == "" {
				continue
			}
			if err := WriteFile(a.path(o.path, e.name), o.write); err != nil {
				return err
			}
		}
	}
	return nil
}

// Done ends a successful invocation: it writes whatever is still
// pending, closes the ledger and stops the profiles. A failure there
// exits 1.
func (a *Artifacts) Done() {
	if err := a.close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", a.tool, err)
		os.Exit(1)
	}
}

// Fatal reports err, writes what the run observed so far, closes the
// ledger, stops the profiles and exits 1: the path of a failed cell,
// an expired -timeout and SIGINT/SIGTERM alike.
func (a *Artifacts) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", a.tool, err)
	if cerr := a.close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "%s: flushing artifacts: %v\n", a.tool, cerr)
	}
	os.Exit(1)
}

// close writes the pending artifacts, closes the ledger and stops the
// profiles, attempting every step and returning the first error.
func (a *Artifacts) close() error {
	err := a.Flush()
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if a.led != nil {
		if a.run.Cache != nil {
			a.led.CacheCorrupt(a.run.Cache.CorruptCount())
		}
		keep(a.led.Close())
		a.led = nil
	}
	if a.cpu != nil {
		pprof.StopCPUProfile()
		keep(a.cpu.Close())
		a.cpu = nil
	}
	if a.memProfile != "" {
		runtime.GC() // settle the heap so the profile shows live + cumulative allocation
		keep(WriteFile(a.memProfile, pprof.WriteHeapProfile))
	}
	if a.stop != nil {
		a.stop()
	}
	return err
}

// path is where experiment name's artifact goes: base itself, or, in
// an invocation of several experiments, base with the name spliced in
// before the extension. Stdout ("-") is never spliced.
func (a *Artifacts) path(base, name string) string {
	if base == "-" || !a.run.Multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + name + ext
}

// writeMetrics writes snap in the format path's extension selects.
func writeMetrics(w io.Writer, path string, snap metrics.Snapshot) error {
	switch filepath.Ext(path) {
	case ".prom":
		return snap.WriteOpenMetrics(w)
	case ".json":
		return snap.WriteJSON(w)
	}
	return snap.WriteText(w)
}

// WriteFile creates path and fills it through write ("-" = stdout).
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

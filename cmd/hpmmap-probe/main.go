// Command hpmmap-probe runs one experiment cell and dumps internal
// diagnostics (residency mix, fault breakdown, manager counters) — a
// calibration and debugging aid. The observability flags attach the
// same instrumentation the figure pipelines use: -metrics snapshots the
// cell's registry, -trace-out writes a Chrome trace, -series samples
// the memory-state time series.
//
// A SIGINT/SIGTERM cancels the cell: whatever it observed up to the
// cancellation point is flushed to the -metrics/-trace-out/-series
// artifacts and the process exits non-zero (the hpmmap-bench contract).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/metrics"
	"hpmmap/internal/timeline"
	"hpmmap/internal/workload"
)

func main() {
	bench := flag.String("bench", "HPCCG", "benchmark")
	kind := flag.Int("kind", 0, "0=THP 1=HugeTLBfs 2=HPMMAP")
	prof := flag.Int("profile", 1, "0=none 1=A 2=B")
	ranks := flag.Int("ranks", 8, "ranks")
	seed := flag.Uint64("seed", 1, "seed")
	metricsOut := flag.String("metrics", "", `write the cell's metric snapshot to this file ("-" = stdout; .json = JSON, else text)`)
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON for the cell to this file")
	seriesOut := flag.String("series", "", "write the cell's time-series samples as CSV to this file")
	flag.Parse()

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintln(os.Stderr, "bad bench")
		os.Exit(1)
	}
	var reg *metrics.Registry
	var tracer *metrics.ChromeTracer
	var series *timeline.Series
	if *metricsOut != "" || *traceOut != "" || *seriesOut != "" {
		reg = metrics.NewRegistry()
		if *traceOut != "" {
			tracer = metrics.NewChromeTracer(0)
		}
		if *seriesOut != "" {
			series = timeline.NewSeries()
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	out, err := experiments.ExecuteSingleNode(experiments.SingleRun{
		Bench:   spec,
		Kind:    experiments.ManagerKind(*kind),
		Profile: experiments.Profile(*prof),
		Ranks:   *ranks,
		Seed:    *seed,
		Metrics: reg,
		Tracer:  tracer,
		Series:  series,
		Context: ctx,
	})
	if err != nil {
		// Interrupted or failed: flush the partial artifacts first.
		writeArtifacts(reg, tracer, series, *metricsOut, *traceOut, *seriesOut)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("runtime: %.2f s\n", out.RuntimeSec)
	fmt.Printf("compactions=%d storms=%d stormsHPC=%d merges=%d meanPressure=%.2f\n",
		out.Compactions, out.ReclaimStorms, out.StormsHPC, out.Merges, out.MeanPressure)
	for i, rr := range out.Result.Ranks {
		fmt.Printf("rank %d: runtime=%.2fs faults:", i, 2.2e-9*0+float64(rr.Runtime)/2.2e9)
		for k := 0; k < fault.NumKinds; k++ {
			if rr.Faults.Faults[k] > 0 {
				fmt.Printf(" %s=%d(%.2fs)", fault.Kind(k), rr.Faults.Faults[k], float64(rr.Faults.Cycles[k])/2.2e9)
			}
		}
		fmt.Printf(" stalls=%d\n", rr.Faults.Stalls)
		if i >= 1 {
			break
		}
	}

	writeArtifacts(reg, tracer, series, *metricsOut, *traceOut, *seriesOut)
}

// writeArtifacts flushes the cell's observability outputs. Also called
// on the error path, so an interrupted probe still leaves partial
// artifacts behind. No-op per artifact whose flag was empty.
func writeArtifacts(reg *metrics.Registry, tracer *metrics.ChromeTracer, series *timeline.Series, metricsOut, traceOut, seriesOut string) {
	emit := func(path string, write func(*os.File) error) {
		if path == "" {
			return
		}
		if path == "-" {
			must(write(os.Stdout))
			return
		}
		f, err := os.Create(path)
		must(err)
		must(write(f))
		must(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if reg != nil {
		emit(metricsOut, func(f *os.File) error {
			snap := reg.Snapshot()
			if strings.HasSuffix(metricsOut, ".json") {
				return snap.WriteJSON(f)
			}
			return snap.WriteText(f)
		})
	}
	if tracer != nil {
		emit(traceOut, func(f *os.File) error { return metrics.WriteChromeTrace(f, tracer) })
	}
	if series != nil {
		emit(seriesOut, func(f *os.File) error {
			if _, err := fmt.Fprintln(f, timeline.SeriesCSVHeader); err != nil {
				return err
			}
			return series.WriteCSV(f, "probe")
		})
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Command hpmmap-faulttrace runs the per-fault measurement studies behind
// the paper's Figures 2–5: an instrumented benchmark at micro fidelity,
// with and without a competing kernel build, under a chosen memory
// manager. It prints the fault-cost table, renders the timeline scatter,
// and optionally dumps every fault as CSV.
//
// A SIGINT/SIGTERM cancels the study: whatever the completed cells
// observed is flushed to the -metrics/-trace-out/-series artifacts and
// the process exits non-zero (the hpmmap-bench contract).
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
	"hpmmap/internal/runner"
)

func main() {
	bench := flag.String("bench", "miniMD", "benchmark: HPCCG|CoMD|miniMD|miniFE|LAMMPS")
	manager := flag.String("manager", "thp", "memory manager: thp|hugetlbfs")
	ranks := flag.Int("ranks", 8, "application ranks")
	seed := flag.Uint64("seed", 0, "simulation seed")
	scale := flag.Float64("scale", 1.0, "problem/memory scale")
	csvPath := flag.String("csv", "", "write per-fault CSV for the loaded run to this file")
	plotW := flag.Int("plot-width", 100, "scatter width")
	plotH := flag.Int("plot-height", 16, "scatter height")
	noPlot := flag.Bool("no-plot", false, "skip the timeline scatter")
	hist := flag.String("hist", "", "also print a cost histogram for this fault kind (small|large|merge|hugetlb-large|hugetlb-small)")
	metricsOut := flag.String("metrics", "", `write the study's merged metric snapshot to this file ("-" = stdout; .json = JSON, else text)`)
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON for both runs to this file")
	seriesOut := flag.String("series", "", "write per-cell time-series samples as CSV to this file")
	flag.Parse()

	var kind experiments.ManagerKind
	switch *manager {
	case "thp":
		kind = experiments.THP
	case "hugetlbfs":
		kind = experiments.HugeTLBfs
	default:
		fmt.Fprintf(os.Stderr, "unknown manager %q (hpmmap takes no faults — nothing to trace)\n", *manager)
		os.Exit(2)
	}

	var obs *runner.Observations
	if *metricsOut != "" || *traceOut != "" || *seriesOut != "" {
		obs = runner.NewObservations(0)
		if *traceOut != "" {
			obs.EnableTrace()
		}
		if *seriesOut != "" {
			obs.EnableSeries()
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fs, err := experiments.RunFaultStudy(experiments.FaultStudyOptions{
		Bench:   *bench,
		Kind:    kind,
		Ranks:   *ranks,
		Seed:    *seed,
		Scale:   experiments.Scale(*scale),
		Obs:     obs,
		Context: ctx,
	})
	if err != nil {
		// Interrupted or failed: flush whatever the completed cells
		// observed before exiting non-zero.
		writeArtifacts(obs, *metricsOut, *traceOut, *seriesOut)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	experiments.WriteFaultStudy(os.Stdout, fs)
	writeArtifacts(obs, *metricsOut, *traceOut, *seriesOut)

	if !*noPlot {
		for _, row := range fs.Rows {
			label := "no competition"
			if row.Loaded {
				label = "with kernel-build competition"
			}
			fmt.Printf("\n--- %s, %s (%d faults) ---\n", *bench, label, row.Recorder.Len())
			fmt.Print(row.Recorder.Scatter(*plotW, *plotH, true))
		}
	}

	if *hist != "" {
		kindOf := map[string]fault.Kind{
			"small": fault.KindSmall, "large": fault.KindLarge, "merge": fault.KindMergeBlocked,
			"hugetlb-large": fault.KindHugeTLBLarge, "hugetlb-small": fault.KindHugeTLBSmall,
		}
		k, ok := kindOf[*hist]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown fault kind %q\n", *hist)
			os.Exit(2)
		}
		for _, row := range fs.Rows {
			label := "no competition"
			if row.Loaded {
				label = "with competition"
			}
			fmt.Printf("\n--- %s ---\n%s", label, row.Recorder.Histogram(k, 14, 60))
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		for _, row := range fs.Rows {
			if row.Loaded {
				if err := row.Recorder.WriteCSV(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// writeArtifacts flushes the study's observability outputs: the merged
// metric snapshot (text, or JSON for .json paths; "-" = stdout), the
// Chrome trace and the time-series CSV. No-op per artifact whose flag
// was empty; nil obs means none were requested.
func writeArtifacts(obs *runner.Observations, metricsOut, traceOut, seriesOut string) {
	if obs == nil {
		return
	}
	emit := func(path string, write func(*os.File) error) {
		if path == "" {
			return
		}
		if path == "-" {
			if err := write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	emit(metricsOut, func(f *os.File) error {
		snap := obs.Merged()
		if strings.HasSuffix(metricsOut, ".json") {
			return snap.WriteJSON(f)
		}
		return snap.WriteText(f)
	})
	emit(traceOut, func(f *os.File) error { return obs.WriteTrace(f) })
	emit(seriesOut, func(f *os.File) error { return obs.WriteSeriesCSV(f) })
}

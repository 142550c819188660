// Command hpmmap-faulttrace runs the per-fault measurement studies behind
// the paper's Figures 2–5: an instrumented benchmark at micro fidelity,
// with and without a competing kernel build, under a chosen memory
// manager. It prints the fault-cost table, renders the timeline scatter,
// and optionally dumps every fault as CSV.
//
// The artifact flags every experiment CLI shares (internal/cli) record
// both runs. A SIGINT/SIGTERM cancels the study: whatever the completed
// cells observed is flushed to the artifacts and the process exits
// non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hpmmap/internal/cli"
	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/ledger"
)

func main() {
	art := cli.Register("hpmmap-faulttrace")
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
	histKind, ok := map[string]fault.Kind{
		"small": fault.KindSmall, "large": fault.KindLarge, "merge": fault.KindMergeBlocked,
		"hugetlb-large": fault.KindHugeTLBLarge, "hugetlb-small": fault.KindHugeTLBSmall,
	}[*hist]
	if *hist != "" && !ok {
		fmt.Fprintf(os.Stderr, "unknown fault kind %q\n", *hist)
		os.Exit(2)
	}

	ctx := art.Start(cli.Run{Meta: ledger.Meta{
		Model: experiments.ModelVersion, Scale: *scale,
		Flags: map[string]string{"exp": "faulttrace", "bench": *bench, "manager": *manager},
	}})
	fs, err := experiments.RunFaultStudy(experiments.FaultStudyOptions{
		Bench:   *bench,
		Kind:    kind,
		Ranks:   *ranks,
		Seed:    *seed,
		Scale:   experiments.Scale(*scale),
		Obs:     art.Observe("faulttrace"),
		Context: ctx,
	})
	if err != nil {
		art.Fatal(err)
	}
	experiments.WriteFaultStudy(os.Stdout, fs)
	if err := art.Flush(); err != nil {
		art.Fatal(err)
	}

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
		for _, row := range fs.Rows {
			label := "no competition"
			if row.Loaded {
				label = "with competition"
			}
			fmt.Printf("\n--- %s ---\n%s", label, row.Recorder.Histogram(histKind, 14, 60))
		}
	}

	if *csvPath != "" {
		err := cli.WriteFile(*csvPath, func(w io.Writer) error {
			for _, row := range fs.Rows {
				if row.Loaded {
					if err := row.Recorder.WriteCSV(w); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			art.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	art.Done()
}

// Insitu: the paper's motivating scenario — a simulation sharing its node
// with an in-situ analytics/visualization pipeline that periodically
// ingests multi-GB snapshots. Compares how each memory manager holds up
// when the commodity side pulses instead of churning steadily.
package main

import (
	"flag"
	"fmt"
	"log"

	"hpmmap"
	"hpmmap/internal/experiments"
	"hpmmap/internal/kernel"
	"hpmmap/internal/workload"
)

func main() {
	bench := flag.String("bench", "HPCCG", "simulation benchmark")
	ranks := flag.Int("ranks", 8, "simulation ranks")
	scale := flag.Float64("scale", 1.0, "problem scale")
	flag.Parse()

	fmt.Printf("%s (%d ranks) co-located with an in-situ viz pipeline\n\n", *bench, *ranks)
	fmt.Printf("%-18s %12s %14s %10s\n", "manager", "runtime (s)", "app faults", "stalls")

	for _, m := range []hpmmap.Manager{hpmmap.ManagerHPMMAP, hpmmap.ManagerTHP, hpmmap.ManagerHugeTLBfs} {
		rt, faults, stalls, err := run(*bench, m, *ranks, *scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %12.1f %14d %10d\n", string(m), rt, faults, stalls)
	}
	fmt.Println("\nThe analytics pulses saturate bandwidth for everyone, but only the")
	fmt.Println("Linux-managed applications also pay for them in the fault path.")
}

// run executes one co-located run using the internal harness directly (the
// examples live in this module, so scenarios the facade does not package
// up can reach the experiment layer).
func run(bench string, m hpmmap.Manager, ranks int, scale float64) (float64, uint64, uint64, error) {
	spec, ok := workload.ByName(bench)
	if !ok {
		return 0, 0, 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	kind := experiments.HPMMAP
	switch m {
	case hpmmap.ManagerTHP:
		kind = experiments.THP
	case hpmmap.ManagerHugeTLBfs:
		kind = experiments.HugeTLBfs
	}
	out, err := experiments.ExecuteSingleNode(experiments.SingleRun{
		Bench: spec, Kind: kind, Ranks: ranks, Seed: 99,
		Scale: experiments.Scale(scale),
		CoLocated: func(node *kernel.Node) func() {
			a := workload.StartAnalytics(node, workload.VizPipeline(), 7)
			return a.Stop
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var faults, stalls uint64
	for _, rr := range out.Result.Ranks {
		faults += rr.Faults.TotalFaults()
		stalls += rr.Faults.Stalls
	}
	return out.RuntimeSec, faults, stalls, nil
}

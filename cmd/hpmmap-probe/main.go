// Command hpmmap-probe runs one experiment cell and dumps internal
// diagnostics (residency mix, fault breakdown, manager counters) — a
// calibration and debugging aid. The artifact flags every experiment
// CLI shares (internal/cli) attach the same instrumentation the figure
// pipelines use: -metrics snapshots the cell's registry, -trace-out
// writes a Chrome trace, -series samples the memory-state time series,
// and -ledger journals the cell.
//
// A SIGINT/SIGTERM cancels the cell: whatever it observed up to the
// cancellation point is flushed to the artifacts and the process exits
// non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hpmmap/internal/cli"
	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/ledger"
	"hpmmap/internal/runner"
	"hpmmap/internal/workload"
)

func main() {
	art := cli.Register("hpmmap-probe")
	bench := flag.String("bench", "HPCCG", "benchmark")
	kind := flag.Int("kind", 0, "0=THP 1=HugeTLBfs 2=HPMMAP")
	prof := flag.Int("profile", 1, "0=none 1=A 2=B")
	ranks := flag.Int("ranks", 8, "ranks")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintln(os.Stderr, "bad bench")
		os.Exit(1)
	}
	ctx := art.Start(cli.Run{Meta: ledger.Meta{Model: experiments.ModelVersion, Flags: map[string]string{"exp": "probe"}}})

	rs := experiments.SingleRun{
		Bench:   spec,
		Kind:    experiments.ManagerKind(*kind),
		Profile: experiments.Profile(*prof),
		Ranks:   *ranks,
		Seed:    *seed,
	}
	// The cell runs through the runner so the ledger journals it, at
	// -seed itself rather than a coordinate-derived seed.
	obs := art.Observe("probe")
	plan := runner.Plan{Name: "probe", Seed: *seed, Cells: []runner.Cell{
		{Exp: "probe", Bench: *bench, Manager: rs.Kind.Key(), Cores: *ranks},
	}}
	outs, err := runner.Run(runner.Options{Workers: 1, Context: ctx, Obs: obs}, plan,
		func(ctx context.Context, idx int, cell runner.Cell, _ uint64) (experiments.RunOutcome, error) {
			r := rs
			r.Metrics, r.Tracer = obs.Cell(idx, cell.String())
			r.Series, r.Context = obs.Series(idx), ctx
			return experiments.ExecuteSingleNode(r)
		})
	if err != nil {
		art.Fatal(err)
	}
	out := outs[0]
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
	art.Done()
}

// Command hpmmap-sweep runs sensitivity sweeps over the simulator's
// calibrated parameters: it perturbs one model knob across a range and
// reports how the headline result (HPMMAP's improvement over THP and
// HugeTLBfs at 8 cores) responds. This is the ablation evidence that the
// reproduction's conclusions do not hinge on a single lucky constant.
//
// Each knob's value x manager x run grid executes as one internal/runner
// plan: -workers bounds the worker pool (0 = one per CPU), seeds derive
// from cell coordinates so the table is identical at any worker count,
// and -timeout cancels a stuck sweep. The artifact flags every
// experiment CLI shares (internal/cli) instrument each knob's plan and
// write one metrics, trace and series file per knob.
//
// Sweepable knobs:
//
//	thp-frag        THP fallback sensitivity to pressure x contention
//	reclaim-prob    per-fault direct-reclaim probability at full pressure
//	reclaim-tail    Pareto scale of a reclaim stall (cycles)
//	merge-period    khugepaged scan period (seconds)
//	store-cycles    page-clear cost per cacheline (cycles)
//	mem-latency     DRAM latency for page walks (cycles)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hpmmap/internal/cli"
	"hpmmap/internal/experiments"
	"hpmmap/internal/ledger"
	"hpmmap/internal/runner"
	"hpmmap/internal/workload"
)

type knob struct {
	name   string
	values []float64
	apply  func(*experiments.ModelOverrides, float64)
}

func knobs() []knob {
	return []knob{
		{"thp-frag", []float64{0, 0.25, 0.55, 0.9, 1.3}, func(o *experiments.ModelOverrides, v float64) { o.THPFragSensitivity = &v }},
		{"reclaim-prob", []float64{0, 0.04, 0.08, 0.16, 0.32}, func(o *experiments.ModelOverrides, v float64) { o.ReclaimProbAtFull = &v }},
		{"reclaim-tail", []float64{4e5, 8e5, 1.6e6, 3.2e6, 6.4e6}, func(o *experiments.ModelOverrides, v float64) { o.ReclaimParetoXm = &v }},
		{"merge-period", []float64{0.5, 1, 3, 10, 30}, func(o *experiments.ModelOverrides, v float64) { o.KhugepagedPeriodSec = &v }},
		{"store-cycles", []float64{5, 8, 10, 14, 20}, func(o *experiments.ModelOverrides, v float64) { o.StoreCycles = &v }},
		{"mem-latency", []float64{100, 140, 180, 240, 320}, func(o *experiments.ModelOverrides, v float64) { o.MemLatency = &v }},
	}
}

// sweepManagers is the fixed manager axis of every sweep row.
var sweepManagers = []experiments.ManagerKind{
	experiments.HPMMAP, experiments.THP, experiments.HugeTLBfs,
}

func main() {
	art := cli.Register("hpmmap-sweep")
	which := flag.String("knob", "all", "knob to sweep (or 'all')")
	bench := flag.String("bench", "HPCCG", "benchmark")
	profile := flag.Int("profile", 2, "commodity profile: 1=A 2=B")
	runs := flag.Int("runs", 2, "runs per point")
	scale := flag.Float64("scale", 1.0, "problem scale")
	seed := flag.Uint64("seed", 4242, "base seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU; table identical at any count)")
	timeout := flag.Duration("timeout", 0, "cancel the sweep after this long (0 = none)")
	verbose := flag.Bool("v", false, "per-cell progress with ETA on stderr")
	flag.Parse()

	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	prof := experiments.Profile(*profile)

	// SIGINT/SIGTERM cancels the running plan: in-flight cells observe
	// the cancellation and the sweep exits non-zero. Knob tables printed
	// before the signal have already been flushed to stdout, and so
	// have their artifacts (one set per knob, the knob's name spliced in
	// when every knob is swept).
	ctx := art.Start(cli.Run{
		Meta: ledger.Meta{
			Model: experiments.ModelVersion,
			Scale: *scale,
			Flags: map[string]string{"exp": "sweep", "knob": *which, "bench": *bench},
		},
		Timeout: *timeout,
		Multi:   *which == "all",
	})
	opts := runner.Options{Workers: *workers, Context: ctx}
	if *verbose {
		// Serialized sink: the runner never overlaps invocations, so
		// writing to stderr without locking is safe.
		opts.Progress = func(e runner.Event) { fmt.Fprintf(os.Stderr, "%s\n", e) }
	}

	for _, k := range knobs() {
		if *which != "all" && *which != k.name {
			continue
		}
		// One plan per knob: values x managers x runs, every cell
		// independent. Seeds derive from the cell coordinates (the knob
		// value is the Variant axis), never from execution order.
		plan := runner.Plan{Name: "sweep-" + k.name, Seed: *seed}
		var vals []float64
		for _, v := range k.values {
			for _, kind := range sweepManagers {
				for r := 0; r < *runs; r++ {
					plan.Cells = append(plan.Cells, runner.Cell{
						Exp: "sweep", Bench: *bench, Profile: prof.String(),
						Manager: kind.Key(), Variant: fmt.Sprintf("%s=%g", k.name, v),
						Cores: 8, Run: r,
					})
					vals = append(vals, v)
				}
			}
		}
		obs := art.Observe(k.name)
		opts.Obs = obs
		secs, err := runner.Run(opts, plan, func(ctx context.Context, idx int, cell runner.Cell, cellSeed uint64) (float64, error) {
			var o experiments.ModelOverrides
			k.apply(&o, vals[idx])
			var kind experiments.ManagerKind
			for _, mk := range sweepManagers {
				if mk.Key() == cell.Manager {
					kind = mk
				}
			}
			reg, tr := obs.Cell(idx, cell.String())
			out, err := experiments.ExecuteSingleNodeWithOverrides(experiments.SingleRun{
				Bench: spec, Kind: kind, Profile: prof, Ranks: cell.Cores,
				Seed: cellSeed, Scale: experiments.Scale(*scale), Context: ctx,
				Metrics: reg, Tracer: tr, Series: obs.Series(idx),
			}, o)
			if err != nil {
				return 0, err
			}
			return out.RuntimeSec, nil
		})
		if err != nil {
			art.Fatal(err)
		}

		// Reduce in declaration order: mean per (value, manager).
		fmt.Printf("=== sweep %s (%s, profile %s, 8 cores) ===\n", k.name, *bench, prof)
		fmt.Printf("%12s %12s %12s %14s %12s %14s\n",
			k.name, "hpmmap (s)", "thp (s)", "vs thp", "htlb (s)", "vs hugetlbfs")
		i := 0
		for _, v := range k.values {
			means := make(map[experiments.ManagerKind]float64, len(sweepManagers))
			for _, kind := range sweepManagers {
				var sum float64
				for r := 0; r < *runs; r++ {
					sum += secs[i]
					i++
				}
				means[kind] = sum / float64(*runs)
			}
			hp := means[experiments.HPMMAP]
			th := means[experiments.THP]
			ht := means[experiments.HugeTLBfs]
			fmt.Printf("%12.3g %12.1f %12.1f %+13.1f%% %12.1f %+13.1f%%\n",
				v, hp, th, 100*(th-hp)/th, ht, 100*(ht-hp)/ht)
		}
		fmt.Println()
		if err := art.Flush(); err != nil {
			art.Fatal(err)
		}
	}
	art.Done()
}

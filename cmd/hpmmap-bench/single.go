package main

// The single-node calibration studies: -exp probe, faulttrace and
// sweep. None of them uses -cache-dir: the probe and the fault study
// are never cached, and the sweep's plan carries no Inputs, so a cache
// would replay cells across -scale.

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"os"

	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/kernel"
	"hpmmap/internal/runner"
	"hpmmap/internal/workload"
)

// The values -manager, -profile and -hist take, in the order a
// rejected value lists them.
var (
	managerChoices = []experiments.ManagerKind{experiments.THP, experiments.HugeTLBfs, experiments.HPMMAP}
	profileChoices = []experiments.Profile{experiments.ProfileNone, experiments.ProfileA, experiments.ProfileB}
	histChoices    = []fault.Kind{fault.KindSmall, fault.KindLarge, fault.KindMergeBlocked, fault.KindHugeTLBLarge, fault.KindHugeTLBSmall}
)

// knob is one calibrated constant the sweep perturbs.
type knob struct {
	name   string
	values []float64
	apply  func(*experiments.ModelOverrides, float64)
}

// knobs are the sweep's -knob values besides "all":
//
//	thp-frag        THP fallback sensitivity to pressure x contention
//	reclaim-prob    per-fault direct-reclaim probability at full pressure
//	reclaim-tail    Pareto scale of a reclaim stall (cycles)
//	merge-period    khugepaged scan period (seconds)
//	store-cycles    page-clear cost per cacheline (cycles)
//	mem-latency     DRAM latency for page walks (cycles)
var knobs = []knob{
	{"thp-frag", []float64{0, 0.25, 0.55, 0.9, 1.3}, func(o *experiments.ModelOverrides, v float64) { o.THPFragSensitivity = &v }},
	{"reclaim-prob", []float64{0, 0.04, 0.08, 0.16, 0.32}, func(o *experiments.ModelOverrides, v float64) { o.ReclaimProbAtFull = &v }},
	{"reclaim-tail", []float64{4e5, 8e5, 1.6e6, 3.2e6, 6.4e6}, func(o *experiments.ModelOverrides, v float64) { o.ReclaimParetoXm = &v }},
	{"merge-period", []float64{0.5, 1, 3, 10, 30}, func(o *experiments.ModelOverrides, v float64) { o.KhugepagedPeriodSec = &v }},
	{"store-cycles", []float64{5, 8, 10, 14, 20}, func(o *experiments.ModelOverrides, v float64) { o.StoreCycles = &v }},
	{"mem-latency", []float64{100, 140, 180, 240, 320}, func(o *experiments.ModelOverrides, v float64) { o.MemLatency = &v }},
}

// sweepManagers is the fixed manager axis of every sweep row.
var sweepManagers = []experiments.ManagerKind{
	experiments.HPMMAP, experiments.THP, experiments.HugeTLBfs,
}

// runProbe drives one calibration cell (-exp probe) and prints its
// diagnostics: runtime, manager counters (compactions, reclaim storms,
// khugepaged merges, mean pressure) and the fault breakdown of the
// first two ranks. Defaults: HPCCG, 8 ranks, profile A, seed 1.
func runProbe(a studyArgs) error {
	bench := cmp.Or(a.bench(), "HPCCG")
	spec, _ := workload.ByName(bench) // -bench is checked before anything runs
	rs := experiments.SingleRun{
		Bench: spec, Kind: a.kind, Profile: a.profileOr(experiments.ProfileA),
		Ranks: cmp.Or(a.ranks(), 8), Seed: cmp.Or(a.seed, 1), Scale: a.scale,
	}
	// The cell runs through the runner so the ledger journals it, at
	// the seed itself rather than a coordinate-derived seed.
	plan := runner.Plan{Name: "probe", Seed: rs.Seed, Cells: []runner.Cell{
		{Exp: "probe", Bench: bench, Manager: rs.Kind.Key(), Cores: rs.Ranks},
	}}
	outs, err := runner.Run(runner.Options{Workers: 1, Context: a.ctx, Obs: a.obs}, plan,
		func(ctx context.Context, idx int, cell runner.Cell, _ uint64) (experiments.RunOutcome, error) {
			return experiments.ExecuteSingleNode(rs.InCell(ctx, a.obs, idx, cell))
		})
	if err != nil {
		return err
	}
	out, mc := outs[0], kernel.DellR415()
	fmt.Printf("runtime: %.2f s\n", out.RuntimeSec)
	fmt.Printf("compactions=%d storms=%d stormsHPC=%d merges=%d meanPressure=%.2f\n",
		out.Compactions, out.ReclaimStorms, out.StormsHPC, out.Merges, out.MeanPressure)
	for i, rr := range out.Result.Ranks[:min(2, len(out.Result.Ranks))] {
		fmt.Printf("rank %d: runtime=%.2fs faults:", i, mc.Seconds(float64(rr.Runtime)))
		for k := 0; k < fault.NumKinds; k++ {
			if rr.Faults.Faults[k] > 0 {
				fmt.Printf(" %s=%d(%.2fs)", fault.Kind(k), rr.Faults.Faults[k], mc.Seconds(float64(rr.Faults.Cycles[k])))
			}
		}
		fmt.Printf(" stalls=%d\n", rr.Faults.Stalls)
	}
	return nil
}

// runFaultTrace drives the per-fault study behind Figs. 2–5 for any
// benchmark and the THP or HugeTLBfs manager (-exp faulttrace): the
// instrumented benchmark at micro fidelity, with and without a
// competing kernel build. It prints the fault-cost table, each load
// condition's timeline scatter (-plot-height 0 skips them) and, with
// -hist, one fault kind's cost histogram; -out also writes the loaded
// run's faults as faulttrace.csv.
func runFaultTrace(a studyArgs) error {
	o := a.faultStudy()
	o.Bench, o.Kind, o.Ranks = a.bench(), a.kind, a.ranks()
	fs, err := experiments.RunFaultStudy(o)
	if err != nil {
		return err
	}
	experiments.WriteFaultStudy(os.Stdout, fs)
	if a.plotH > 0 {
		for _, row := range fs.Rows {
			label := "no competition"
			if row.Loaded {
				label = "with kernel-build competition"
			}
			fmt.Printf("\n--- %s, %s (%d faults) ---\n", fs.Bench, label, row.Recorder.Len())
			fmt.Print(row.Recorder.Scatter(a.plotW, a.plotH, true))
		}
	}
	if a.hist != nil {
		for _, row := range fs.Rows {
			label := "no competition"
			if row.Loaded {
				label = "with competition"
			}
			fmt.Printf("\n--- %s ---\n%s", label, row.Recorder.Histogram(*a.hist, 14, 60))
		}
	}
	return writeOut(a.outDir, "faulttrace.csv", func(w io.Writer) error {
		for _, row := range fs.Rows {
			if row.Loaded {
				if err := row.Recorder.WriteCSV(w); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// runSweep drives the sensitivity sweeps (-exp sweep): each -knob
// perturbs one calibrated constant across a range and reports how the
// headline result, HPMMAP's improvement over THP and HugeTLBfs,
// responds — the evidence that the reproduction's conclusions do
// not hinge on one lucky constant. Every selected knob's value x
// manager x run grid runs as one runner plan, "sweep", whose seeds
// derive from the cell coordinates (the knob and its value are the
// Variant axis), so each table is identical at any -workers and
// whichever knobs run beside it. Defaults: HPCCG, 8 ranks, profile B,
// 2 runs, seed 4242.
func runSweep(a studyArgs) error {
	bench := cmp.Or(a.bench(), "HPCCG")
	spec, _ := workload.ByName(bench) // -bench is checked before anything runs
	ranks := cmp.Or(a.ranks(), 8)
	prof := a.profileOr(experiments.ProfileB)
	runs := cmp.Or(a.runs, 2)
	plan := runner.Plan{Name: "sweep", Seed: cmp.Or(a.seed, 4242)}
	var sets []func(*experiments.ModelOverrides)
	var kinds []experiments.ManagerKind
	for _, k := range a.knobs {
		for _, v := range k.values {
			for _, kind := range sweepManagers {
				for r := 0; r < runs; r++ {
					plan.Cells = append(plan.Cells, runner.Cell{
						Exp: "sweep", Bench: bench, Profile: prof.String(),
						Manager: kind.Key(), Variant: fmt.Sprintf("%s=%g", k.name, v),
						Cores: ranks, Run: r,
					})
					sets = append(sets, func(o *experiments.ModelOverrides) { k.apply(o, v) })
					kinds = append(kinds, kind)
				}
			}
		}
	}
	opts := runner.Options{
		Workers: a.workers, Context: a.ctx, Obs: a.obs,
		Progress: func(e runner.Event) { a.progress(e.String()) },
	}
	secs, err := runner.Run(opts, plan, func(ctx context.Context, idx int, cell runner.Cell, cellSeed uint64) (float64, error) {
		rs := experiments.SingleRun{
			Bench: spec, Kind: kinds[idx], Profile: prof, Ranks: cell.Cores,
			Seed: cellSeed, Scale: a.scale,
		}
		sets[idx](&rs.Overrides)
		out, err := experiments.ExecuteSingleNode(rs.InCell(ctx, a.obs, idx, cell))
		return out.RuntimeSec, err
	})
	if err != nil {
		return err
	}

	// Reduce in declaration order: mean per (knob, value, manager).
	i := 0
	for _, k := range a.knobs {
		fmt.Printf("=== sweep %s (%s, profile %s, %d cores) ===\n", k.name, bench, prof, ranks)
		fmt.Printf("%12s %12s %12s %14s %12s %14s\n",
			k.name, "hpmmap (s)", "thp (s)", "vs thp", "htlb (s)", "vs hugetlbfs")
		for _, v := range k.values {
			means := make(map[experiments.ManagerKind]float64, len(sweepManagers))
			for _, kind := range sweepManagers {
				var sum float64
				for r := 0; r < runs; r++ {
					sum += secs[i]
					i++
				}
				means[kind] = sum / float64(runs)
			}
			hp := means[experiments.HPMMAP]
			th := means[experiments.THP]
			ht := means[experiments.HugeTLBfs]
			fmt.Printf("%12.3g %12.1f %12.1f %+13.1f%% %12.1f %+13.1f%%\n",
				v, hp, th, 100*(th-hp)/th, ht, 100*(ht-hp)/ht)
		}
		fmt.Println()
	}
	return nil
}

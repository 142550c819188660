package hpmmap

import (
	"context"
	"fmt"

	"hpmmap/internal/experiments"
	"hpmmap/internal/runner"
	"hpmmap/internal/trace"
	"hpmmap/internal/workload"
)

// BenchmarkOptions configures one measured application run, mirroring the
// paper's experimental setup.
type BenchmarkOptions struct {
	// Benchmark: "HPCCG", "CoMD", "miniMD", "miniFE" or "LAMMPS".
	Benchmark string
	// Manager configuration (default ManagerHPMMAP).
	Manager Manager
	// Profile of competing commodity work: "none", "A", "B" (single
	// node), "C", "D" (cluster). Default "none". A fault study runs
	// its own two load conditions and rejects any Profile.
	Profile string
	// Ranks of the weak-scaled MPI application.
	Ranks int
	Seed  uint64
	// Scale shrinks the problem and machine together for quick runs
	// (1.0 = paper size).
	Scale float64
	// Workers bounds the experiment runner's worker pool. A single
	// benchmark run is one cell, so this matters only for grid-shaped
	// consumers; it is passed through to the executor unchanged.
	Workers int
	// Context, when non-nil, cancels the simulation mid-run (polled
	// every few tens of thousands of simulated events).
	Context context.Context
}

// BenchmarkResult reports a completed run.
type BenchmarkResult struct {
	RuntimeSeconds float64
	// Faults aggregates all ranks.
	Faults FaultReport
	// MeanPressure is the time-averaged memory pressure during the run.
	MeanPressure float64
}

func managerKind(m Manager) (experiments.ManagerKind, error) {
	switch m {
	case "", ManagerHPMMAP:
		return experiments.HPMMAP, nil
	case ManagerTHP:
		return experiments.THP, nil
	case ManagerHugeTLBfs:
		return experiments.HugeTLBfs, nil
	}
	return 0, fmt.Errorf("hpmmap: unknown manager %q", m)
}

func profileOf(p string) (experiments.Profile, error) {
	switch p {
	case "", "none":
		return experiments.ProfileNone, nil
	case "A", "a":
		return experiments.ProfileA, nil
	case "B", "b":
		return experiments.ProfileB, nil
	case "C", "c":
		return experiments.ProfileC, nil
	case "D", "d":
		return experiments.ProfileD, nil
	}
	return 0, fmt.Errorf("hpmmap: unknown profile %q", p)
}

// RunBenchmark executes one single-node benchmark run (the unit of the
// paper's Figure 7) at the benchmark's base input. Ranks defaults to 1.
func RunBenchmark(o BenchmarkOptions) (BenchmarkResult, error) {
	if o.Ranks == 0 {
		o.Ranks = 1
	}
	return runBenchmark(o, "bench", experiments.ExecuteSingleNode)
}

// RunClusterBenchmark executes one multi-node run at the benchmark's
// base input: 4 ranks per node on the 8-node Sandia testbed model.
// Figure 8 runs larger cluster inputs, so this is not one of its cells.
func RunClusterBenchmark(o BenchmarkOptions) (BenchmarkResult, error) {
	return runBenchmark(o, "cluster", experiments.ExecuteCluster)
}

// runBenchmark routes one facade benchmark run on rig through the
// experiment runner: a single-cell plan named exp on the bounded
// executor, so the facade gets the same context cancellation, panic
// containment and seed derivation as the figure harnesses. Seed opens
// the cell's deterministic substream (same options, same result).
func runBenchmark(o BenchmarkOptions, exp string, rig func(experiments.SingleRun) (experiments.RunOutcome, error)) (BenchmarkResult, error) {
	spec, ok := workload.ByName(o.Benchmark)
	if !ok {
		return BenchmarkResult{}, fmt.Errorf("hpmmap: unknown benchmark %q", o.Benchmark)
	}
	kind, err := managerKind(o.Manager)
	if err != nil {
		return BenchmarkResult{}, err
	}
	prof, err := profileOf(o.Profile)
	if err != nil {
		return BenchmarkResult{}, err
	}
	plan := runner.Plan{Name: exp, Seed: o.Seed, Cells: []runner.Cell{{
		Exp: exp, Bench: o.Benchmark, Profile: prof.String(),
		Manager: kind.Key(), Cores: o.Ranks,
	}}}
	outs, err := runner.Run(runner.Options{Workers: o.Workers, Context: o.Context}, plan,
		func(ctx context.Context, _ int, _ runner.Cell, seed uint64) (experiments.RunOutcome, error) {
			return rig(experiments.SingleRun{
				Bench:   spec,
				Kind:    kind,
				Profile: prof,
				Ranks:   o.Ranks,
				Seed:    seed,
				Scale:   experiments.Scale(o.Scale),
				Context: ctx,
			})
		})
	if err != nil {
		return BenchmarkResult{}, err
	}
	res := BenchmarkResult{RuntimeSeconds: outs[0].RuntimeSec, MeanPressure: outs[0].MeanPressure}
	for _, rr := range outs[0].Result.Ranks {
		r := reportOf(rr.Faults)
		res.Faults.Faults += r.Faults
		res.Faults.Cycles += r.Cycles
		res.Faults.Stalls += r.Stalls
	}
	return res, nil
}

// FaultStudyRow is one load condition of a fault-cost study.
type FaultStudyRow struct {
	Loaded bool
	// Kinds maps fault-kind name to (count, avg cycles, stdev cycles).
	Kinds map[string]FaultKindStats
}

// FaultKindStats summarizes one fault kind.
type FaultKindStats struct {
	Count       uint64
	AvgCycles   float64
	StdevCycles float64
}

// RunFaultStudy reproduces the per-fault measurement of the paper's
// Figures 2 and 3 for the given manager, with and without a competing
// kernel build. It is shorthand for RunFaultStudyOptions with only the
// core knobs set.
func RunFaultStudy(benchmark string, m Manager, seed uint64, scale float64) ([]FaultStudyRow, error) {
	return RunFaultStudyOptions(BenchmarkOptions{
		Benchmark: benchmark, Manager: m, Seed: seed, Scale: scale,
	})
}

// RunFaultStudyOptions is RunFaultStudy with full executor control: the
// study's load conditions run as cells of an internal/runner plan, so
// Workers bounds the worker pool (<= 0 selects runtime.NumCPU(); results
// are identical at any worker count) and Context cancels the study
// mid-simulation. Ranks defaults to the paper's 8. Profile must be
// empty: the study runs its own two load conditions.
func RunFaultStudyOptions(o BenchmarkOptions) ([]FaultStudyRow, error) {
	if o.Profile != "" {
		return nil, fmt.Errorf("hpmmap: a fault study runs without load and with a kernel build; Profile %q is not accepted", o.Profile)
	}
	kind, err := managerKind(o.Manager)
	if err != nil {
		return nil, err
	}
	fs, err := experiments.RunFaultStudy(experiments.FaultStudyOptions{
		Bench:   o.Benchmark,
		Kind:    kind,
		Ranks:   o.Ranks,
		Seed:    o.Seed,
		Scale:   experiments.Scale(o.Scale),
		Workers: o.Workers,
		Context: o.Context,
	})
	if err != nil {
		return nil, err
	}
	var rows []FaultStudyRow
	for _, row := range fs.Rows {
		r := FaultStudyRow{Loaded: row.Loaded, Kinds: map[string]FaultKindStats{}}
		for _, s := range row.Summaries {
			r.Kinds[s.Kind.String()] = FaultKindStats{Count: s.Count, AvgCycles: s.AvgCycles, StdevCycles: s.StdevCycles}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Timeline returns the ASCII fault-timeline scatter for a benchmark under
// a manager (the paper's Figures 4–5 medium).
func Timeline(benchmark string, m Manager, loaded bool, seed uint64, scale float64, width, height int) (string, error) {
	kind, err := managerKind(m)
	if err != nil {
		return "", err
	}
	fs, err := experiments.RunFaultStudy(experiments.FaultStudyOptions{
		Bench: benchmark,
		Kind:  kind,
		Seed:  seed,
		Scale: experiments.Scale(scale),
	})
	if err != nil {
		return "", err
	}
	var rec *trace.Recorder
	for _, row := range fs.Rows {
		if row.Loaded == loaded {
			rec = row.Recorder
		}
	}
	if rec == nil {
		return "", fmt.Errorf("hpmmap: no matching study row")
	}
	return rec.Scatter(width, height, true), nil
}

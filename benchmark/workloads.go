package main

import (
	"bytes"

	"hpmmap/internal/experiments"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// workload is one set of inputs the benchmark runs: a call into the
// public experiments entry points with options generated from a seed.
type workload struct {
	name string
	// defaultSeed is the experiment's own default seed; -seed overrides it.
	defaultSeed uint64
	why         string
	// run calls the entry point(s) once. Each entry call gets its own
	// collector (so cell indexes never collide across plans), made by obs.
	run func(in input) (output, error)
}

// input is everything a workload's simulation receives.
type input struct {
	seed    uint64
	workers int
	// reduced shrinks the grid for the smoke test; timed reps never set it.
	reduced bool
	// obs returns a fresh collector for one entry call.
	obs func() *runner.Observations
	// progress receives the runner's per-cell progress lines.
	progress func(string)
	// enter is called immediately before each entry call and exit
	// immediately after it, so the caller can bracket the simulation.
	enter, exit func()
}

// output is what one rep produced.
type output struct {
	cells int
	// report is the rendered figure or study table.
	report []byte
	// snap is the merged metric snapshot of every entry call.
	snap metrics.Snapshot
}

// The four workloads. Each stresses a different layer, so that a change
// to one layer moves one workload and leaves the others alone (see
// README.md for the prediction table). Fig. 8 is left out: its CPU goes
// to the same mem and kernel paths as fig7-grid.
var workloads = []workload{
	{
		name:        "fig7-grid",
		defaultSeed: 0x7e57,
		why:         "The headline figure: kernel-build page-cache churn through the zone free lists and buddy paths (mem and kernel layers).",
		run:         runFig7,
	},
	{
		name:        "faultstudy",
		defaultSeed: 0xfa01,
		why:         "Figs. 2 and 3 at micro fidelity: page-table range walks dominate while page-cache and free-list work is nearly absent.",
		run:         runFaultStudy,
	},
	{
		name:        "datacenter-churn",
		defaultSeed: 0xdc7a,
		why:         "Pod fork/exit churn: lifecycle and pool traffic with the most engine events and Go allocations per second.",
		run:         runDatacenter,
	},
	{
		name:        "chaos-audit",
		defaultSeed: 0xc4a05,
		why:         "The invariant auditor reads the free lists that fig7-grid writes; it is off in every other workload.",
		run:         runChaosAudit,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// call brackets one entry call with in.enter/in.exit.
func call(in input, fn func() error) error {
	in.enter()
	defer in.exit()
	return fn()
}

func runFig7(in input) (output, error) {
	o := experiments.Fig7Options{
		Benches:    []string{"miniMD"},
		Profiles:   []experiments.Profile{experiments.ProfileA, experiments.ProfileB},
		CoreCounts: []int{1, 2},
		Managers:   []experiments.ManagerKind{experiments.HPMMAP, experiments.THP, experiments.HugeTLBfs},
		Runs:       2,
		Scale:      0.25,
		Seed:       in.seed,
		Workers:    in.workers,
		Progress:   in.progress,
		Obs:        in.obs(),
	}
	if in.reduced {
		o.Runs, o.Scale = 1, 0.02
	}
	out := output{cells: len(o.Benches) * len(o.Profiles) * len(o.CoreCounts) * len(o.Managers) * o.Runs}
	var panels []experiments.Fig7Panel
	err := call(in, func() (err error) {
		panels, err = experiments.Fig7(o)
		return err
	})
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	experiments.WriteFig7(&buf, panels)
	out.report, out.snap = buf.Bytes(), o.Obs.Merged()
	return out, nil
}

func runFaultStudy(in input) (output, error) {
	o := experiments.FaultStudyOptions{
		Ranks:    8,
		Scale:    0.75,
		Seed:     in.seed,
		Workers:  in.workers,
		Progress: in.progress,
	}
	if in.reduced {
		o.Scale = 0.05
	}
	// Each study is one bench under two load conditions: two cells.
	out := output{cells: 4}
	var buf bytes.Buffer
	var snaps []metrics.Snapshot
	for _, fig := range []func(experiments.FaultStudyOptions) (experiments.FaultStudy, error){experiments.Fig2, experiments.Fig3} {
		o.Obs = in.obs()
		var fs experiments.FaultStudy
		err := call(in, func() (err error) {
			fs, err = fig(o)
			return err
		})
		if err != nil {
			return out, err
		}
		experiments.WriteFaultStudy(&buf, fs)
		snaps = append(snaps, o.Obs.Merged())
	}
	out.report, out.snap = buf.Bytes(), metrics.Merge(snaps...)
	return out, nil
}

func runDatacenter(in input) (output, error) {
	o := experiments.DatacenterStudyOptions{
		Churns:      []float64{0, 50, 200},
		Intensities: []float64{0, 0.75},
		Ranks:       2,
		Runs:        4,
		Scale:       0.25,
		Seed:        in.seed,
		Workers:     in.workers,
		Progress:    in.progress,
		Obs:         in.obs(),
	}
	if in.reduced {
		o.Runs = 1
	}
	out := output{cells: len(o.Churns) * len(o.Intensities) * o.Runs}
	var s experiments.DatacenterStudy
	err := call(in, func() (err error) {
		s, err = experiments.DatacenterStudyRun(o)
		return err
	})
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	experiments.WriteDatacenterStudy(&buf, s)
	out.report, out.snap = buf.Bytes(), o.Obs.Merged()
	return out, nil
}

func runChaosAudit(in input) (output, error) {
	o := experiments.ChaosStudyOptions{
		Managers:    []experiments.ManagerKind{experiments.HPMMAP, experiments.THP, experiments.HugeTLBfs},
		Intensities: []float64{1},
		Cores:       2,
		Runs:        2,
		Scale:       0.05,
		Audit:       true,
		Seed:        in.seed,
		Workers:     in.workers,
		Progress:    in.progress,
		Obs:         in.obs(),
	}
	if in.reduced {
		o.Runs, o.Scale = 1, 0.02
	}
	out := output{cells: len(o.Managers) * len(o.Intensities) * o.Runs}
	var s experiments.ChaosStudy
	err := call(in, func() (err error) {
		s, err = experiments.ChaosStudyRun(o)
		return err
	})
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	experiments.WriteChaosStudy(&buf, s)
	out.report, out.snap = buf.Bytes(), o.Obs.Merged()
	return out, nil
}

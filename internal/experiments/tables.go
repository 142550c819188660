package experiments

import (
	"context"
	"fmt"

	"hpmmap/internal/fault"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
	"hpmmap/internal/trace"
	"hpmmap/internal/workload"
)

// FaultStudyRow is one load condition of a Figure 2/3-style table.
type FaultStudyRow struct {
	Loaded    bool
	Summaries []trace.KindSummary
	Recorder  *trace.Recorder
	// Metrics is the row's registry snapshot, populated when the study
	// ran with FaultStudyOptions.Obs. Its fault_* counters cover exactly
	// the recorder's population, so fault_small_faults_total etc.
	// byte-match the table counts derived from Summaries.
	Metrics metrics.Snapshot
}

// FaultStudy is the per-fault measurement study behind Figures 2–5: the
// instrumented benchmark runs at micro fidelity, with and without a
// competing kernel build, capturing every fault of rank 0.
type FaultStudy struct {
	Bench string
	Kind  ManagerKind
	Rows  []FaultStudyRow
}

// FaultStudyOptions configures a fault study run.
type FaultStudyOptions struct {
	Bench string // default miniMD (the paper's subject for Figs. 2–4)
	Kind  ManagerKind
	Ranks int // default 8
	Seed  uint64
	Scale Scale
	// Workers bounds the worker pool running the study's load conditions
	// (and, for Fig5, its benchmarks) in parallel; <= 0 selects
	// runtime.NumCPU(). Results are identical at any worker count.
	Workers int
	// Context, when non-nil, cancels the study.
	Context context.Context
	// Progress receives one line per completed cell from the runner's
	// serialized sink (calls never overlap).
	Progress func(string)
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events (see OBSERVABILITY.md). Fault studies are never
	// cached, so every cell contributes both metrics and trace.
	Obs *runner.Observations
}

func (o *FaultStudyOptions) defaults() {
	if o.Bench == "" {
		o.Bench = "miniMD"
	}
	if o.Ranks == 0 {
		o.Ranks = 8
	}
	if o.Seed == 0 {
		o.Seed = 0xfa01
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
}

// studyProfiles are the two load conditions of every fault study.
var studyProfiles = []Profile{ProfileNone, ProfileA}

// faultStudies runs the benches × {no load, profile A} grid at micro
// fidelity through the runner and reduces it into one study per bench.
func faultStudies(o FaultStudyOptions, benches []string) ([]FaultStudy, error) {
	specs := make(map[string]workload.AppSpec, len(benches))
	for _, bench := range benches {
		spec, ok := workload.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
		}
		specs[bench] = spec
	}
	plan := runner.Plan{Name: "faultstudy", Seed: o.Seed}
	var profs []Profile
	for _, bench := range benches {
		for _, prof := range studyProfiles {
			plan.Cells = append(plan.Cells, runner.Cell{
				Exp: "faultstudy", Bench: bench, Profile: prof.String(),
				Manager: o.Kind.Key(), Cores: o.Ranks, Run: 0,
			})
			profs = append(profs, prof)
		}
	}
	recs, err := runner.Run(runner.Options{
		Workers:  o.Workers,
		Context:  o.Context,
		Progress: progressLines[any](o.Progress, nil),
		Obs:      o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (*trace.Recorder, error) {
		rec := trace.NewRecorder()
		_, err := ExecuteSingleNode(SingleRun{
			Bench:    specs[cell.Bench],
			Kind:     o.Kind,
			Profile:  profs[idx],
			Ranks:    o.Ranks,
			Seed:     seed,
			Detail:   true,
			Scale:    o.Scale,
			Recorder: rec,
		}.InCell(ctx, o.Obs, idx, cell))
		if err != nil {
			return nil, err
		}
		return rec, nil
	})
	if err != nil {
		return nil, fmt.Errorf("faultstudy: %w", err)
	}
	var out []FaultStudy
	i := 0
	for _, bench := range benches {
		fs := FaultStudy{Bench: bench, Kind: o.Kind}
		for _, prof := range studyProfiles {
			fs.Rows = append(fs.Rows, FaultStudyRow{
				Loaded:    prof != ProfileNone,
				Summaries: recs[i].Summarize(),
				Recorder:  recs[i],
				Metrics:   o.Obs.Snap(i), // captured by the runner at the cell's end
			})
			i++
		}
		out = append(out, fs)
	}
	return out, nil
}

// RunFaultStudy executes the study under no load and under profile A.
func RunFaultStudy(o FaultStudyOptions) (FaultStudy, error) {
	o.defaults()
	studies, err := faultStudies(o, []string{o.Bench})
	if err != nil {
		return FaultStudy{}, err
	}
	return studies[0], nil
}

// Fig2 reproduces the paper's Figure 2: THP fault-handling cycles for
// miniMD, with and without added load. Bench and Kind in o are
// overridden; Seed, Scale, Workers, Context and Progress apply.
func Fig2(o FaultStudyOptions) (FaultStudy, error) {
	o.Bench, o.Kind = "", THP
	return RunFaultStudy(o)
}

// Fig3 reproduces Figure 3: the same study under HugeTLBfs.
func Fig3(o FaultStudyOptions) (FaultStudy, error) {
	o.Bench, o.Kind = "", HugeTLBfs
	return RunFaultStudy(o)
}

// Timeline is one fault-scatter plot (Figures 4 and 5).
type Timeline struct {
	Title    string
	Recorder *trace.Recorder
}

// Fig4 reproduces Figure 4: the THP fault timeline for miniMD without
// (a) and with (b) competition, plus the lower-quarter zooms (c) and (d).
func Fig4(o FaultStudyOptions) ([]Timeline, error) {
	fs, err := Fig2(o)
	if err != nil {
		return nil, err
	}
	var out []Timeline
	labels := []string{"(a) No Competition", "(b) With Competition"}
	for i, row := range fs.Rows {
		out = append(out, Timeline{Title: labels[i], Recorder: row.Recorder})
	}
	// Lower-quarter views: drop records above 1/4 of the max cost.
	zoomLabels := []string{"(c) No Competition (lower quarter)", "(d) With Competition (lower quarter)"}
	for i, row := range fs.Rows {
		out = append(out, Timeline{Title: zoomLabels[i], Recorder: lowerQuarter(row.Recorder)})
	}
	return out, nil
}

func lowerQuarter(r *trace.Recorder) *trace.Recorder {
	var max uint64
	r.Each(func(rec fault.Record) {
		if uint64(rec.Cost) > max {
			max = uint64(rec.Cost)
		}
	})
	out := trace.NewRecorder()
	r.Each(func(rec fault.Record) {
		if uint64(rec.Cost) <= max/4 {
			out.Record(rec)
		}
	})
	return out
}

// fig5Benches are the paper's Figure 5 subjects.
var fig5Benches = []string{"HPCCG", "CoMD", "miniFE"}

// Fig5 reproduces Figure 5: HugeTLBfs fault timelines for HPCCG, CoMD and
// miniFE, each without (top row) and with (bottom row) kernel-build
// competition. All six cells execute as one runner plan.
func Fig5(o FaultStudyOptions) ([]Timeline, error) {
	o.Bench, o.Kind = "", HugeTLBfs
	o.defaults()
	studies, err := faultStudies(o, fig5Benches)
	if err != nil {
		return nil, err
	}
	var out []Timeline
	for _, fs := range studies {
		for _, row := range fs.Rows {
			label := fmt.Sprintf("%s, no competition", fs.Bench)
			if row.Loaded {
				label = fmt.Sprintf("%s, with kernel-build competition", fs.Bench)
			}
			out = append(out, Timeline{Title: label, Recorder: row.Recorder})
		}
	}
	return out, nil
}

// SummaryFor extracts the per-kind summary for one fault kind from a
// study row, reporting ok=false when the kind never occurred.
func SummaryFor(row FaultStudyRow, k fault.Kind) (trace.KindSummary, bool) {
	for _, s := range row.Summaries {
		if s.Kind == k {
			return s, true
		}
	}
	return trace.KindSummary{}, false
}

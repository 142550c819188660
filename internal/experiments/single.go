package experiments

import (
	"context"
	"fmt"

	"hpmmap/internal/runner"
	"hpmmap/internal/stats"
	"hpmmap/internal/workload"
)

// Fig7Options configures a weak-scaling study: Fig. 7 on one node or
// Fig. 8 on the cluster. Zero axes and a zero seed take the figure's
// defaults.
type Fig7Options struct {
	Benches  []string
	Profiles []Profile
	// CoreCounts is the x axis: cores on one node (Fig. 7), total ranks
	// at 4 per node on the cluster (Fig. 8).
	CoreCounts []int
	Managers   []ManagerKind
	Runs       int // default: 10, as in the paper
	Seed       uint64
	Scale      Scale
	// Progress receives one line per completed cell. Thread-safety
	// contract: it is invoked from the runner's serialized progress sink,
	// so calls never overlap even at Workers > 1 and the callback may
	// write to unsynchronized state (a terminal, a plain counter).
	Progress func(string)
	// Workers bounds the parallel worker pool dispatching the grid's
	// cells; <= 0 selects runtime.NumCPU(). Results are byte-identical
	// at any worker count: every cell's seed derives from its grid
	// coordinates, never from execution order.
	Workers int
	// Context, when non-nil, cancels the study (first error or
	// cancellation stops the remaining cells).
	Context context.Context
	// Cache, when non-nil, memoizes per-cell results so reports can be
	// regenerated without re-simulating unchanged cells. The runner owns
	// the protocol and keys each cell by its coordinates, seed, scale
	// and the model version (runner.Options.Cache).
	Cache *runner.Cache
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events (see OBSERVABILITY.md). Cached cells replay the
	// snapshot they stored; an entry written by an unobserved run has
	// none, so its cell is re-simulated to capture one. Traces are never
	// cached: a cache-hit cell contributes metrics but no trace events.
	Obs *runner.Observations
}

// defaults fills o's zero axes and seed from d, and its zero Runs and
// Scale with the paper's 10 runs at full size.
func (o *Fig7Options) defaults(d Fig7Options) {
	if len(o.Benches) == 0 {
		o.Benches = d.Benches
	}
	if len(o.Profiles) == 0 {
		o.Profiles = d.Profiles
	}
	if len(o.CoreCounts) == 0 {
		o.CoreCounts = d.CoreCounts
	}
	if len(o.Managers) == 0 {
		o.Managers = d.Managers
	}
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
}

// Fig7Point is one (cores, manager) cell, (ranks, manager) in Fig. 8:
// mean ± stdev over the runs.
type Fig7Point struct {
	Cores    int
	MeanSec  float64
	StdevSec float64
	Runs     []float64
}

// Fig7Series is one manager's curve in one panel.
type Fig7Series struct {
	Kind   ManagerKind
	Points []Fig7Point
}

// Fig7Panel is one subplot: a benchmark under a profile.
type Fig7Panel struct {
	Bench   string
	Profile Profile
	Series  []Fig7Series
}

// runtimeCell is the cached/reduced unit of one Fig. 7, Fig. 8 or
// chaos-study run.
type runtimeCell struct {
	RuntimeSec float64 `json:"runtime_sec"`
}

// runtimeSuffix is the progress-line suffix of a runtimeCell.
func runtimeSuffix(c runtimeCell) string { return fmt.Sprintf(": %.1f s", c.RuntimeSec) }

// progressLines adapts a func(string) progress option onto the runner's
// serialized event sink. suffix, when non-nil, renders a completed
// cell's result after the event line; failed cells get no suffix.
func progressLines[T any](p func(string), suffix func(T) string) func(runner.Event) {
	if p == nil {
		return nil
	}
	return func(e runner.Event) {
		msg := e.String()
		if r, ok := e.Result.(T); ok && suffix != nil {
			msg += suffix(r)
		}
		p(msg)
	}
}

// weakScaling is what tells Figs. 7 and 8 apart: the plan name, the
// defaults, the benchmark input and the rig. Everything else — the
// grid, the cell function and the reducer — is runWeakScaling's.
type weakScaling struct {
	// name is the plan name, the cells' Exp and the error prefix.
	name     string
	defaults Fig7Options
	// work scales a benchmark's base input (AppSpec.ScaleWork; a factor
	// of 1 leaves it as it is).
	work func(bench string) float64
	// rig runs one cell: ExecuteSingleNode or ExecuteCluster.
	rig func(SingleRun) (RunOutcome, error)
}

// Fig7 runs the single-node experiments of the paper's Figure 7: each
// benchmark in weak-scaling mode on 1, 2, 4 and 8 cores, under commodity
// profiles A and B, for each memory manager, averaging the given number
// of runs.
func Fig7(o Fig7Options) ([]Fig7Panel, error) {
	return runWeakScaling(o, weakScaling{
		name: "fig7",
		defaults: Fig7Options{
			Benches:    []string{"HPCCG", "CoMD", "miniMD", "miniFE"},
			Profiles:   []Profile{ProfileA, ProfileB},
			CoreCounts: []int{1, 2, 4, 8},
			Managers:   []ManagerKind{HPMMAP, THP, HugeTLBfs},
			Seed:       0x7e57,
		},
		work: func(string) float64 { return 1 },
		rig:  ExecuteSingleNode,
	})
}

// runWeakScaling runs the grid o.Benches × o.Profiles × o.Managers ×
// o.CoreCounts × o.Runs on g's rig and reduces it to one panel per
// (bench, profile), in that order. The grid executes as one runner
// plan: independent cells on a bounded worker pool with
// coordinate-derived seeds, so the panels are identical at any Workers
// setting.
func runWeakScaling(o Fig7Options, g weakScaling) ([]Fig7Panel, error) {
	o.defaults(g.defaults)
	specs := make(map[string]workload.AppSpec, len(o.Benches))
	for _, bench := range o.Benches {
		spec, ok := workload.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
		}
		specs[bench] = spec.ScaleWork(g.work(bench))
	}

	type cellMeta struct {
		prof Profile
		kind ManagerKind
	}
	plan := runner.Plan{Name: g.name, Seed: o.Seed, Inputs: fmt.Sprintf("scale=%g", o.Scale)}
	var metas []cellMeta
	for _, bench := range o.Benches {
		for _, prof := range o.Profiles {
			for _, kind := range o.Managers {
				for _, cores := range o.CoreCounts {
					for run := 0; run < o.Runs; run++ {
						plan.Cells = append(plan.Cells, runner.Cell{
							Exp: g.name, Bench: bench, Profile: prof.String(),
							Manager: kind.Key(), Cores: cores, Run: run,
						})
						metas = append(metas, cellMeta{prof: prof, kind: kind})
					}
				}
			}
		}
	}

	results, err := runner.Run(runner.Options{
		Workers:  o.Workers,
		Context:  o.Context,
		Progress: progressLines(o.Progress, runtimeSuffix),
		Cache:    o.Cache,
		Obs:      o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (runtimeCell, error) {
		reg, tr := o.Obs.Cell(idx, cell.String())
		out, err := g.rig(SingleRun{
			Bench:   specs[cell.Bench],
			Kind:    metas[idx].kind,
			Profile: metas[idx].prof,
			Ranks:   cell.Cores,
			Seed:    seed,
			Scale:   o.Scale,
			Metrics: reg,
			Tracer:  tr,
			Context: ctx,
			Series:  o.Obs.Series(idx),
		})
		if err != nil {
			return runtimeCell{}, err
		}
		return runtimeCell{RuntimeSec: out.RuntimeSec}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.name, err)
	}

	// Reduce in declaration order (results are indexed by cell position,
	// independent of completion order).
	var panels []Fig7Panel
	i := 0
	for _, bench := range o.Benches {
		for _, prof := range o.Profiles {
			panel := Fig7Panel{Bench: bench, Profile: prof}
			for _, kind := range o.Managers {
				series := Fig7Series{Kind: kind}
				for _, cores := range o.CoreCounts {
					var sample stats.Sample
					var runs []float64
					for run := 0; run < o.Runs; run++ {
						cc := results[i]
						i++
						sample.Add(cc.RuntimeSec)
						runs = append(runs, cc.RuntimeSec)
					}
					series.Points = append(series.Points, Fig7Point{
						Cores:    cores,
						MeanSec:  sample.Mean(),
						StdevSec: sample.Stdev(),
						Runs:     runs,
					})
				}
				panel.Series = append(panel.Series, series)
			}
			panels = append(panels, panel)
		}
	}
	return panels, nil
}

// MeanImprovement computes, across a set of panels, the average relative
// improvement of manager a over manager b (the paper's "HPMMAP improves
// performance by 15% over THP" style summary).
func MeanImprovement(panels []Fig7Panel, a, b ManagerKind) float64 {
	var sum float64
	var n int
	for _, p := range panels {
		var sa, sb *Fig7Series
		for i := range p.Series {
			switch p.Series[i].Kind {
			case a:
				sa = &p.Series[i]
			case b:
				sb = &p.Series[i]
			}
		}
		if sa == nil || sb == nil {
			continue
		}
		for i := range sa.Points {
			if i >= len(sb.Points) || sb.Points[i].MeanSec == 0 {
				continue
			}
			sum += stats.RelativeImprovement(sa.Points[i].MeanSec, sb.Points[i].MeanSec)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// PointFor extracts one cell from a panel set.
func PointFor(panels []Fig7Panel, bench string, prof Profile, kind ManagerKind, cores int) (Fig7Point, bool) {
	for _, p := range panels {
		if p.Bench != bench || p.Profile != prof {
			continue
		}
		for _, s := range p.Series {
			if s.Kind != kind {
				continue
			}
			for _, pt := range s.Points {
				if pt.Cores == cores {
					return pt, true
				}
			}
		}
	}
	return Fig7Point{}, false
}

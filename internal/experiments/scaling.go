package experiments

import (
	"context"
	"fmt"

	"hpmmap/internal/cluster"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
	"hpmmap/internal/sim"
	"hpmmap/internal/stats"
	"hpmmap/internal/timeline"
	"hpmmap/internal/workload"
)

// clusterWorkFactor sizes the per-rank input for the 8-node study. The
// paper maximizes memory utilization on the 24GB nodes (20GB offlined);
// LAMMPS runs a smaller production input (its Figure 8 runtimes are
// ~130–150s).
func clusterWorkFactor(bench string) float64 {
	switch bench {
	case "HPCCG":
		return 3.3
	case "miniFE":
		return 3.2
	case "LAMMPS":
		return 1.55
	}
	return 3.0
}

// ClusterRun describes one run of the scaling study.
type ClusterRun struct {
	Bench   workload.AppSpec
	Kind    ManagerKind
	Profile Profile // C or D
	Ranks   int     // 4, 8, 16 or 32; 4 per node
	Seed    uint64
	Scale   Scale
	// Metrics, when non-nil, receives the run's counters/gauges/
	// histograms (see OBSERVABILITY.md). Per-node subsystems register
	// additively; engine-level sim_* metrics register once.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives Chrome trace events keyed by
	// simulated cycles.
	Tracer *metrics.ChromeTracer
	// Context, when non-nil, cancels the simulation mid-run.
	Context context.Context
	// Series, when non-nil, samples every node's standard probe set at a
	// quarter-second simulated cadence. Unlike the single-node path
	// (which piggybacks on a pre-existing diagnostic ticker), the cluster
	// rig has no such ticker, so attaching a Series schedules one extra
	// periodic event stream — sim_events_total changes, everything else
	// is byte-identical (the -audit precedent).
	Series *timeline.Series
	// Attribution, when non-nil, attributes barrier lateness per rank,
	// including the communication model's nominal cost and signed jitter
	// delta. Pure accounting; no events, no PRNG draws.
	Attribution *timeline.Attribution
}

// ExecuteCluster performs one multi-node run: ranks/4 nodes, 4 app cores
// per node (2 per NUMA zone), the per-node commodity profile, and the
// 1GbE BSP communication model.
func ExecuteCluster(rs ClusterRun) (RunOutcome, error) {
	if rs.Scale == 0 {
		rs.Scale = 1
	}
	const ranksPerNode = 4
	nodes := rs.Ranks / ranksPerNode
	if nodes == 0 {
		nodes = 1
	}
	if rs.Ranks%ranksPerNode != 0 {
		return RunOutcome{}, fmt.Errorf("experiments: ranks %d not a multiple of %d", rs.Ranks, ranksPerNode)
	}
	cr, err := newClusterRig(nodes, rs.Kind, rs.Seed, rs.Scale)
	if err != nil {
		return RunOutcome{}, err
	}
	rs.Tracer.SetClock(cr.cl.Nodes[0].Config().ClockHz)
	for _, rg := range cr.rigs {
		rg.observe(rs.Metrics, rs.Tracer)
	}
	cr.cl.Observe(rs.Metrics)
	observeEngine(rs.Metrics, cr.eng)
	if rs.Series != nil {
		for i, rg := range cr.rigs {
			wireSeries(rs.Series, i, rg)
		}
		rs.Series.Observe(rs.Metrics, rs.Tracer)
		sampler := cr.eng.NewTicker(sim.Cycles(cr.cl.Nodes[0].Config().ClockHz/4), func() {
			rs.Series.Sample(uint64(cr.eng.Now()))
		})
		defer sampler.Stop()
	}
	rs.Attribution.Observe(rs.Metrics)
	if rs.Attribution != nil {
		cr.cl.SetAccounts(rs.Attribution.Rank)
	}
	// 2 ranks per NUMA zone on the 8-core Xeons: cores 0,1 (zone 0) and
	// 4,5 (zone 1).
	perZone := cr.cl.Nodes[0].NumCores() / cr.cl.Nodes[0].Config().NumaZones
	cores := []int{0, 1, perZone, perZone + 1}
	placement, err := cluster.BlockPlacement(rs.Ranks, ranksPerNode, cores)
	if err != nil {
		return RunOutcome{}, err
	}
	spec := scaleSpec(rs.Bench, rs.Scale)

	// Start the per-node commodity profile.
	var builds []*workload.Build
	for i, node := range cr.cl.Nodes {
		builds = append(builds, startProfile(node, rs.Profile, ranksPerNode, rs.Seed+uint64(i)*31337)...)
	}

	placements := cr.cl.Placements(placement, func(nodeIdx int) workload.Launcher {
		return cr.rigs[nodeIdx].launcher()
	})
	var res workload.Result
	done := false
	_, err = workload.Start(cr.eng, workload.Options{
		Spec:        spec,
		Ranks:       placements,
		CommDelay:   cr.cl.CommDelay(spec, placement),
		Metrics:     rs.Metrics,
		Tracer:      rs.Tracer,
		Attribution: rs.Attribution,
	}, func(got workload.Result) {
		res = got
		for _, b := range builds {
			b.Stop()
		}
		done = true
	})
	if err != nil {
		return RunOutcome{}, err
	}
	if err := runToCompletion(rs.Context, cr.eng, &done); err != nil {
		return RunOutcome{}, err
	}
	if res.Err != nil {
		return RunOutcome{}, res.Err
	}
	return RunOutcome{
		RuntimeSec: cr.cl.Nodes[0].Config().Seconds(float64(res.Runtime)),
		Result:     res,
	}, nil
}

// Fig8Options configures the scaling study.
type Fig8Options struct {
	Benches  []string  // default: HPCCG, miniFE, LAMMPS
	Profiles []Profile // default: C, D
	Managers []ManagerKind
	Ranks    []int // default: 4, 8, 16, 32
	Runs     int   // default: 10
	Seed     uint64
	Scale    Scale
	// Progress receives one line per completed cell, from the runner's
	// serialized sink: calls never overlap even at Workers > 1, so the
	// callback may write to unsynchronized state.
	Progress func(string)
	// Workers bounds the parallel worker pool; <= 0 selects
	// runtime.NumCPU(). Panels are byte-identical at any worker count.
	Workers int
	// Context, when non-nil, cancels the study.
	Context context.Context
	// Cache, when non-nil, memoizes per-cell results through the runner
	// (see Fig7Options.Cache).
	Cache *runner.Cache
	// Obs, when non-nil, collects per-cell metric snapshots and Chrome
	// trace events; cached cells replay their snapshots (see
	// Fig7Options.Obs and OBSERVABILITY.md).
	Obs *runner.Observations
}

func (o *Fig8Options) defaults() {
	if len(o.Benches) == 0 {
		o.Benches = []string{"HPCCG", "miniFE", "LAMMPS"}
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []Profile{ProfileC, ProfileD}
	}
	if len(o.Managers) == 0 {
		// HugeTLBfs was unavailable in the cluster's kernel config.
		o.Managers = []ManagerKind{HPMMAP, THP}
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{4, 8, 16, 32}
	}
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 0x5ca1e
	}
}

// Fig8Point is one (ranks, manager) cell.
type Fig8Point struct {
	Ranks    int
	MeanSec  float64
	StdevSec float64
	Runs     []float64
}

// Fig8Series is one manager's curve.
type Fig8Series struct {
	Kind   ManagerKind
	Points []Fig8Point
}

// Fig8Panel is one subplot: a benchmark under profile C or D.
type Fig8Panel struct {
	Bench   string
	Profile Profile
	Series  []Fig8Series
}

// Fig8 runs the 8-node scaling study of the paper's Figure 8: HPCCG,
// miniFE and LAMMPS at 4–32 ranks (4 per node) with per-node kernel-build
// interference, HPMMAP versus THP. The grid executes as one runner plan:
// independent cells on a bounded worker pool with coordinate-derived
// seeds, byte-identical at any Workers setting.
func Fig8(o Fig8Options) ([]Fig8Panel, error) {
	o.defaults()
	specs := make(map[string]workload.AppSpec, len(o.Benches))
	for _, bench := range o.Benches {
		base, ok := workload.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", bench)
		}
		specs[bench] = base.ScaleWork(clusterWorkFactor(bench))
	}

	type cellMeta struct {
		prof Profile
		kind ManagerKind
	}
	plan := runner.Plan{Name: "fig8", Seed: o.Seed, Inputs: fmt.Sprintf("scale=%g", o.Scale)}
	var metas []cellMeta
	for _, bench := range o.Benches {
		for _, prof := range o.Profiles {
			for _, kind := range o.Managers {
				for _, ranks := range o.Ranks {
					for run := 0; run < o.Runs; run++ {
						plan.Cells = append(plan.Cells, runner.Cell{
							Exp: "fig8", Bench: bench, Profile: prof.String(),
							Manager: kind.Key(), Cores: ranks, Run: run,
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
		out, err := ExecuteCluster(ClusterRun{
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
		return nil, fmt.Errorf("fig8: %w", err)
	}

	var panels []Fig8Panel
	i := 0
	for _, bench := range o.Benches {
		for _, prof := range o.Profiles {
			panel := Fig8Panel{Bench: bench, Profile: prof}
			for _, kind := range o.Managers {
				series := Fig8Series{Kind: kind}
				for _, ranks := range o.Ranks {
					var sample stats.Sample
					var runs []float64
					for run := 0; run < o.Runs; run++ {
						cc := results[i]
						i++
						sample.Add(cc.RuntimeSec)
						runs = append(runs, cc.RuntimeSec)
					}
					series.Points = append(series.Points, Fig8Point{
						Ranks:    ranks,
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

// Fig8Improvement returns HPMMAP's relative gain over THP at the given
// rank count for one panel.
func Fig8Improvement(p Fig8Panel, ranks int) float64 {
	var hp, th float64
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Ranks != ranks {
				continue
			}
			switch s.Kind {
			case HPMMAP:
				hp = pt.MeanSec
			case THP:
				th = pt.MeanSec
			}
		}
	}
	return stats.RelativeImprovement(hp, th)
}

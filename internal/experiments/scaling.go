package experiments

import (
	"fmt"

	"hpmmap/internal/cluster"
	"hpmmap/internal/sim"
	"hpmmap/internal/stats"
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

// ExecuteCluster performs one multi-node run: ranks/4 nodes (Ranks a
// multiple of 4), 4 app cores per node (2 per NUMA zone), the per-node
// commodity profile (C or D), and the 1GbE BSP communication model. The
// cluster rig has no micro fidelity, chaos, auditor, pod agent, model
// overrides or co-located work, and rejects a run that asks for any.
// Every node's subsystems register into Metrics additively; the
// engine-level sim_* metrics register once. Unlike the single-node
// rig, which piggybacks Series sampling on a pre-existing diagnostic
// ticker, the cluster has no such ticker, so attaching a Series
// schedules one extra periodic event stream: sim_events_total changes,
// everything else is byte-identical (the -audit precedent).
func ExecuteCluster(rs SingleRun) (RunOutcome, error) {
	if rs.Detail || rs.Recorder != nil || rs.Chaos != nil || rs.Audit || rs.Datacenter != nil ||
		rs.Overrides != (ModelOverrides{}) || rs.CoLocated != nil {
		return RunOutcome{}, fmt.Errorf("experiments: the cluster rig runs no micro fidelity, chaos, audit, pod agent, model overrides or co-located work")
	}
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

// Fig8 runs the 8-node scaling study of the paper's Figure 8: Fig. 7's
// grid on the cluster rig. HPCCG, miniFE and LAMMPS run their cluster
// inputs (clusterWorkFactor) at 4–32 ranks (4 per node) with per-node
// kernel-build interference, HPMMAP versus THP.
func Fig8(o Fig7Options) ([]Fig7Panel, error) {
	return runWeakScaling(o, weakScaling{
		name: "fig8",
		defaults: Fig7Options{
			Benches:    []string{"HPCCG", "miniFE", "LAMMPS"},
			Profiles:   []Profile{ProfileC, ProfileD},
			CoreCounts: []int{4, 8, 16, 32},
			// HugeTLBfs was unavailable in the cluster's kernel config.
			Managers: []ManagerKind{HPMMAP, THP},
			Seed:     0x5ca1e,
		},
		work: clusterWorkFactor,
		rig:  ExecuteCluster,
	})
}

// Fig8Improvement returns HPMMAP's relative gain over THP at the given
// rank count for one panel.
func Fig8Improvement(p Fig7Panel, ranks int) float64 {
	var hp, th float64
	for _, s := range p.Series {
		for _, pt := range s.Points {
			if pt.Cores != ranks {
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

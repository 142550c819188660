package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hpmmap/internal/chaos"
	"hpmmap/internal/datacenter"
	"hpmmap/internal/kernel"
	"hpmmap/internal/runner"
	"hpmmap/internal/sim"
	"hpmmap/internal/timeline"
	"hpmmap/internal/workload"
)

// The datacenter study restates the paper's isolation claim at
// orchestration scale (ROADMAP item 2): one mixed-tenancy node runs a
// resident HPC victim on HPMMAP while a kubelet-style agent churns
// short-lived THP / HugeTLBfs / HPMMAP pods against per-zone hugepage
// budgets, with the chaos injector optionally storming the commodity
// side. The grid sweeps churn rate × chaos intensity; every cell
// tabulates per-class tail fault latency (p50/p99/p999 of the 2MB-slice
// first-touch cost) and the victim's runtime interference relative to
// the quiet cell. The paper's prediction carries over: the Linux-backed
// classes' tails stretch with churn and chaos while the HPMMAP class —
// faulting never, allocating from offlined pools — stays flat.

// DatacenterStudyOptions configures the datacenter churn study.
type DatacenterStudyOptions struct {
	// Bench is the resident HPC victim (default HPCCG, the
	// communication-lightest kernel — interference is attributable to
	// memory management, not the network).
	Bench string
	// Churns is the pod-arrival sweep axis in pods per simulated second
	// (default 0, 50, 200). 0 must come first: it is the interference
	// baseline.
	Churns []float64
	// Intensities is the chaos sweep axis (default 0, 0.75).
	Intensities []float64
	// Ranks is the victim's rank count (default 4).
	Ranks int
	// Runs per (churn, intensity) point (default 1).
	Runs  int
	Seed  uint64
	Scale Scale
	// Pod shape overrides; zero fields keep datacenter.DefaultConfig.
	PodBytes      uint64
	ResidentBytes uint64
	// Progress receives one line per completed cell (serialized sink).
	Progress func(string)
	Workers  int
	Context  context.Context
	// Cache, when non-nil, memoizes per-cell results through the runner,
	// keyed by the cell's coordinates and seed plus Scale, Audit and the
	// pod shape overrides (see Fig7Options.Cache).
	Cache *runner.Cache
	// Obs, when non-nil, collects per-cell metric snapshots, Chrome
	// trace events and (EnableSeries) time series; cached cells replay
	// their snapshots (see Fig7Options.Obs).
	Obs *runner.Observations
	// Audit attaches the invariant auditor to every cell's node.
	Audit bool
	// CellTimeout bounds one cell's wall clock (0 = none).
	CellTimeout time.Duration
	// Retries re-runs cell failures marked runner.Transient (see
	// runner.Options.Retries; no simulation error is transient).
	Retries int
}

func (o *DatacenterStudyOptions) defaults() {
	if o.Bench == "" {
		o.Bench = "HPCCG"
	}
	if len(o.Churns) == 0 {
		o.Churns = []float64{0, 50, 200}
	}
	if len(o.Intensities) == 0 {
		o.Intensities = []float64{0, 0.75}
	}
	if o.Ranks == 0 {
		o.Ranks = 4
	}
	if o.Runs == 0 {
		o.Runs = 1
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 0xdc7a
	}
}

// DatacenterClassStats is one tenant class's tail table in one cell.
type DatacenterClassStats struct {
	// Slices counts 2MB first-touch slices observed.
	Slices uint64 `json:"slices"`
	// P50/P99/P999 are log2-bucket upper bounds of the slice fault
	// service time, in cycles.
	P50  uint64 `json:"p50"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`
	// MmapP50 is the median per-mmap system-call cost, in cycles.
	MmapP50 uint64 `json:"mmap_p50"`
}

// DatacenterCell is one (churn, intensity, run) cell, reduced to the
// values the study tables need (and caches).
type DatacenterCell struct {
	RuntimeSec float64                                     `json:"runtime_sec"`
	Classes    [datacenter.NumClasses]DatacenterClassStats `json:"classes"`
	Launched   uint64                                      `json:"launched"`
	Rejected   uint64                                      `json:"rejected"`
	Completed  uint64                                      `json:"completed"`
	OOMKilled  uint64                                      `json:"oom_killed"`
	// Barriers and DominantCause summarize the victim's barrier
	// critical-path attribution for the cell.
	Barriers      int    `json:"barriers"`
	DominantCause string `json:"dominant_cause"`
}

// DatacenterPoint aggregates one (churn, intensity) grid point.
type DatacenterPoint struct {
	Churn     float64
	Intensity float64
	// Cells holds the point's runs in run order.
	Cells []DatacenterCell
	// MeanSec is the mean victim runtime; InterferencePct is its
	// increase relative to the quiet (churn 0, intensity 0) point.
	MeanSec         float64
	InterferencePct float64
}

// DatacenterStudy is the full grid.
type DatacenterStudy struct {
	Bench  string
	Ranks  int
	Points []DatacenterPoint
}

// datacenterVariant encodes the sweep coordinate into the cell Variant
// axis (and therefore the seed derivation and the cache key).
func datacenterVariant(churn, intensity float64) string {
	return fmt.Sprintf("c%g-i%g", churn, intensity)
}

// DatacenterStudyRun executes the churn × chaos grid on the
// mixed-tenancy configuration. Results are byte-identical at any worker
// count, cold or warm cache.
func DatacenterStudyRun(o DatacenterStudyOptions) (DatacenterStudy, error) {
	o.defaults()
	spec, ok := workload.ByName(o.Bench)
	if !ok {
		return DatacenterStudy{}, fmt.Errorf("experiments: unknown benchmark %q", o.Bench)
	}

	type cellMeta struct {
		churn     float64
		intensity float64
	}
	plan := runner.Plan{Name: "datacenter", Seed: o.Seed,
		Inputs: fmt.Sprintf("scale=%g audit=%t pod=%d resident=%d", o.Scale, o.Audit, o.PodBytes, o.ResidentBytes)}
	var metas []cellMeta
	for _, churn := range o.Churns {
		for _, x := range o.Intensities {
			for run := 0; run < o.Runs; run++ {
				plan.Cells = append(plan.Cells, runner.Cell{
					Exp: "datacenter", Bench: o.Bench, Profile: ProfileNone.String(),
					Manager: Mixed.Key(), Variant: datacenterVariant(churn, x),
					Cores: o.Ranks, Run: run,
				})
				metas = append(metas, cellMeta{churn: churn, intensity: x})
			}
		}
	}

	clockHz := kernel.DellR415().ClockHz

	results, err := runner.Run(runner.Options{
		Workers: o.Workers,
		Context: o.Context,
		Progress: progressLines(o.Progress, func(c DatacenterCell) string {
			return fmt.Sprintf(": %.1f s, %d pods", c.RuntimeSec, c.Launched)
		}),
		CellTimeout: o.CellTimeout,
		Retries:     o.Retries,
		Metrics:     o.Obs.PlanRegistry(),
		Cache:       o.Cache,
		Obs:         o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (DatacenterCell, error) {
		reg, tr := o.Obs.Cell(idx, cell.String())
		dcCfg := datacenter.DefaultConfig()
		if metas[idx].churn > 0 {
			dcCfg.ChurnMeanPeriod = sim.Cycles(clockHz / metas[idx].churn)
		} else {
			dcCfg.ChurnMeanPeriod = 0
		}
		if o.PodBytes > 0 {
			dcCfg.PodBytes = o.PodBytes
		}
		if o.ResidentBytes > 0 {
			dcCfg.ResidentBytes = o.ResidentBytes
		}
		var inj *chaos.Injector
		if metas[idx].intensity > 0 {
			inj = chaos.New(chaos.DefaultConfig(metas[idx].intensity), seed)
		}
		attr := timeline.NewAttribution(o.Ranks)
		out, err := ExecuteSingleNode(SingleRun{
			Bench:       spec,
			Kind:        Mixed,
			Profile:     ProfileNone,
			Ranks:       o.Ranks,
			Seed:        seed,
			Scale:       o.Scale,
			Metrics:     reg,
			Tracer:      tr,
			Context:     ctx,
			Chaos:       inj,
			Audit:       o.Audit,
			Series:      o.Obs.Series(idx),
			Attribution: attr,
			Datacenter:  &dcCfg,
		})
		if err != nil {
			return DatacenterCell{}, err
		}
		dc := DatacenterCell{RuntimeSec: out.RuntimeSec}
		if a := out.Datacenter; a != nil {
			dc.Launched = a.LaunchedTotal()
			dc.Rejected = a.Rejected
			dc.Completed = a.Completed
			dc.OOMKilled = a.OOMKilled
			for c := datacenter.Class(0); c < datacenter.NumClasses; c++ {
				dc.Classes[c] = DatacenterClassStats{
					Slices:  a.TouchHist[c].Count(),
					P50:     a.TouchHist[c].Quantile(0.50),
					P99:     a.TouchHist[c].Quantile(0.99),
					P999:    a.TouchHist[c].Quantile(0.999),
					MmapP50: a.MmapHist[c].Quantile(0.50),
				}
			}
		}
		sum := attr.Summarize()
		dc.Barriers = sum.Barriers
		if cause, ok := sum.DominantCause(); ok {
			dc.DominantCause = cause.String()
		}
		return dc, nil
	})
	if err != nil {
		return DatacenterStudy{}, fmt.Errorf("datacenter study: %w", err)
	}

	study := DatacenterStudy{Bench: o.Bench, Ranks: o.Ranks}
	i := 0
	var baseMean float64
	for _, churn := range o.Churns {
		for _, x := range o.Intensities {
			pt := DatacenterPoint{Churn: churn, Intensity: x}
			var sum float64
			for run := 0; run < o.Runs; run++ {
				pt.Cells = append(pt.Cells, results[i])
				sum += results[i].RuntimeSec
				i++
			}
			pt.MeanSec = sum / float64(o.Runs)
			if churn == 0 && x == 0 {
				baseMean = pt.MeanSec
			} else if baseMean > 0 {
				pt.InterferencePct = (pt.MeanSec - baseMean) / baseMean * 100
			}
			study.Points = append(study.Points, pt)
		}
	}
	return study, nil
}

// WriteDatacenterStudy renders the per-cell tail-latency and
// interference table. Deterministic.
func WriteDatacenterStudy(w io.Writer, s DatacenterStudy) {
	fmt.Fprintf(w, "=== Datacenter study: %s victim, %d ranks, mixed tenancy, churn × chaos ===\n", s.Bench, s.Ranks)
	for _, pt := range s.Points {
		fmt.Fprintf(w, "\n-- churn %g pods/s, chaos %.2f: runtime %.1f s", pt.Churn, pt.Intensity, pt.MeanSec)
		if !(pt.Churn == 0 && pt.Intensity == 0) {
			fmt.Fprintf(w, " (%+.1f%% vs quiet)", pt.InterferencePct)
		}
		fmt.Fprintln(w)
		for _, c := range pt.Cells {
			fmt.Fprintf(w, "   pods: %d launched, %d rejected, %d completed, %d oom-killed",
				c.Launched, c.Rejected, c.Completed, c.OOMKilled)
			if c.DominantCause != "" {
				fmt.Fprintf(w, "; dominant barrier cause: %s (%d barriers)", c.DominantCause, c.Barriers)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "   %-11s %8s %12s %12s %12s %10s\n", "class", "slices", "p50", "p99", "p999", "mmap p50")
			for cl := datacenter.Class(0); cl < datacenter.NumClasses; cl++ {
				st := c.Classes[cl]
				fmt.Fprintf(w, "   %-11s %8d %12d %12d %12d %10d\n",
					cl, st.Slices, st.P50, st.P99, st.P999, st.MmapP50)
			}
		}
	}
}

// WriteDatacenterCSV renders the study as one CSV row per (point, run,
// class) for downstream tooling. Deterministic.
func WriteDatacenterCSV(w io.Writer, s DatacenterStudy) error {
	if _, err := fmt.Fprintln(w, "churn_pods_per_sec,chaos_intensity,run,class,slices,p50_cycles,p99_cycles,p999_cycles,mmap_p50_cycles,runtime_sec,interference_pct,pods_launched,pods_rejected,pods_completed,pods_oom_killed"); err != nil {
		return err
	}
	for _, pt := range s.Points {
		for run, c := range pt.Cells {
			for cl := datacenter.Class(0); cl < datacenter.NumClasses; cl++ {
				st := c.Classes[cl]
				if _, err := fmt.Fprintf(w, "%g,%g,%d,%s,%d,%d,%d,%d,%d,%.3f,%.2f,%d,%d,%d,%d\n",
					pt.Churn, pt.Intensity, run, cl, st.Slices, st.P50, st.P99, st.P999, st.MmapP50,
					c.RuntimeSec, pt.InterferencePct, c.Launched, c.Rejected, c.Completed, c.OOMKilled); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hpmmap/internal/chaos"
	"hpmmap/internal/datacenter"
	"hpmmap/internal/kernel"
	"hpmmap/internal/metrics"
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

// DatacenterCell is one grid cell of either mixed-tenancy study,
// reduced to the values the study tables need (and caches).
type DatacenterCell struct {
	RuntimeSec float64                                     `json:"runtime_sec"`
	Classes    [datacenter.NumClasses]DatacenterClassStats `json:"classes"`
	Launched   uint64                                      `json:"launched"`
	Rejected   uint64                                      `json:"rejected"`
	Completed  uint64                                      `json:"completed"`
	OOMKilled  uint64                                      `json:"oom_killed"`
	// Per-priority failure-domain counters (zero unless overcommit or
	// node-failure chaos engages the failure domain).
	Evicted  [datacenter.NumPriorities]uint64 `json:"evicted"`
	Restarts [datacenter.NumPriorities]uint64 `json:"restarts"`
	// Rescheduled counts zone-failure displacements that found a
	// surviving zone immediately; ZoneFailures counts outages the agent
	// absorbed; EvictionPasses counts eviction-manager sweeps.
	Rescheduled    uint64 `json:"rescheduled"`
	ZoneFailures   uint64 `json:"zone_failures"`
	EvictionPasses uint64 `json:"eviction_passes"`
	// Backoff* summarize the crash-loop restart delay histogram
	// (log2-bucket upper bounds, cycles).
	BackoffCount uint64 `json:"backoff_count"`
	BackoffP50   uint64 `json:"backoff_p50"`
	BackoffP99   uint64 `json:"backoff_p99"`
	// Violations is invariant_violations_total after the cell (audited
	// runs; the eviction study asserts it stays zero).
	Violations uint64 `json:"violations"`
	// Barriers and DominantCause summarize the victim's barrier
	// critical-path attribution for the cell.
	Barriers      int    `json:"barriers"`
	DominantCause string `json:"dominant_cause"`
}

// DatacenterPoint aggregates one (churn, overcommit, intensity) grid
// point. The datacenter study sweeps churn at overcommit 0 (failure
// domain off); the eviction study sweeps overcommit at a fixed churn.
type DatacenterPoint struct {
	Churn      float64
	Overcommit float64
	Intensity  float64
	// Cells holds the point's runs in run order.
	Cells []DatacenterCell
	// MeanSec is the mean victim runtime; InterferencePct is its
	// increase relative to the study's baseline, the point Quiet marks.
	MeanSec         float64
	InterferencePct float64
	Quiet           bool
}

// DatacenterStudy is the full grid of either mixed-tenancy study.
type DatacenterStudy struct {
	Bench string
	Ranks int
	// Churn is the eviction study's fixed pod arrival rate (pods per
	// simulated second); the datacenter study sweeps it per point.
	Churn  float64
	Points []DatacenterPoint
}

// mixedGrid is what tells the two mixed-tenancy studies apart: their
// names, cache inputs, sweep axes and baselines. Everything else — the
// agent wiring, the cell function and the reducer — is runMixed's.
type mixedGrid struct {
	// name is the plan name, the cells' Exp and the error prefix;
	// inputs is the plan Inputs, the study-wide options the cache key
	// must cover.
	name, inputs string
	// overcommits is the limits:requests axis, swept inside the
	// options' churn axis and outside its intensity axis.
	overcommits []float64
	// variant encodes a point into the cell Variant (and therefore the
	// seed derivation and the cache key).
	variant func(DatacenterPoint) string
	// chaos is the injector config, less its intensity.
	chaos chaos.Config
	// quiet marks the baseline point interference is measured against.
	quiet    func(DatacenterPoint) bool
	progress func(DatacenterCell) string
}

// DatacenterStudyRun executes the churn × chaos grid on the
// mixed-tenancy configuration. Results are byte-identical at any worker
// count, cold or warm cache.
func DatacenterStudyRun(o DatacenterStudyOptions) (DatacenterStudy, error) {
	o.defaults()
	return runMixed(o, mixedGrid{
		name:        "datacenter",
		inputs:      fmt.Sprintf("scale=%g audit=%t pod=%d resident=%d", o.Scale, o.Audit, o.PodBytes, o.ResidentBytes),
		overcommits: []float64{0},
		variant:     func(pt DatacenterPoint) string { return fmt.Sprintf("c%g-i%g", pt.Churn, pt.Intensity) },
		chaos:       chaos.DefaultConfig(0),
		quiet:       func(pt DatacenterPoint) bool { return pt.Churn == 0 && pt.Intensity == 0 },
		progress: func(c DatacenterCell) string {
			return fmt.Sprintf(": %.1f s, %d pods", c.RuntimeSec, c.Launched)
		},
	})
}

// runMixed runs the grid o.Churns × g.overcommits × o.Intensities ×
// o.Runs on the mixed-tenancy node and reduces it to points in that
// order. o must have its defaults applied.
func runMixed(o DatacenterStudyOptions, g mixedGrid) (DatacenterStudy, error) {
	spec, ok := workload.ByName(o.Bench)
	if !ok {
		return DatacenterStudy{}, fmt.Errorf("experiments: unknown benchmark %q", o.Bench)
	}

	plan := runner.Plan{Name: g.name, Seed: o.Seed, Inputs: g.inputs}
	var points []DatacenterPoint
	for _, churn := range o.Churns {
		for _, oc := range g.overcommits {
			for _, x := range o.Intensities {
				pt := DatacenterPoint{Churn: churn, Overcommit: oc, Intensity: x}
				for run := 0; run < o.Runs; run++ {
					plan.Cells = append(plan.Cells, runner.Cell{
						Exp: g.name, Bench: o.Bench, Profile: ProfileNone.String(),
						Manager: Mixed.Key(), Variant: g.variant(pt),
						Cores: o.Ranks, Run: run,
					})
				}
				points = append(points, pt)
			}
		}
	}

	clockHz := kernel.DellR415().ClockHz

	results, err := runner.Run(runner.Options{
		Workers:     o.Workers,
		Context:     o.Context,
		Progress:    progressLines(o.Progress, g.progress),
		CellTimeout: o.CellTimeout,
		Metrics:     o.Obs.PlanRegistry(),
		Cache:       o.Cache,
		Obs:         o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (DatacenterCell, error) {
		pt := points[idx/o.Runs] // each point's runs are consecutive cells
		dcCfg := datacenter.DefaultConfig()
		if pt.Churn > 0 {
			dcCfg.ChurnMeanPeriod = sim.Cycles(clockHz / pt.Churn)
		} else {
			dcCfg.ChurnMeanPeriod = 0
		}
		if o.PodBytes > 0 {
			dcCfg.PodBytes = o.PodBytes
		}
		if o.ResidentBytes > 0 {
			dcCfg.ResidentBytes = o.ResidentBytes
		}
		dcCfg.Failure.Overcommit = pt.Overcommit
		var inj *chaos.Injector
		if pt.Intensity > 0 {
			cfg := g.chaos
			cfg.Intensity = pt.Intensity
			inj = chaos.New(cfg, seed)
		}
		attr := timeline.NewAttribution(o.Ranks)
		out, err := ExecuteSingleNode(SingleRun{
			Bench:       spec,
			Kind:        Mixed,
			Profile:     ProfileNone,
			Ranks:       o.Ranks,
			Seed:        seed,
			Scale:       o.Scale,
			Chaos:       inj,
			Audit:       o.Audit,
			Attribution: attr,
			Datacenter:  &dcCfg,
		}.InCell(ctx, o.Obs, idx, cell))
		if err != nil {
			return DatacenterCell{}, err
		}
		dc := DatacenterCell{RuntimeSec: out.RuntimeSec}
		if a := out.Datacenter; a != nil {
			dc.Launched = a.LaunchedTotal()
			dc.Rejected = a.Rejected
			dc.Completed = a.Completed
			dc.OOMKilled = a.OOMKilled
			dc.Evicted = a.Evicted
			dc.Restarts = a.Restarts
			dc.Rescheduled = a.Rescheduled
			dc.ZoneFailures = a.ZoneFailures
			dc.EvictionPasses = a.EvictionPasses
			dc.BackoffCount = a.BackoffHist.Count()
			dc.BackoffP50 = a.BackoffHist.Quantile(0.50)
			dc.BackoffP99 = a.BackoffHist.Quantile(0.99)
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
		// Read through the cell's snapshot (the one the runner keeps):
		// looking the counter up in reg would register it in unaudited
		// cells.
		dc.Violations = o.Obs.Snap(idx).CounterValue(metrics.InvariantViolationsTotal)
		return dc, nil
	})
	if err != nil {
		return DatacenterStudy{}, fmt.Errorf("%s study: %w", g.name, err)
	}

	study := DatacenterStudy{Bench: o.Bench, Ranks: o.Ranks}
	i := 0
	var baseMean float64
	for _, pt := range points {
		var sum float64
		for run := 0; run < o.Runs; run++ {
			pt.Cells = append(pt.Cells, results[i])
			sum += results[i].RuntimeSec
			i++
		}
		pt.MeanSec = sum / float64(o.Runs)
		if pt.Quiet = g.quiet(pt); pt.Quiet {
			baseMean = pt.MeanSec
		} else if baseMean > 0 {
			pt.InterferencePct = (pt.MeanSec - baseMean) / baseMean * 100
		}
		study.Points = append(study.Points, pt)
	}
	return study, nil
}

// WriteDatacenterStudy renders the per-cell tail-latency and
// interference table. Deterministic.
func WriteDatacenterStudy(w io.Writer, s DatacenterStudy) {
	fmt.Fprintf(w, "=== Datacenter study: %s victim, %d ranks, mixed tenancy, churn × chaos ===\n", s.Bench, s.Ranks)
	for _, pt := range s.Points {
		writePointHead(w, pt, fmt.Sprintf("churn %g pods/s, chaos %.2f", pt.Churn, pt.Intensity))
		for _, c := range pt.Cells {
			fmt.Fprintf(w, "   pods: %d launched, %d rejected, %d completed, %d oom-killed",
				c.Launched, c.Rejected, c.Completed, c.OOMKilled)
			if c.DominantCause != "" {
				fmt.Fprintf(w, "; dominant barrier cause: %s (%d barriers)", c.DominantCause, c.Barriers)
			}
			fmt.Fprintln(w)
			writeClassTails(w, c)
		}
	}
}

// writePointHead renders a grid point's heading: its coordinates, its
// mean victim runtime and, off the quiet point, its interference.
func writePointHead(w io.Writer, pt DatacenterPoint, coords string) {
	fmt.Fprintf(w, "\n-- %s: runtime %.1f s", coords, pt.MeanSec)
	if !pt.Quiet {
		fmt.Fprintf(w, " (%+.1f%% vs quiet)", pt.InterferencePct)
	}
	fmt.Fprintln(w)
}

// writeClassTails renders a cell's per-class fault-tail table.
func writeClassTails(w io.Writer, c DatacenterCell) {
	fmt.Fprintf(w, "   %-11s %8s %12s %12s %12s %10s\n", "class", "slices", "p50", "p99", "p999", "mmap p50")
	for cl := datacenter.Class(0); cl < datacenter.NumClasses; cl++ {
		st := c.Classes[cl]
		fmt.Fprintf(w, "   %-11s %8d %12d %12d %12d %10d\n",
			cl, st.Slices, st.P50, st.P99, st.P999, st.MmapP50)
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

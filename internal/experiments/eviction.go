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

// The eviction study exercises the datacenter failure domain (ISSUE 8 /
// ROADMAP item 2): one mixed-tenancy node runs a resident HPC victim on
// HPMMAP while the kubelet-style agent overcommits its zone budgets —
// admission checks requests, usage grows to limits — and the
// pressure-driven eviction engine sheds pods lowest-priority-first when
// a zone overruns its budget or node commit pressure spikes. The chaos
// axis adds node-level memory-hotplug failure: a NUMA zone drops out
// and its pods are evicted or rescheduled onto the survivors. The study
// reports per-priority eviction and crash-loop restart counts, the
// restart backoff distribution, per-tenant-class fault tails, and the
// victim's interference vs the quiet cell. The paper's claim under
// test: the failure domain churns the commodity side violently while
// the HPMMAP victim — allocating from offlined pools, immune to the
// eviction TLB shootdowns — does not move.

// EvictionStudyOptions configures the overcommit × node-failure grid.
type EvictionStudyOptions struct {
	// Bench is the resident HPC victim (default HPCCG).
	Bench string
	// Overcommits is the limits:requests sweep axis (default 1, 1.5, 2).
	// 1 must come first: it disables the failure domain and is the
	// interference baseline.
	Overcommits []float64
	// Chaos is the node-failure chaos intensity axis (default 0, 0.75).
	// Unlike the datacenter study this enables only the node-failure
	// family — the axis isolates zone outages, not general mayhem.
	Chaos []float64
	// Churn is the pod arrival rate in pods per simulated second
	// (default 200 — pressure-heavy, so overcommit actually overruns).
	Churn float64
	// Ranks is the victim's rank count (default 4).
	Ranks int
	// Runs per (overcommit, chaos) point (default 1).
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
	// keyed by the cell's coordinates and seed plus Scale, Audit, Churn
	// and the pod shape overrides (see Fig7Options.Cache).
	Cache *runner.Cache
	// Obs, when non-nil, collects per-cell metric snapshots, Chrome
	// trace events and (EnableSeries) time series; cached cells replay
	// their snapshots (see Fig7Options.Obs).
	Obs *runner.Observations
	// Audit attaches the invariant auditor to every cell's node — the
	// frame/VMA/pool conservation net under every eviction and outage.
	Audit bool
	// CellTimeout bounds one cell's wall clock (0 = none).
	CellTimeout time.Duration
	// Retries re-runs cell failures marked runner.Transient (see
	// runner.Options.Retries; no simulation error is transient).
	Retries int
}

func (o *EvictionStudyOptions) defaults() {
	if o.Bench == "" {
		o.Bench = "HPCCG"
	}
	if len(o.Overcommits) == 0 {
		o.Overcommits = []float64{1, 1.5, 2}
	}
	if len(o.Chaos) == 0 {
		o.Chaos = []float64{0, 0.75}
	}
	if o.Churn == 0 {
		o.Churn = 200
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
		o.Seed = 0xe71c
	}
}

// EvictionCell is one (overcommit, chaos, run) cell, reduced to the
// values the study tables need (and caches).
type EvictionCell struct {
	RuntimeSec float64                                     `json:"runtime_sec"`
	Classes    [datacenter.NumClasses]DatacenterClassStats `json:"classes"`
	Launched   uint64                                      `json:"launched"`
	Rejected   uint64                                      `json:"rejected"`
	Completed  uint64                                      `json:"completed"`
	OOMKilled  uint64                                      `json:"oom_killed"`
	// Per-priority failure-domain counters.
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
	// runs; the study asserts it stays zero).
	Violations uint64 `json:"violations"`
	// Barriers and DominantCause summarize the victim's barrier
	// critical-path attribution for the cell.
	Barriers      int    `json:"barriers"`
	DominantCause string `json:"dominant_cause"`
}

// EvictionPoint aggregates one (overcommit, chaos) grid point.
type EvictionPoint struct {
	Overcommit float64
	Chaos      float64
	Cells      []EvictionCell
	// MeanSec is the mean victim runtime; InterferencePct is its
	// increase relative to the quiet (overcommit 1, chaos 0) point.
	MeanSec         float64
	InterferencePct float64
}

// EvictionStudy is the full grid.
type EvictionStudy struct {
	Bench  string
	Ranks  int
	Churn  float64
	Points []EvictionPoint
}

// evictionVariant encodes the sweep coordinate into the cell Variant
// axis (and therefore the seed derivation and the cache key).
func evictionVariant(overcommit, intensity float64) string {
	return fmt.Sprintf("o%g-x%g", overcommit, intensity)
}

// EvictionStudyRun executes the overcommit × node-failure grid on the
// mixed-tenancy configuration. Results are byte-identical at any worker
// count, cold or warm cache.
func EvictionStudyRun(o EvictionStudyOptions) (EvictionStudy, error) {
	o.defaults()
	spec, ok := workload.ByName(o.Bench)
	if !ok {
		return EvictionStudy{}, fmt.Errorf("experiments: unknown benchmark %q", o.Bench)
	}

	type cellMeta struct {
		overcommit float64
		intensity  float64
	}
	plan := runner.Plan{Name: "eviction", Seed: o.Seed,
		Inputs: fmt.Sprintf("scale=%g audit=%t churn=%g pod=%d resident=%d",
			o.Scale, o.Audit, o.Churn, o.PodBytes, o.ResidentBytes)}
	var metas []cellMeta
	for _, oc := range o.Overcommits {
		for _, x := range o.Chaos {
			for run := 0; run < o.Runs; run++ {
				plan.Cells = append(plan.Cells, runner.Cell{
					Exp: "eviction", Bench: o.Bench, Profile: ProfileNone.String(),
					Manager: Mixed.Key(), Variant: evictionVariant(oc, x),
					Cores: o.Ranks, Run: run,
				})
				metas = append(metas, cellMeta{overcommit: oc, intensity: x})
			}
		}
	}

	clockHz := kernel.DellR415().ClockHz

	results, err := runner.Run(runner.Options{
		Workers: o.Workers,
		Context: o.Context,
		Progress: progressLines(o.Progress, func(c EvictionCell) string {
			return fmt.Sprintf(": %.1f s, %d evicted, %d restarts", c.RuntimeSec, total(c.Evicted), total(c.Restarts))
		}),
		CellTimeout: o.CellTimeout,
		Retries:     o.Retries,
		Metrics:     o.Obs.PlanRegistry(),
		Cache:       o.Cache,
		Obs:         o.Obs,
	}, plan, func(ctx context.Context, idx int, cell runner.Cell, seed uint64) (EvictionCell, error) {
		reg, tr := o.Obs.Cell(idx, cell.String())
		dcCfg := datacenter.DefaultConfig()
		dcCfg.ChurnMeanPeriod = sim.Cycles(clockHz / o.Churn)
		if o.PodBytes > 0 {
			dcCfg.PodBytes = o.PodBytes
		}
		if o.ResidentBytes > 0 {
			dcCfg.ResidentBytes = o.ResidentBytes
		}
		dcCfg.Failure.Overcommit = metas[idx].overcommit
		var inj *chaos.Injector
		if metas[idx].intensity > 0 {
			// Node-failure only: the axis isolates zone outages.
			inj = chaos.New(chaos.Config{
				Intensity: metas[idx].intensity,
				NodeFails: true,
			}, seed)
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
			return EvictionCell{}, err
		}
		ec := EvictionCell{RuntimeSec: out.RuntimeSec}
		if a := out.Datacenter; a != nil {
			ec.Launched = a.LaunchedTotal()
			ec.Rejected = a.Rejected
			ec.Completed = a.Completed
			ec.OOMKilled = a.OOMKilled
			ec.Evicted = a.Evicted
			ec.Restarts = a.Restarts
			ec.Rescheduled = a.Rescheduled
			ec.ZoneFailures = a.ZoneFailures
			ec.EvictionPasses = a.EvictionPasses
			ec.BackoffCount = a.BackoffHist.Count()
			ec.BackoffP50 = a.BackoffHist.Quantile(0.50)
			ec.BackoffP99 = a.BackoffHist.Quantile(0.99)
			for c := datacenter.Class(0); c < datacenter.NumClasses; c++ {
				ec.Classes[c] = DatacenterClassStats{
					Slices:  a.TouchHist[c].Count(),
					P50:     a.TouchHist[c].Quantile(0.50),
					P99:     a.TouchHist[c].Quantile(0.99),
					P999:    a.TouchHist[c].Quantile(0.999),
					MmapP50: a.MmapHist[c].Quantile(0.50),
				}
			}
		}
		sum := attr.Summarize()
		ec.Barriers = sum.Barriers
		if cause, ok := sum.DominantCause(); ok {
			ec.DominantCause = cause.String()
		}
		// Read through the cell's snapshot (the one the runner keeps):
		// looking the counter up in reg would register it in unaudited
		// cells.
		ec.Violations = o.Obs.Snap(idx).CounterValue(metrics.InvariantViolationsTotal)
		return ec, nil
	})
	if err != nil {
		return EvictionStudy{}, fmt.Errorf("eviction study: %w", err)
	}

	study := EvictionStudy{Bench: o.Bench, Ranks: o.Ranks, Churn: o.Churn}
	i := 0
	var baseMean float64
	for _, oc := range o.Overcommits {
		for _, x := range o.Chaos {
			pt := EvictionPoint{Overcommit: oc, Chaos: x}
			var sum float64
			for run := 0; run < o.Runs; run++ {
				pt.Cells = append(pt.Cells, results[i])
				sum += results[i].RuntimeSec
				i++
			}
			pt.MeanSec = sum / float64(o.Runs)
			if oc == o.Overcommits[0] && x == 0 {
				baseMean = pt.MeanSec
			} else if baseMean > 0 {
				pt.InterferencePct = (pt.MeanSec - baseMean) / baseMean * 100
			}
			study.Points = append(study.Points, pt)
		}
	}
	return study, nil
}

func total(v [datacenter.NumPriorities]uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// WriteEvictionStudy renders the per-cell failure-domain and
// interference table. Deterministic.
func WriteEvictionStudy(w io.Writer, s EvictionStudy) {
	fmt.Fprintf(w, "=== Eviction study: %s victim, %d ranks, %g pods/s churn, overcommit × node-failure chaos ===\n",
		s.Bench, s.Ranks, s.Churn)
	for _, pt := range s.Points {
		fmt.Fprintf(w, "\n-- overcommit %gx, chaos %.2f: runtime %.1f s", pt.Overcommit, pt.Chaos, pt.MeanSec)
		if !(pt.Overcommit == s.Points[0].Overcommit && pt.Chaos == 0) {
			fmt.Fprintf(w, " (%+.1f%% vs quiet)", pt.InterferencePct)
		}
		fmt.Fprintln(w)
		for _, c := range pt.Cells {
			fmt.Fprintf(w, "   pods: %d launched, %d rejected, %d completed, %d oom-killed; %d zone failures, %d rescheduled, %d eviction passes\n",
				c.Launched, c.Rejected, c.Completed, c.OOMKilled, c.ZoneFailures, c.Rescheduled, c.EvictionPasses)
			fmt.Fprintf(w, "   %-11s %10s %10s\n", "priority", "evicted", "restarts")
			for p := datacenter.Priority(0); p < datacenter.NumPriorities; p++ {
				fmt.Fprintf(w, "   %-11s %10d %10d\n", p, c.Evicted[p], c.Restarts[p])
			}
			if c.BackoffCount > 0 {
				fmt.Fprintf(w, "   backoff: %d restart delays, p50 %d cycles, p99 %d cycles\n",
					c.BackoffCount, c.BackoffP50, c.BackoffP99)
			}
			if c.DominantCause != "" {
				fmt.Fprintf(w, "   dominant barrier cause: %s (%d barriers)", c.DominantCause, c.Barriers)
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "   invariant violations: %d\n", c.Violations)
			fmt.Fprintf(w, "   %-11s %8s %12s %12s %12s %10s\n", "class", "slices", "p50", "p99", "p999", "mmap p50")
			for cl := datacenter.Class(0); cl < datacenter.NumClasses; cl++ {
				st := c.Classes[cl]
				fmt.Fprintf(w, "   %-11s %8d %12d %12d %12d %10d\n",
					cl, st.Slices, st.P50, st.P99, st.P999, st.MmapP50)
			}
		}
	}
}

// WriteEvictionCSV renders the study as one CSV row per (point, run,
// priority) for downstream tooling. Deterministic.
func WriteEvictionCSV(w io.Writer, s EvictionStudy) error {
	if _, err := fmt.Fprintln(w, "overcommit,chaos_intensity,run,priority,evicted,restarts,backoff_count,backoff_p50_cycles,backoff_p99_cycles,runtime_sec,interference_pct,pods_launched,pods_rejected,pods_completed,pods_oom_killed,rescheduled,zone_failures,eviction_passes,violations"); err != nil {
		return err
	}
	for _, pt := range s.Points {
		for run, c := range pt.Cells {
			for p := datacenter.Priority(0); p < datacenter.NumPriorities; p++ {
				if _, err := fmt.Fprintf(w, "%g,%g,%d,%s,%d,%d,%d,%d,%d,%.3f,%.2f,%d,%d,%d,%d,%d,%d,%d,%d\n",
					pt.Overcommit, pt.Chaos, run, p, c.Evicted[p], c.Restarts[p],
					c.BackoffCount, c.BackoffP50, c.BackoffP99,
					c.RuntimeSec, pt.InterferencePct, c.Launched, c.Rejected, c.Completed, c.OOMKilled,
					c.Rescheduled, c.ZoneFailures, c.EvictionPasses, c.Violations); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hpmmap/internal/chaos"
	"hpmmap/internal/datacenter"
	"hpmmap/internal/runner"
)

// The eviction study exercises the datacenter failure domain (ROADMAP
// item 2) on the datacenter study's grid runner: one mixed-tenancy node
// runs a resident HPC victim on HPMMAP while the kubelet-style agent
// overcommits its zone budgets — admission checks requests, usage grows
// to limits — and the pressure-driven eviction engine sheds pods
// lowest-priority-first when a zone overruns its budget or node commit
// pressure spikes. The chaos axis adds node-level memory-hotplug
// failure: a NUMA zone drops out and its pods are evicted or
// rescheduled onto the survivors. The study reports per-priority
// eviction and crash-loop restart counts, the restart backoff
// distribution, per-tenant-class fault tails, and the victim's
// interference vs the quiet cell. The paper's claim under test: the
// failure domain churns the commodity side violently while the HPMMAP
// victim — allocating from offlined pools, immune to the eviction TLB
// shootdowns — does not move.

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

// EvictionStudyRun executes the overcommit × node-failure grid on the
// mixed-tenancy configuration. Results are byte-identical at any worker
// count, cold or warm cache.
func EvictionStudyRun(o EvictionStudyOptions) (DatacenterStudy, error) {
	o.defaults()
	s, err := runMixed(DatacenterStudyOptions{
		Bench: o.Bench, Churns: []float64{o.Churn}, Intensities: o.Chaos,
		Ranks: o.Ranks, Runs: o.Runs, Seed: o.Seed, Scale: o.Scale,
		PodBytes: o.PodBytes, ResidentBytes: o.ResidentBytes,
		Progress: o.Progress, Workers: o.Workers, Context: o.Context,
		Cache: o.Cache, Obs: o.Obs, Audit: o.Audit, CellTimeout: o.CellTimeout,
	}, mixedGrid{
		name: "eviction",
		inputs: fmt.Sprintf("scale=%g audit=%t churn=%g pod=%d resident=%d",
			o.Scale, o.Audit, o.Churn, o.PodBytes, o.ResidentBytes),
		overcommits: o.Overcommits,
		variant:     func(pt DatacenterPoint) string { return fmt.Sprintf("o%g-x%g", pt.Overcommit, pt.Intensity) },
		// Node-failure only: the axis isolates zone outages.
		chaos: chaos.Config{NodeFails: true},
		quiet: func(pt DatacenterPoint) bool { return pt.Overcommit == o.Overcommits[0] && pt.Intensity == 0 },
		progress: func(c DatacenterCell) string {
			return fmt.Sprintf(": %.1f s, %d evicted, %d restarts", c.RuntimeSec, total(c.Evicted), total(c.Restarts))
		},
	})
	if err != nil {
		return DatacenterStudy{}, err
	}
	s.Churn = o.Churn
	return s, nil
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
func WriteEvictionStudy(w io.Writer, s DatacenterStudy) {
	fmt.Fprintf(w, "=== Eviction study: %s victim, %d ranks, %g pods/s churn, overcommit × node-failure chaos ===\n",
		s.Bench, s.Ranks, s.Churn)
	for _, pt := range s.Points {
		writePointHead(w, pt, fmt.Sprintf("overcommit %gx, chaos %.2f", pt.Overcommit, pt.Intensity))
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
			writeClassTails(w, c)
		}
	}
}

// WriteEvictionCSV renders the study as one CSV row per (point, run,
// priority) for downstream tooling. Deterministic.
func WriteEvictionCSV(w io.Writer, s DatacenterStudy) error {
	if _, err := fmt.Fprintln(w, "overcommit,chaos_intensity,run,priority,evicted,restarts,backoff_count,backoff_p50_cycles,backoff_p99_cycles,runtime_sec,interference_pct,pods_launched,pods_rejected,pods_completed,pods_oom_killed,rescheduled,zone_failures,eviction_passes,violations"); err != nil {
		return err
	}
	for _, pt := range s.Points {
		for run, c := range pt.Cells {
			for p := datacenter.Priority(0); p < datacenter.NumPriorities; p++ {
				if _, err := fmt.Fprintf(w, "%g,%g,%d,%s,%d,%d,%d,%d,%d,%.3f,%.2f,%d,%d,%d,%d,%d,%d,%d,%d\n",
					pt.Overcommit, pt.Intensity, run, p, c.Evicted[p], c.Restarts[p],
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

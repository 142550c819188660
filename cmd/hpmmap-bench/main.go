// Command hpmmap-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hpmmap-bench -exp fig2            # THP fault-cost table (Fig. 2)
//	hpmmap-bench -exp fig3            # HugeTLBfs fault-cost table (Fig. 3)
//	hpmmap-bench -exp fig4            # THP fault timeline (Fig. 4)
//	hpmmap-bench -exp fig5            # HugeTLBfs fault timelines (Fig. 5)
//	hpmmap-bench -exp fig7 -workers 8 # single-node weak scaling (Fig. 7)
//	hpmmap-bench -exp fig8            # 8-node scaling study (Fig. 8)
//	hpmmap-bench -exp attribution     # barrier noise-attribution study
//	hpmmap-bench -exp all             # everything
//
// Robustness studies run instead of -exp:
//
//	hpmmap-bench -study chaos                      # contention-storm sweep
//	hpmmap-bench -study chaos -audit               # + invariant auditor per cell
//	hpmmap-bench -study chaos -chaos-poison 3      # quarantine drill: poison cell 3
//	hpmmap-bench -study datacenter -out out        # pod churn x chaos, CSV to out/
//	hpmmap-bench -study datacenter -churns 0,500   # override the churn sweep
//	hpmmap-bench -study eviction -out out          # overcommit x node failures
//	hpmmap-bench -study eviction -overcommits 1,2  # override the overcommit sweep
//
// The chaos study sweeps deterministic fault-injection intensity
// (-intensities) against every memory manager. The datacenter study
// (DESIGN.md §11) sweeps pod churn rate (-churns, pods/sec) against
// chaos intensity on one mixed-tenancy node — a kubelet-style agent
// admitting THP/HugeTLBfs/HPMMAP pods against per-zone hugepage
// budgets while an HPC victim runs — and reports per-class
// fault-latency tails (p50/p99/p999) plus interference vs the quiet
// cell; -out also writes a long-format datacenter.csv. The eviction
// study (DESIGN.md §12) sweeps limits:requests overcommit
// (-overcommits) against node-failure chaos intensity on the same
// mixed-tenancy node: the agent admits pods by request, usage grows to
// the limit, and the pressure-driven eviction engine sheds
// lowest-priority pods while zone outages displace survivors; every
// cell reports per-priority eviction/restart counts, the crash-loop
// backoff distribution, per-class fault tails and victim interference,
// and -out also writes a long-format eviction.csv. All studies
// run with the runner's degradation machinery: failed cells become
// annotated holes (-fail-fast reverts to abort-on-first-error),
// -cell-timeout bounds a cell's wall clock and -retries re-runs
// host-transient failures. A SIGINT/SIGTERM cancels the grid, flushes
// partial -metrics/-trace-out artifacts and exits non-zero.
//
// Every experiment executes through the internal/runner worker pool:
// -workers bounds the pool (0 = one worker per CPU) and results are
// byte-identical at any worker count, -timeout cancels a stuck run, and
// -cache-dir memoizes per-cell results so re-invocations only simulate
// changed cells. -scale shrinks the experiment (memory, footprints,
// iterations) for quick runs; -runs overrides the paper's 10
// repetitions; -bench and -cores narrow Figure 7 to one cell.
//
// Observability (see OBSERVABILITY.md):
//
//	-metrics <file>    dump the experiment's merged metric snapshot
//	                   ("-" = stdout; a .json suffix selects JSON, a
//	                   .prom suffix the OpenMetrics exposition format,
//	                   anything else the Prometheus-style text format)
//	-ledger <file>     append a JSONL run ledger: canonical records
//	                   (manifest/cell_start/cell_finish/plan_end, byte-
//	                   identical at any worker count and cache state)
//	                   plus a host annex (per-cell wall clock and
//	                   allocations, retries, timeouts, cache traffic);
//	                   inspect with hpmmap-ledger summary/diff/watch
//	-trace-out <file>  write a Chrome trace-event JSON file of the run,
//	                   loadable in Perfetto (ui.perfetto.dev) or
//	                   chrome://tracing, timestamped by simulated cycles
//	-series <file>     sample each cell's memory-state time series
//	                   (commit pressure, fragmentation, free memory,
//	                   page cache, fault/reclaim counters) at the
//	                   scheduler-tick cadence and write them as one
//	                   long-format CSV; the samples also appear as
//	                   Perfetto counter tracks in -trace-out
//	-cpuprofile <file> write a pprof CPU profile of the invocation
//	-memprofile <file> write a pprof allocation profile at exit
//	                   (see EXPERIMENTS.md "Profiling the simulator")
//
// With -exp all, each experiment writes its own artifact with the
// experiment name spliced into the file name (metrics.txt →
// metrics-fig7.txt). Cells served from -cache-dir replay their cached
// metric snapshots but contribute no trace events. -series bypasses the
// result cache entirely (cached cells would replay no samples), so
// sampled runs neither read nor write -cache-dir entries.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig3|fig4|fig5|fig7|fig8|noise|attribution|all")
		scale    = flag.Float64("scale", 1.0, "problem/memory scale factor (1.0 = paper size)")
		runs     = flag.Int("runs", 0, "repetitions per cell (0 = paper default of 10)")
		seed     = flag.Uint64("seed", 0, "base seed (0 = default)")
		benches  = flag.String("bench", "", "comma-separated benchmarks (fig7/fig8 only)")
		cores    = flag.String("cores", "", "comma-separated core counts (fig7 only)")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU; results identical at any count)")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long (0 = no timeout)")
		cacheDir = flag.String("cache-dir", "", "JSON result cache: reuse per-cell results keyed by exp/cell/seed/plan inputs (scale, study options)/model-version")
		verbose  = flag.Bool("v", false, "print per-cell progress with done/total and ETA")
		plotW    = flag.Int("plot-width", 100, "timeline plot width")
		plotH    = flag.Int("plot-height", 18, "timeline plot height")
		outDir   = flag.String("out", "", "also write machine-readable CSVs into this directory")

		metricsOut = flag.String("metrics", "", `write the experiment's merged metric snapshot to this file ("-" = stdout; .json = JSON, .prom = OpenMetrics, else text); supported by fig2-fig5, fig7, fig8, attribution`)
		ledgerOut  = flag.String("ledger", "", "append a JSONL run ledger to this file: canonical records (manifest/cell_start/cell_finish/plan_end) plus a host annex (timings, retries, cache traffic); inspect with hpmmap-ledger")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable) of the experiment's cells")
		seriesOut  = flag.String("series", "", "sample each cell's memory-state time series and write a long-format CSV to this file; sampling bypasses -cache-dir both ways")

		studyFlag   = flag.String("study", "", "robustness study (runs instead of -exp): chaos = contention-storm sweep of chaos intensity x manager; datacenter = mixed-tenancy pod-churn sweep with per-class tail latency; eviction = overcommit x node-failure sweep with per-priority eviction and crash-loop backoff")
		churns      = flag.String("churns", "", "datacenter study: comma-separated pod arrival rates in pods/sec (default 0,50,200; 0 is the interference baseline); eviction study: single fixed rate (default 200)")
		overcommits = flag.String("overcommits", "", "eviction study: comma-separated limits:requests overcommit ratios (default 1,1.5,2; 1 disables the failure domain and is the interference baseline)")
		audit       = flag.Bool("audit", false, "chaos study: attach the invariant auditor to every cell's node (schedules extra events, so it changes sim_events_total)")
		intensities = flag.String("intensities", "", "chaos study: comma-separated chaos intensities in [0,1] (default 0,0.25,0.5,0.75,1)")
		chaosPoison = flag.Int("chaos-poison", -1, "chaos study: inject a deliberate invariant violation into this plan cell (>= 1) to drill the quarantine path; -1 = off")
		cellTimeout = flag.Duration("cell-timeout", 0, "chaos study: per-cell wall-clock budget (0 = none)")
		retries     = flag.Int("retries", 0, "chaos study: retries for cell failures marked host-transient (no simulation failure is; cache I/O never fails a cell)")
		failFast    = flag.Bool("fail-fast", false, "chaos study: abort on the first cell failure instead of quarantining it as an annotated hole")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProfile = flag.String("memprofile", "", "write a pprof allocation profile (taken at exit) to this file")
	)
	flag.Parse()

	// Profiles flush on every exit path: run()/the study funnel all
	// failures through fatal() below, and the success paths fall through
	// to stopProfiles at the end of main.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	closeLedger := func() {} // reassigned once -ledger (below) is opened
	stopProfiles := func() {
		closeLedger()
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live + cumulative allocation
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		stopProfiles()
		os.Exit(1)
	}

	// A SIGINT/SIGTERM cancels the runner's context: in-flight cells
	// observe the cancellation, partial -metrics/-trace-out artifacts
	// are flushed, and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		cache, err = runner.NewCache(*cacheDir, experiments.ModelVersion)
		if err != nil {
			fatal("%v\n", err)
		}
	}

	var led *ledger.Ledger
	if *ledgerOut != "" {
		var err error
		led, err = ledger.Open(*ledgerOut, ledger.Meta{
			Model: experiments.ModelVersion,
			Scale: *scale,
			Flags: map[string]string{"exp": *exp, "study": *studyFlag},
		})
		if err != nil {
			fatal("%v\n", err)
		}
	}
	closeLedger = func() {
		if led == nil {
			return
		}
		if cache != nil {
			led.CacheCorrupt(cache.CorruptCount())
		}
		if err := led.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hpmmap-bench: ledger: %v\n", err)
		}
		led = nil
	}

	observing := *metricsOut != "" || *traceOut != "" || *seriesOut != "" || led != nil
	if *traceOut != "" && cache != nil {
		fmt.Fprintln(os.Stderr, "hpmmap-bench: note: cells served from -cache-dir replay cached metrics but contribute no trace events")
	}
	if *seriesOut != "" && cache != nil {
		fmt.Fprintln(os.Stderr, "hpmmap-bench: note: -series bypasses -cache-dir (sampled cells neither read nor write cache entries)")
	}
	multi := *exp == "all" && *studyFlag == ""
	// newObs creates one collector per experiment so cell indexes (and
	// trace pids) never collide across experiments.
	newObs := func() *runner.Observations {
		if !observing {
			return nil
		}
		obs := runner.NewObservations(0)
		if *traceOut != "" {
			obs.EnableTrace()
		}
		if *seriesOut != "" {
			obs.EnableSeries()
		}
		obs.SetLedger(led)
		return obs
	}
	writeArtifacts := func(name string, obs *runner.Observations) error {
		if obs == nil {
			return nil
		}
		if *metricsOut != "" {
			if err := writeMetricsFile(artifactPath(*metricsOut, name, multi), obs.Merged()); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			if err := writeTraceFile(artifactPath(*traceOut, name, multi), obs); err != nil {
				return err
			}
		}
		if *seriesOut != "" {
			if err := writeSeriesFile(artifactPath(*seriesOut, name, multi), obs); err != nil {
				return err
			}
		}
		return nil
	}

	// The runner delivers progress through a serialized sink, so this
	// callback may write to stderr without locking.
	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg) }
	}

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fatal("%s: %v\n", name, err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", name, time.Since(start).Round(time.Millisecond))
		}
	}

	sc := experiments.Scale(*scale)

	if *studyFlag == "datacenter" {
		if err := runDatacenterStudy(datacenterStudyArgs{
			ctx: ctx, obs: newObs(), cache: cache, progress: progress,
			seed: *seed, scale: sc, runs: *runs, workers: *workers,
			benches: splitList(*benches), cores: splitList(*cores),
			churns: splitList(*churns), intensities: splitList(*intensities),
			audit:       *audit,
			cellTimeout: *cellTimeout, retries: *retries,
			outDir: *outDir, writeArtifacts: writeArtifacts,
		}); err != nil {
			fatal("datacenter: %v\n", err)
		}
		stopProfiles()
		return
	}
	if *studyFlag == "eviction" {
		if err := runEvictionStudy(evictionStudyArgs{
			ctx: ctx, obs: newObs(), cache: cache, progress: progress,
			seed: *seed, scale: sc, runs: *runs, workers: *workers,
			benches: splitList(*benches), cores: splitList(*cores),
			overcommits: splitList(*overcommits), intensities: splitList(*intensities),
			churns:      splitList(*churns),
			audit:       *audit,
			cellTimeout: *cellTimeout, retries: *retries,
			outDir: *outDir, writeArtifacts: writeArtifacts,
		}); err != nil {
			fatal("eviction: %v\n", err)
		}
		stopProfiles()
		return
	}
	if *studyFlag != "" {
		if *studyFlag != "chaos" {
			fmt.Fprintf(os.Stderr, "hpmmap-bench: unknown -study %q (supported: chaos, datacenter, eviction)\n", *studyFlag)
			os.Exit(2)
		}
		if err := runChaosStudy(chaosStudyArgs{
			ctx: ctx, obs: newObs(), cache: cache, progress: progress,
			seed: *seed, scale: sc, runs: *runs, workers: *workers,
			benches: splitList(*benches), cores: splitList(*cores),
			intensities: splitList(*intensities),
			audit:       *audit, poison: *chaosPoison,
			cellTimeout: *cellTimeout, retries: *retries, failFast: *failFast,
			outDir: *outDir, writeArtifacts: writeArtifacts,
		}); err != nil {
			fatal("chaos: %v\n", err)
		}
		stopProfiles()
		return
	}

	study := func() experiments.FaultStudyOptions {
		return experiments.FaultStudyOptions{
			Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Progress: progress,
		}
	}

	run("fig2", func() error {
		o, obs := study(), newObs()
		o.Obs = obs
		fs, err := experiments.Fig2(o)
		if err != nil {
			writeArtifacts("fig2", obs) // best-effort partial flush
			return err
		}
		experiments.WriteFaultStudy(os.Stdout, fs)
		return writeArtifacts("fig2", obs)
	})
	run("fig3", func() error {
		o, obs := study(), newObs()
		o.Obs = obs
		fs, err := experiments.Fig3(o)
		if err != nil {
			writeArtifacts("fig3", obs) // best-effort partial flush
			return err
		}
		experiments.WriteFaultStudy(os.Stdout, fs)
		return writeArtifacts("fig3", obs)
	})
	run("fig4", func() error {
		o, obs := study(), newObs()
		o.Obs = obs
		tls, err := experiments.Fig4(o)
		if err != nil {
			writeArtifacts("fig4", obs) // best-effort partial flush
			return err
		}
		experiments.WriteTimelines(os.Stdout, "Figure 4: THP fault timeline, miniMD", tls, *plotW, *plotH)
		return writeArtifacts("fig4", obs)
	})
	run("fig5", func() error {
		o, obs := study(), newObs()
		o.Obs = obs
		tls, err := experiments.Fig5(o)
		if err != nil {
			writeArtifacts("fig5", obs) // best-effort partial flush
			return err
		}
		experiments.WriteTimelines(os.Stdout, "Figure 5: HugeTLBfs fault timelines", tls, *plotW, *plotH)
		return writeArtifacts("fig5", obs)
	})
	writeCSV := func(name string, lines []string) error {
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, name), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
	}

	run("fig7", func() error {
		obs := newObs()
		opts := experiments.Fig7Options{
			Runs:     *runs,
			Seed:     *seed,
			Scale:    sc,
			Progress: progress,
			Benches:  splitList(*benches),
			Workers:  *workers,
			Context:  ctx,
			Cache:    cache,
			Obs:      obs,
		}
		for _, c := range splitList(*cores) {
			v, err := strconv.Atoi(c)
			if err != nil {
				return fmt.Errorf("bad -cores entry %q", c)
			}
			opts.CoreCounts = append(opts.CoreCounts, v)
		}
		panels, err := experiments.Fig7(opts)
		if err != nil {
			writeArtifacts("fig7", obs) // best-effort partial flush
			return err
		}
		experiments.WriteFig7(os.Stdout, panels)
		lines := []string{"bench,profile,manager,cores,mean_sec,stdev_sec"}
		for _, p := range panels {
			for _, s := range p.Series {
				for _, pt := range s.Points {
					lines = append(lines, fmt.Sprintf("%s,%s,%s,%d,%.3f,%.3f",
						p.Bench, p.Profile, s.Kind, pt.Cores, pt.MeanSec, pt.StdevSec))
				}
			}
		}
		if err := writeCSV("fig7.csv", lines); err != nil {
			return err
		}
		return writeArtifacts("fig7", obs)
	})
	run("noise", func() error {
		points, err := experiments.NoiseStudy(experiments.NoiseStudyOptions{
			Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Progress: progress,
		})
		if err != nil {
			return err
		}
		fmt.Println("=== BSP noise-amplification study (HPMMAP-managed HPCCG, synthetic detours) ===")
		fmt.Print(experiments.WriteNoiseStudy(points))
		return nil
	})
	run("attribution", func() error {
		obs := newObs()
		o := experiments.AttributionStudyOptions{
			Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Progress: progress,
			Obs: obs,
		}
		if bs := splitList(*benches); len(bs) > 0 {
			o.Bench = bs[0]
		}
		cells, err := experiments.RunAttributionStudy(o)
		if err != nil {
			writeArtifacts("attribution", obs) // best-effort partial flush
			return err
		}
		fmt.Println("=== Barrier noise attribution (per-manager straggler decomposition) ===")
		if err := experiments.WriteAttributionStudy(os.Stdout, cells); err != nil {
			return err
		}
		return writeArtifacts("attribution", obs)
	})
	run("fig8", func() error {
		obs := newObs()
		panels, err := experiments.Fig8(experiments.Fig8Options{
			Runs:     *runs,
			Seed:     *seed,
			Scale:    sc,
			Progress: progress,
			Benches:  splitList(*benches),
			Workers:  *workers,
			Context:  ctx,
			Cache:    cache,
			Obs:      obs,
		})
		if err != nil {
			writeArtifacts("fig8", obs) // best-effort partial flush
			return err
		}
		experiments.WriteFig8(os.Stdout, panels)
		lines := []string{"bench,profile,manager,ranks,mean_sec,stdev_sec"}
		for _, p := range panels {
			for _, s := range p.Series {
				for _, pt := range s.Points {
					lines = append(lines, fmt.Sprintf("%s,%s,%s,%d,%.3f,%.3f",
						p.Bench, p.Profile, s.Kind, pt.Ranks, pt.MeanSec, pt.StdevSec))
				}
			}
		}
		if err := writeCSV("fig8.csv", lines); err != nil {
			return err
		}
		return writeArtifacts("fig8", obs)
	})

	stopProfiles()
}

// chaosStudyArgs carries the flag surface into runChaosStudy.
type chaosStudyArgs struct {
	ctx            context.Context
	obs            *runner.Observations
	cache          *runner.Cache
	progress       func(string)
	seed           uint64
	scale          experiments.Scale
	runs, workers  int
	benches, cores []string
	intensities    []string
	audit          bool
	poison         int
	cellTimeout    time.Duration
	retries        int
	failFast       bool
	outDir         string
	writeArtifacts func(name string, obs *runner.Observations) error
}

// runChaosStudy drives the contention-storm study (-study chaos):
// chaos intensity x manager, with the runner's degradation machinery
// (quarantined holes, retries, per-cell timeouts) and optionally the
// invariant auditor. Artifacts are flushed even when cells were
// quarantined or the run was interrupted, and a study with quarantined
// cells exits non-zero after rendering the partial figure.
func runChaosStudy(a chaosStudyArgs) error {
	o := experiments.ChaosStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs,
		Audit: a.audit, PoisonCell: a.poison,
		CellTimeout: a.cellTimeout, Retries: a.retries,
		DisableContinueOnError: a.failFast,
	}
	if len(a.benches) > 0 {
		o.Bench = a.benches[0]
	}
	if len(a.cores) > 0 {
		v, err := strconv.Atoi(a.cores[0])
		if err != nil {
			return fmt.Errorf("bad -cores entry %q", a.cores[0])
		}
		o.Cores = v
	}
	for _, s := range a.intensities {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			return fmt.Errorf("bad -intensities entry %q (want a number in [0,1])", s)
		}
		o.Intensities = append(o.Intensities, v)
	}
	s, err := experiments.ChaosStudyRun(o)
	if err != nil {
		// Flush whatever the completed cells observed before failing.
		if aerr := a.writeArtifacts("chaos", a.obs); aerr != nil {
			fmt.Fprintf(os.Stderr, "chaos: flushing partial artifacts: %v\n", aerr)
		}
		return err
	}
	experiments.WriteChaosStudy(os.Stdout, s)
	if a.outDir != "" {
		lines := []string{"bench,manager,intensity,mean_sec,stdev_sec,runs,failed,degradation_pct"}
		for _, series := range s.Series {
			for _, pt := range series.Points {
				lines = append(lines, fmt.Sprintf("%s,%s,%.2f,%.3f,%.3f,%d,%d,%.1f",
					s.Bench, series.Kind, pt.Intensity, pt.MeanSec, pt.StdevSec,
					len(pt.Runs), pt.Failed, pt.DegradationPct))
			}
		}
		if err := os.MkdirAll(a.outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(a.outDir, "chaos.csv"),
			[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			return err
		}
	}
	if err := a.writeArtifacts("chaos", a.obs); err != nil {
		return err
	}
	if n := len(s.Failures); n > 0 {
		return fmt.Errorf("%d cell(s) quarantined; the figure above has annotated holes", n)
	}
	return nil
}

// datacenterStudyArgs carries the flag surface into runDatacenterStudy.
type datacenterStudyArgs struct {
	ctx            context.Context
	obs            *runner.Observations
	cache          *runner.Cache
	progress       func(string)
	seed           uint64
	scale          experiments.Scale
	runs, workers  int
	benches, cores []string
	churns         []string
	intensities    []string
	audit          bool
	cellTimeout    time.Duration
	retries        int
	outDir         string
	writeArtifacts func(name string, obs *runner.Observations) error
}

// runDatacenterStudy drives the mixed-tenancy pod-churn study
// (-study datacenter): churn rate x chaos intensity on one node
// carrying THP, HugeTLBfs and HPMMAP tenants, tabulating per-class
// tail fault latency and the HPC victim's interference. Artifacts are
// flushed even when the run was interrupted.
func runDatacenterStudy(a datacenterStudyArgs) error {
	o := experiments.DatacenterStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs, Audit: a.audit,
		CellTimeout: a.cellTimeout, Retries: a.retries,
	}
	if len(a.benches) > 0 {
		o.Bench = a.benches[0]
	}
	if len(a.cores) > 0 {
		v, err := strconv.Atoi(a.cores[0])
		if err != nil {
			return fmt.Errorf("bad -cores entry %q", a.cores[0])
		}
		o.Ranks = v
	}
	for _, s := range a.churns {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("bad -churns entry %q (want a rate >= 0 in pods/sec)", s)
		}
		o.Churns = append(o.Churns, v)
	}
	for _, s := range a.intensities {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			return fmt.Errorf("bad -intensities entry %q (want a number in [0,1])", s)
		}
		o.Intensities = append(o.Intensities, v)
	}
	s, err := experiments.DatacenterStudyRun(o)
	if err != nil {
		if aerr := a.writeArtifacts("datacenter", a.obs); aerr != nil {
			fmt.Fprintf(os.Stderr, "datacenter: flushing partial artifacts: %v\n", aerr)
		}
		return err
	}
	experiments.WriteDatacenterStudy(os.Stdout, s)
	if a.outDir != "" {
		if err := os.MkdirAll(a.outDir, 0o755); err != nil {
			return err
		}
		var buf strings.Builder
		if err := experiments.WriteDatacenterCSV(&buf, s); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(a.outDir, "datacenter.csv"),
			[]byte(buf.String()), 0o644); err != nil {
			return err
		}
	}
	return a.writeArtifacts("datacenter", a.obs)
}

// evictionStudyArgs carries the flag surface into runEvictionStudy.
type evictionStudyArgs struct {
	ctx            context.Context
	obs            *runner.Observations
	cache          *runner.Cache
	progress       func(string)
	seed           uint64
	scale          experiments.Scale
	runs, workers  int
	benches, cores []string
	overcommits    []string
	intensities    []string
	churns         []string
	audit          bool
	cellTimeout    time.Duration
	retries        int
	outDir         string
	writeArtifacts func(name string, obs *runner.Observations) error
}

// runEvictionStudy drives the failure-domain study (-study eviction):
// limits:requests overcommit x node-failure chaos intensity on one
// mixed-tenancy node, tabulating per-priority eviction and crash-loop
// restart counts, the backoff distribution, per-class fault tails and
// the HPC victim's interference. Artifacts are flushed even when the
// run was interrupted.
func runEvictionStudy(a evictionStudyArgs) error {
	o := experiments.EvictionStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs, Audit: a.audit,
		CellTimeout: a.cellTimeout, Retries: a.retries,
	}
	if len(a.benches) > 0 {
		o.Bench = a.benches[0]
	}
	if len(a.cores) > 0 {
		v, err := strconv.Atoi(a.cores[0])
		if err != nil {
			return fmt.Errorf("bad -cores entry %q", a.cores[0])
		}
		o.Ranks = v
	}
	for _, s := range a.overcommits {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("bad -overcommits entry %q (want a ratio >= 1)", s)
		}
		o.Overcommits = append(o.Overcommits, v)
	}
	for _, s := range a.intensities {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			return fmt.Errorf("bad -intensities entry %q (want a number in [0,1])", s)
		}
		o.Chaos = append(o.Chaos, v)
	}
	if len(a.churns) > 0 {
		v, err := strconv.ParseFloat(a.churns[0], 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad -churns entry %q (want a rate > 0 in pods/sec)", a.churns[0])
		}
		o.Churn = v
	}
	s, err := experiments.EvictionStudyRun(o)
	if err != nil {
		if aerr := a.writeArtifacts("eviction", a.obs); aerr != nil {
			fmt.Fprintf(os.Stderr, "eviction: flushing partial artifacts: %v\n", aerr)
		}
		return err
	}
	experiments.WriteEvictionStudy(os.Stdout, s)
	if a.outDir != "" {
		if err := os.MkdirAll(a.outDir, 0o755); err != nil {
			return err
		}
		var buf strings.Builder
		if err := experiments.WriteEvictionCSV(&buf, s); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(a.outDir, "eviction.csv"),
			[]byte(buf.String()), 0o644); err != nil {
			return err
		}
	}
	return a.writeArtifacts("eviction", a.obs)
}

// artifactPath splices the experiment name into path when several
// experiments run in one invocation, so later experiments do not
// overwrite earlier artifacts: metrics.txt -> metrics-fig7.txt. Stdout
// ("-") is passed through unchanged.
func artifactPath(path, name string, multi bool) string {
	if path == "-" || !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + name + ext
}

// writeMetricsFile dumps a snapshot: "-" writes text to stdout, a .json
// suffix selects the JSON dump, anything else the Prometheus-style text
// format.
func writeMetricsFile(path string, snap metrics.Snapshot) error {
	write := snap.WriteText
	switch {
	case strings.HasSuffix(path, ".json"):
		write = snap.WriteJSON
	case strings.HasSuffix(path, ".prom"):
		write = snap.WriteOpenMetrics
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile writes the collector's Chrome trace-event JSON.
func writeTraceFile(path string, obs *runner.Observations) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeriesFile writes the collector's per-cell time-series samples as
// one long-format CSV ("-" = stdout).
func writeSeriesFile(path string, obs *runner.Observations) error {
	if path == "-" {
		return obs.WriteSeriesCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteSeriesCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

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
//	hpmmap-bench -exp noise           # BSP noise-amplification study
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
// Single-node calibration studies run the same way:
//
//	hpmmap-bench -study probe -cores 2             # one cell's diagnostics
//	hpmmap-bench -study faulttrace -hist small     # per-fault study, any bench
//	hpmmap-bench -study faulttrace -out out        # + faulttrace.csv
//	hpmmap-bench -study sweep -knob thp-frag       # sensitivity sweep
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
// and -out also writes a long-format eviction.csv. The chaos study
// runs with the runner's degradation machinery: failed cells become
// annotated holes (-fail-fast reverts to abort-on-first-error). The
// datacenter and eviction studies stop at the first failed cell.
// -audit, -cell-timeout and -intensities apply to all three.
//
// In the calibration studies (single.go) a shared flag left at its zero
// value keeps the study's own default, and none of them uses
// -cache-dir.
//
// Every experiment executes through the internal/runner worker pool:
// -workers bounds the pool (0 = one worker per CPU) and results are
// byte-identical at any worker count, -timeout cancels a stuck run, and
// -cache-dir memoizes per-cell results of fig7, fig8 and the chaos,
// datacenter and eviction studies, so re-invocations only simulate
// changed cells; the other experiments never read it. -scale shrinks
// the experiment (memory, footprints, iterations) for quick runs; -runs
// overrides the paper's 10 repetitions; -bench and -cores narrow
// Figure 7 to one cell. A flag value outside the names it takes exits
// 2, listing them, before any artifact opens.
//
// The artifact flags -metrics, -ledger, -trace-out, -series,
// -cpuprofile and -memprofile are the ones every experiment CLI shares
// (internal/cli, OBSERVABILITY.md). A failed cell, -timeout and
// SIGINT/SIGTERM flush partial artifacts and exit non-zero. With -exp
// all, each experiment writes its own metrics, trace and series with
// the experiment name spliced into the file name (metrics.prom →
// metrics-fig7.prom), and so does -study sweep -knob all with each
// knob's name. Cells served from -cache-dir replay their cached
// metric snapshots but contribute no trace events. -series bypasses the
// result cache entirely (cached cells would replay no samples), so
// sampled runs neither read nor write -cache-dir entries.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"hpmmap/internal/cli"
	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/ledger"
	"hpmmap/internal/runner"
)

func main() {
	art := cli.Register("hpmmap-bench")
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig3|fig4|fig5|fig7|fig8|noise|attribution|all")
		scale    = flag.Float64("scale", 1.0, "problem/memory scale factor (1.0 = paper size)")
		runs     = flag.Int("runs", 0, "repetitions per cell (0 = paper default of 10)")
		seed     = flag.Uint64("seed", 0, "base seed (0 = default)")
		benches  = flag.String("bench", "", "comma-separated benchmarks (fig7/fig8; a study takes the first)")
		cores    = flag.String("cores", "", "comma-separated core counts (fig7; a study takes the first as its rank count)")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU; results identical at any count)")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long (0 = no timeout)")
		cacheDir = flag.String("cache-dir", "", "fig7, fig8, chaos, datacenter and eviction: JSON result cache reusing per-cell results keyed by exp/cell/seed/plan inputs (scale, study options)/model-version (the other experiments never read it)")
		verbose  = flag.Bool("v", false, "print per-cell progress with done/total and ETA")
		plotW    = flag.Int("plot-width", 100, "timeline plot width")
		plotH    = flag.Int("plot-height", 18, "timeline plot height (faulttrace study: 0 = no scatter)")
		outDir   = flag.String("out", "", "also write machine-readable CSVs into this directory")

		studyFlag   = flag.String("study", "", "study (runs instead of -exp): chaos = contention-storm sweep of chaos intensity x manager; datacenter = mixed-tenancy pod-churn sweep with per-class tail latency; eviction = overcommit x node-failure sweep with per-priority eviction and crash-loop backoff; probe = one cell's diagnostics; faulttrace = per-fault study of Figs. 2-5 for any bench; sweep = sensitivity sweep of a calibrated constant")
		manager     = flag.String("manager", "thp", "probe and faulttrace studies: memory manager thp|hugetlbfs|hpmmap (faulttrace: thp|hugetlbfs)")
		profile     = flag.String("profile", "", "probe and sweep studies: commodity profile none|A|B (default: probe A, sweep B)")
		knobFlag    = flag.String("knob", "all", "sweep study: calibrated constant to sweep: thp-frag|reclaim-prob|reclaim-tail|merge-period|store-cycles|mem-latency|all")
		hist        = flag.String("hist", "", "faulttrace study: also print a cost histogram of this fault kind: small|large|merge|hugetlb-large|hugetlb-small")
		churns      = flag.String("churns", "", "datacenter study: comma-separated pod arrival rates in pods/sec (default 0,50,200; 0 is the interference baseline); eviction study: single fixed rate (default 200)")
		overcommits = flag.String("overcommits", "", "eviction study: comma-separated limits:requests overcommit ratios (default 1,1.5,2; 1 disables the failure domain and is the interference baseline)")
		audit       = flag.Bool("audit", false, "chaos, datacenter and eviction studies: attach the invariant auditor to every cell's node (schedules extra events, so it changes sim_events_total)")
		intensities = flag.String("intensities", "", "chaos, datacenter and eviction studies: comma-separated chaos intensities in [0,1] (default: chaos 0,0.25,0.5,0.75,1; datacenter and eviction 0,0.75)")
		chaosPoison = flag.Int("chaos-poison", -1, "chaos study: inject a deliberate invariant violation into this plan cell (>= 1) to drill the quarantine path; -1 = off")
		cellTimeout = flag.Duration("cell-timeout", 0, "chaos, datacenter and eviction studies: per-cell wall-clock budget (0 = none)")
		failFast    = flag.Bool("fail-fast", false, "chaos study: abort on the first cell failure instead of quarantining it as an annotated hole")
	)
	flag.Parse()

	// The runner delivers progress through a serialized sink, so this
	// callback may write to stderr without locking.
	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg) }
	}
	sc := experiments.Scale(*scale)
	var ctx context.Context // set by art.Start before anything runs
	var cache *runner.Cache
	study := func() experiments.FaultStudyOptions {
		return experiments.FaultStudyOptions{
			Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Progress: progress,
		}
	}

	// weakScaling runs Fig. 7 or Fig. 8 — one study on two rigs — and
	// writes its table and its CSV, whose axis column is named axis.
	// counts overrides the figure's core (rank) counts.
	weakScaling := func(name, axis string, run func(experiments.Fig7Options) ([]experiments.Fig7Panel, error),
		write func(io.Writer, []experiments.Fig7Panel), counts []int) error {
		panels, err := run(experiments.Fig7Options{
			Runs:       *runs,
			Seed:       *seed,
			Scale:      sc,
			Progress:   progress,
			Benches:    splitList(*benches),
			CoreCounts: counts,
			Workers:    *workers,
			Context:    ctx,
			Cache:      cache,
			Obs:        art.Observe(name),
		})
		if err != nil {
			return err
		}
		write(os.Stdout, panels)
		lines := []string{"bench,profile,manager," + axis + ",mean_sec,stdev_sec"}
		for _, p := range panels {
			for _, s := range p.Series {
				for _, pt := range s.Points {
					lines = append(lines, fmt.Sprintf("%s,%s,%s,%d,%.3f,%.3f",
						p.Bench, p.Profile, s.Kind, pt.Cores, pt.MeanSec, pt.StdevSec))
				}
			}
		}
		if err := writeOut(*outDir, name+".csv", csvLines(lines)); err != nil {
			return err
		}
		return art.Flush()
	}

	// The experiments, in the order -exp all runs them.
	exps := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error {
			o := study()
			o.Obs = art.Observe("fig2")
			fs, err := experiments.Fig2(o)
			if err != nil {
				return err
			}
			experiments.WriteFaultStudy(os.Stdout, fs)
			return art.Flush()
		}},
		{"fig3", func() error {
			o := study()
			o.Obs = art.Observe("fig3")
			fs, err := experiments.Fig3(o)
			if err != nil {
				return err
			}
			experiments.WriteFaultStudy(os.Stdout, fs)
			return art.Flush()
		}},
		{"fig4", func() error {
			o := study()
			o.Obs = art.Observe("fig4")
			tls, err := experiments.Fig4(o)
			if err != nil {
				return err
			}
			experiments.WriteTimelines(os.Stdout, "Figure 4: THP fault timeline, miniMD", tls, *plotW, *plotH)
			return art.Flush()
		}},
		{"fig5", func() error {
			o := study()
			o.Obs = art.Observe("fig5")
			tls, err := experiments.Fig5(o)
			if err != nil {
				return err
			}
			experiments.WriteTimelines(os.Stdout, "Figure 5: HugeTLBfs fault timelines", tls, *plotW, *plotH)
			return art.Flush()
		}},
		{"fig7", func() error {
			var counts []int
			for _, c := range splitList(*cores) {
				v, err := strconv.Atoi(c)
				if err != nil {
					return fmt.Errorf("bad -cores entry %q", c)
				}
				counts = append(counts, v)
			}
			return weakScaling("fig7", "cores", experiments.Fig7, experiments.WriteFig7, counts)
		}},
		{"noise", func() error {
			points, err := experiments.NoiseStudy(experiments.NoiseStudyOptions{
				Seed: *seed, Scale: sc,
				Workers: *workers, Context: ctx, Progress: progress,
				Obs: art.Observe("noise"),
			})
			if err != nil {
				return err
			}
			fmt.Println("=== BSP noise-amplification study (HPMMAP-managed HPCCG, synthetic detours) ===")
			fmt.Print(experiments.WriteNoiseStudy(points))
			return art.Flush()
		}},
		{"attribution", func() error {
			o := experiments.AttributionStudyOptions{
				Seed: *seed, Scale: sc,
				Workers: *workers, Context: ctx, Progress: progress,
				Obs: art.Observe("attribution"),
			}
			if bs := splitList(*benches); len(bs) > 0 {
				o.Bench = bs[0]
			}
			cells, err := experiments.RunAttributionStudy(o)
			if err != nil {
				return err
			}
			fmt.Println("=== Barrier noise attribution (per-manager straggler decomposition) ===")
			if err := experiments.WriteAttributionStudy(os.Stdout, cells); err != nil {
				return err
			}
			return art.Flush()
		}},
		{"fig8", func() error {
			return weakScaling("fig8", "ranks", experiments.Fig8, experiments.WriteFig8, nil)
		}},
	}
	studies := []struct {
		name string
		run  func(studyArgs) error
		// cached marks a study -cache-dir may serve: its plans key
		// every input that changes a cell.
		cached bool
	}{
		{"chaos", runChaosStudy, true},
		{"datacenter", runDatacenterStudy, true},
		{"eviction", runEvictionStudy, true},
		{"probe", runProbe, false},
		{"faulttrace", runFaultTrace, false},
		{"sweep", runSweep, false},
	}

	// Reject every bad flag value before anything opens.
	art.CheckRunsScale(*runs, *scale)
	var expNames, studyNames []string
	for _, e := range exps {
		expNames = append(expNames, e.name)
	}
	for _, s := range studies {
		studyNames = append(studyNames, s.name)
	}
	var runStudy func(studyArgs) error
	cached := true
	if *studyFlag != "" {
		s := studies[oneOf("study", *studyFlag, studyNames)]
		runStudy, cached = s.run, s.cached
	}
	oneOf("exp", *exp, append(expNames, "all"))
	a := studyArgs{
		seed: *seed, scale: sc, runs: *runs, workers: *workers,
		benches: splitList(*benches), cores: splitList(*cores),
		churns: splitList(*churns), overcommits: splitList(*overcommits),
		intensities: splitList(*intensities),
		audit:       *audit, poison: *chaosPoison,
		cellTimeout: *cellTimeout, failFast: *failFast,
		outDir: *outDir, plotW: *plotW, plotH: *plotH,
		kind: managerChoices[oneOf("manager", *manager, keys(managerChoices, experiments.ManagerKind.Key))],
		knob: *knobFlag,
	}
	oneOf("knob", *knobFlag, append(keys(knobs, func(k knob) string { return k.name }), "all"))
	if *profile != "" {
		p := profileChoices[oneOf("profile", *profile, keys(profileChoices, experiments.Profile.String))]
		a.profile = &p
	}
	if *hist != "" {
		k := histChoices[oneOf("hist", *hist, keys(histChoices, fault.Kind.String))]
		a.hist = &k
	}
	if *studyFlag == "faulttrace" && a.kind == experiments.HPMMAP {
		fmt.Fprintf(os.Stderr, "hpmmap-bench: unknown manager %q (hpmmap takes no faults — nothing to trace)\n", *manager)
		os.Exit(2)
	}

	if *cacheDir != "" && cached {
		var err error
		cache, err = runner.NewCache(*cacheDir, experiments.ModelVersion)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	ctx = art.Start(cli.Run{
		Meta: ledger.Meta{
			Model: experiments.ModelVersion,
			Scale: *scale,
			Flags: map[string]string{"exp": *exp, "study": *studyFlag},
		},
		Timeout: *timeout,
		Multi:   (runStudy == nil && *exp == "all") || (*studyFlag == "sweep" && *knobFlag == "all"),
		Cache:   cache,
	})

	if runStudy != nil {
		a.ctx, a.art, a.cache, a.progress = ctx, art, cache, progress
		if err := runStudy(a); err != nil {
			art.Fatal(fmt.Errorf("%s: %w", *studyFlag, err))
		}
		art.Done()
		return
	}
	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			art.Fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	art.Done()
}

// studyArgs carries the flag surface into the studies.
type studyArgs struct {
	ctx                              context.Context
	art                              *cli.Artifacts
	cache                            *runner.Cache
	progress                         func(string)
	seed                             uint64
	scale                            experiments.Scale
	runs, workers                    int
	benches, cores                   []string
	churns, overcommits, intensities []string
	audit                            bool
	poison                           int
	cellTimeout                      time.Duration
	failFast                         bool
	outDir                           string
	plotW, plotH                     int
	kind                             experiments.ManagerKind
	profile                          *experiments.Profile // nil = the study's default
	knob                             string
	hist                             *fault.Kind // nil = no histogram
}

// bench is the -bench override of a study's benchmark ("" = default).
func (a studyArgs) bench() string {
	if len(a.benches) > 0 {
		return a.benches[0]
	}
	return ""
}

// ranks is the -cores override of a study's rank count (0 = default).
func (a studyArgs) ranks() (int, error) {
	if len(a.cores) == 0 {
		return 0, nil
	}
	v, err := strconv.Atoi(a.cores[0])
	if err != nil {
		return 0, fmt.Errorf("bad -cores entry %q", a.cores[0])
	}
	return v, nil
}

// profileOr is the -profile override of a study's commodity profile.
func (a studyArgs) profileOr(def experiments.Profile) experiments.Profile {
	if a.profile != nil {
		return *a.profile
	}
	return def
}

// oneOf returns v's index in names, or reports the names and exits 2,
// before any artifact opens.
func oneOf(flagName, v string, names []string) int {
	i := slices.Index(names, v)
	if i < 0 {
		fmt.Fprintf(os.Stderr, "hpmmap-bench: unknown -%s %q (supported: %s)\n", flagName, v, strings.Join(names, ", "))
		os.Exit(2)
	}
	return i
}

// keys returns the flag spelling of each value.
func keys[T any](vals []T, key func(T) string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = key(v)
	}
	return out
}

// floats parses a list flag, rejecting any entry ok refuses; want
// describes an acceptable entry for the error.
func floats(list []string, name, want string, ok func(float64) bool) ([]float64, error) {
	var out []float64
	for _, s := range list {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !ok(v) {
			return nil, fmt.Errorf("bad -%s entry %q (want %s)", name, s, want)
		}
		out = append(out, v)
	}
	return out, nil
}

func unitInterval(v float64) bool { return v >= 0 && v <= 1 }

// runChaosStudy drives the contention-storm study (-study chaos):
// chaos intensity x manager, with the runner's degradation machinery
// (quarantined holes, per-cell timeouts) and optionally the
// invariant auditor. A study with quarantined cells exits non-zero
// after rendering the partial figure and flushing its artifacts.
func runChaosStudy(a studyArgs) error {
	o := experiments.ChaosStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.art.Observe("chaos"),
		Audit: a.audit, PoisonCell: a.poison, Bench: a.bench(),
		CellTimeout: a.cellTimeout, DisableContinueOnError: a.failFast,
	}
	var err error
	if o.Cores, err = a.ranks(); err != nil {
		return err
	}
	if o.Intensities, err = floats(a.intensities, "intensities", "a number in [0,1]", unitInterval); err != nil {
		return err
	}
	s, err := experiments.ChaosStudyRun(o)
	if err != nil {
		return err
	}
	experiments.WriteChaosStudy(os.Stdout, s)
	lines := []string{"bench,manager,intensity,mean_sec,stdev_sec,runs,failed,degradation_pct"}
	for _, series := range s.Series {
		for _, pt := range series.Points {
			lines = append(lines, fmt.Sprintf("%s,%s,%.2f,%.3f,%.3f,%d,%d,%.1f",
				s.Bench, series.Kind, pt.Intensity, pt.MeanSec, pt.StdevSec,
				len(pt.Runs), pt.Failed, pt.DegradationPct))
		}
	}
	if err := writeOut(a.outDir, "chaos.csv", csvLines(lines)); err != nil {
		return err
	}
	if err := a.art.Flush(); err != nil {
		return err
	}
	if n := len(s.Failures); n > 0 {
		return fmt.Errorf("%d cell(s) quarantined; the figure above has annotated holes", n)
	}
	return nil
}

// runDatacenterStudy drives the mixed-tenancy pod-churn study
// (-study datacenter): churn rate x chaos intensity on one node
// carrying THP, HugeTLBfs and HPMMAP tenants, tabulating per-class
// tail fault latency and the HPC victim's interference.
func runDatacenterStudy(a studyArgs) error {
	o := experiments.DatacenterStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.art.Observe("datacenter"), Audit: a.audit,
		CellTimeout: a.cellTimeout, Bench: a.bench(),
	}
	var err error
	if o.Ranks, err = a.ranks(); err != nil {
		return err
	}
	if o.Churns, err = floats(a.churns, "churns", "a rate >= 0 in pods/sec", func(v float64) bool { return v >= 0 }); err != nil {
		return err
	}
	if o.Intensities, err = floats(a.intensities, "intensities", "a number in [0,1]", unitInterval); err != nil {
		return err
	}
	s, err := experiments.DatacenterStudyRun(o)
	if err != nil {
		return err
	}
	experiments.WriteDatacenterStudy(os.Stdout, s)
	if err := writeOut(a.outDir, "datacenter.csv", func(w io.Writer) error { return experiments.WriteDatacenterCSV(w, s) }); err != nil {
		return err
	}
	return a.art.Flush()
}

// runEvictionStudy drives the failure-domain study (-study eviction):
// limits:requests overcommit x node-failure chaos intensity on one
// mixed-tenancy node, tabulating per-priority eviction and crash-loop
// restart counts, the backoff distribution, per-class fault tails and
// the HPC victim's interference.
func runEvictionStudy(a studyArgs) error {
	o := experiments.EvictionStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.art.Observe("eviction"), Audit: a.audit,
		CellTimeout: a.cellTimeout, Bench: a.bench(),
	}
	var err error
	if o.Ranks, err = a.ranks(); err != nil {
		return err
	}
	if o.Overcommits, err = floats(a.overcommits, "overcommits", "a ratio >= 1", func(v float64) bool { return v >= 1 }); err != nil {
		return err
	}
	if o.Chaos, err = floats(a.intensities, "intensities", "a number in [0,1]", unitInterval); err != nil {
		return err
	}
	if len(a.churns) > 0 {
		churn, err := floats(a.churns[:1], "churns", "a rate > 0 in pods/sec", func(v float64) bool { return v > 0 })
		if err != nil {
			return err
		}
		o.Churn = churn[0]
	}
	s, err := experiments.EvictionStudyRun(o)
	if err != nil {
		return err
	}
	experiments.WriteEvictionStudy(os.Stdout, s)
	if err := writeOut(a.outDir, "eviction.csv", func(w io.Writer) error { return experiments.WriteEvictionCSV(w, s) }); err != nil {
		return err
	}
	return a.art.Flush()
}

// writeOut writes one machine-readable file into the -out directory,
// creating it; a no-op without -out.
func writeOut(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return cli.WriteFile(filepath.Join(dir, name), write)
}

// csvLines writes lines, each newline-terminated.
func csvLines(lines []string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
		return err
	}
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

// Command hpmmap-bench regenerates the paper's tables and figures and
// runs the reproduction's robustness and calibration studies.
//
// Usage:
//
//	hpmmap-bench -exp fig2            # THP fault-cost table (Fig. 2), paper vs measured
//	hpmmap-bench -exp fig3            # HugeTLBfs fault-cost table (Fig. 3), paper vs measured
//	hpmmap-bench -exp fig4            # THP fault timeline (Fig. 4)
//	hpmmap-bench -exp fig5            # HugeTLBfs fault timelines (Fig. 5)
//	hpmmap-bench -exp fig7 -workers 8 # single-node weak scaling (Fig. 7)
//	hpmmap-bench -exp fig8            # 8-node scaling study (Fig. 8)
//	hpmmap-bench -exp noise           # BSP noise-amplification study
//	hpmmap-bench -exp attribution     # barrier noise-attribution study
//	hpmmap-bench -exp all             # the eight runs above
//
// fig2 and fig3 follow their fault table with its rows beside the
// paper's published numbers, as markdown: | Load | Fault | Paper count
// | ... | Measured stdev |.
//
// -exp also takes the robustness studies, which -exp all leaves out:
//
//	hpmmap-bench -exp chaos                      # contention-storm sweep
//	hpmmap-bench -exp chaos -audit               # + invariant auditor per cell
//	hpmmap-bench -exp chaos -chaos-poison 3      # quarantine drill: poison cell 3
//	hpmmap-bench -exp datacenter -out out        # pod churn x chaos, CSV to out/
//	hpmmap-bench -exp datacenter -churns 0,500   # override the churn sweep
//	hpmmap-bench -exp eviction -out out          # overcommit x node failures
//	hpmmap-bench -exp eviction -overcommits 1,2  # override the overcommit sweep
//
// and the single-node calibration studies, which it leaves out too:
//
//	hpmmap-bench -exp probe -cores 2             # one cell's diagnostics
//	hpmmap-bench -exp faulttrace -hist small     # per-fault study, any bench
//	hpmmap-bench -exp faulttrace -out out        # + faulttrace.csv
//	hpmmap-bench -exp sweep -knob thp-frag       # sensitivity sweep
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
// value keeps the study's own default.
//
// Every run executes through the internal/runner worker pool: -workers
// bounds the pool (0 = one worker per CPU) and results are
// byte-identical at any worker count, -timeout cancels a stuck run, and
// -cache-dir memoizes per-cell results of fig7, fig8 and the chaos,
// datacenter and eviction studies, so re-invocations only simulate
// changed cells; it opens only when one of those runs, and the others
// never read it. -scale shrinks the run (memory, footprints,
// iterations) for quick runs; -runs overrides the paper's 10
// repetitions. -bench narrows fig7 and fig8 to the benchmarks it lists
// (HPCCG, CoMD, miniMD, miniFE, LAMMPS, spelled so), and attribution
// and each study take its first entry; -cores narrows fig7 to the core
// counts it lists, and a study takes its first entry as its rank
// count. A flag value outside the names it takes exits 2,
// listing them, and so does a malformed or out-of-range -runs, -scale,
// -cores, -churns, -overcommits or -intensities value, before any
// artifact opens.
//
// The artifact flags -metrics, -ledger, -trace-out, -series,
// -cpuprofile and -memprofile come from internal/cli
// (OBSERVABILITY.md). A failed cell, -timeout and SIGINT/SIGTERM flush
// partial artifacts and exit non-zero. With -exp all, each run writes
// its own metrics, trace and series with its name spliced into the
// file name (metrics.prom → metrics-fig7.prom). -exp sweep -knob all
// sweeps every knob in one plan and writes one set. Cells served from
// -cache-dir replay their cached metric snapshots but contribute no
// trace events. -series bypasses the result cache entirely (cached
// cells would replay no samples), so sampled runs neither read nor
// write -cache-dir entries.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
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
	"hpmmap/internal/workload"
)

// entry is one run -exp selects.
type entry struct {
	name string
	run  func(studyArgs) error
	// cached marks a run -cache-dir serves: its plans key every input
	// that changes a cell.
	cached bool
}

// table holds every run -exp takes. -exp all runs the first eight: the
// paper's figures and the two noise studies.
var table = []entry{
	{"fig2", faultTable(experiments.Fig2), false},
	{"fig3", faultTable(experiments.Fig3), false},
	{"fig4", timelines(experiments.Fig4, "Figure 4: THP fault timeline, miniMD"), false},
	{"fig5", timelines(experiments.Fig5, "Figure 5: HugeTLBfs fault timelines"), false},
	{"fig7", weakScaling("fig7", "cores", experiments.Fig7, experiments.WriteFig7), true},
	{"noise", runNoise, false},
	{"attribution", runAttribution, false},
	{"fig8", weakScaling("fig8", "ranks", experiments.Fig8, experiments.WriteFig8), true},
	{"chaos", runChaosStudy, true},
	{"datacenter", runDatacenterStudy, true},
	{"eviction", runEvictionStudy, true},
	{"probe", runProbe, false},
	{"faulttrace", runFaultTrace, false},
	{"sweep", runSweep, false},
}

func main() {
	art := cli.Register("hpmmap-bench")
	var (
		exp      = flag.String("exp", "all", "run: fig2|fig3|fig4|fig5|fig7|noise|attribution|fig8, all (those eight), or a study: chaos = contention-storm sweep of chaos intensity x manager; datacenter = mixed-tenancy pod-churn sweep with per-class tail latency; eviction = overcommit x node-failure sweep with per-priority eviction and crash-loop backoff; probe = one cell's diagnostics; faulttrace = per-fault study of Figs. 2-5 for any bench; sweep = sensitivity sweep of a calibrated constant")
		scale    = flag.Float64("scale", 1.0, "problem/memory scale factor (1.0 = paper size)")
		runs     = flag.Int("runs", 0, "repetitions per cell (0 = paper default of 10)")
		seed     = flag.Uint64("seed", 0, "base seed (0 = default)")
		benches  = flag.String("bench", "", "comma-separated benchmarks "+strings.Join(workload.Names, "|")+" (fig7/fig8; attribution and a study take the first)")
		cores    = flag.String("cores", "", "comma-separated core counts >= 1 (fig7; a study takes the first as its rank count)")
		workers  = flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU; results identical at any count)")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long (0 = no timeout)")
		cacheDir = flag.String("cache-dir", "", "fig7, fig8, chaos, datacenter and eviction: JSON result cache reusing per-cell results keyed by exp/cell/seed/plan inputs (scale, study options)/model-version (opened only for these runs)")
		verbose  = flag.Bool("v", false, "print per-cell progress with done/total and ETA")
		plotW    = flag.Int("plot-width", 100, "timeline plot width")
		plotH    = flag.Int("plot-height", 18, "timeline plot height (faulttrace study: 0 = no scatter)")
		outDir   = flag.String("out", "", "also write machine-readable CSVs into this directory")

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

	// Reject every bad flag value before anything opens.
	if *runs < 0 {
		reject("bad -runs %d (want a count >= 0)", *runs)
	}
	if !(*scale >= 0) || math.IsInf(*scale, 1) {
		reject("bad -scale %v (want a finite factor >= 0)", *scale)
	}
	selected := table[:8]
	if i := oneOf("exp", *exp, append(keys(table, func(e entry) string { return e.name }), "all")); i < len(table) {
		selected = table[i : i+1]
	}
	a := studyArgs{
		seed: *seed, scale: experiments.Scale(*scale), runs: *runs, workers: *workers,
		benches: splitList(*benches),
		audit:   *audit, poison: *chaosPoison,
		cellTimeout: *cellTimeout, failFast: *failFast,
		outDir: *outDir, plotW: *plotW, plotH: *plotH,
		kind:  managerChoices[oneOf("manager", *manager, keys(managerChoices, experiments.ManagerKind.Key))],
		knobs: knobs,
	}
	for _, b := range a.benches {
		oneOf("bench", b, workload.Names)
	}
	for _, c := range splitList(*cores) {
		v, err := strconv.Atoi(c)
		if err != nil || v < 1 {
			reject("bad -cores entry %q (want a count >= 1)", c)
		}
		a.cores = append(a.cores, v)
	}
	if churnList := splitList(*churns); *exp == "eviction" {
		// The eviction study runs one churn rate, the first entry, and
		// it must be positive.
		a.churns = floats(churnList[:min(1, len(churnList))], "churns", "a rate > 0 in pods/sec", func(v float64) bool { return v > 0 })
	} else {
		a.churns = floats(churnList, "churns", "a rate >= 0 in pods/sec", func(v float64) bool { return v >= 0 })
	}
	a.overcommits = floats(splitList(*overcommits), "overcommits", "a ratio >= 1", func(v float64) bool { return v >= 1 })
	a.intensities = floats(splitList(*intensities), "intensities", "a number in [0,1]", func(v float64) bool { return v >= 0 && v <= 1 })
	if i := oneOf("knob", *knobFlag, append(keys(knobs, func(k knob) string { return k.name }), "all")); i < len(knobs) {
		a.knobs = knobs[i : i+1]
	}
	if *profile != "" {
		p := profileChoices[oneOf("profile", *profile, keys(profileChoices, experiments.Profile.String))]
		a.profile = &p
	}
	if *hist != "" {
		k := histChoices[oneOf("hist", *hist, keys(histChoices, fault.Kind.String))]
		a.hist = &k
	}
	if *exp == "faulttrace" && a.kind == experiments.HPMMAP {
		reject("unknown manager %q (hpmmap takes no faults — nothing to trace)", *manager)
	}

	var cache *runner.Cache
	if *cacheDir != "" && slices.ContainsFunc(selected, func(e entry) bool { return e.cached }) {
		var err error
		cache, err = runner.NewCache(*cacheDir, experiments.ModelVersion)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// The runner delivers progress through a serialized sink, so this
	// callback may write to stderr without locking.
	a.progress = func(string) {}
	if *verbose {
		a.progress = func(msg string) { fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg) }
	}
	a.ctx = art.Start(cli.Run{
		Meta: ledger.Meta{
			Model: experiments.ModelVersion,
			Scale: *scale,
			Flags: map[string]string{"exp": *exp},
		},
		Timeout: *timeout,
		Multi:   len(selected) > 1,
		Cache:   cache,
	})
	for _, e := range selected {
		start := time.Now()
		a.obs, a.cache = art.Observe(e.name), nil
		if e.cached {
			a.cache = cache
		}
		err := e.run(a)
		if err == nil {
			err = art.Flush()
		}
		if err != nil {
			art.Fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %s]\n", e.name, time.Since(start).Round(time.Millisecond))
		}
	}
	art.Done()
}

// studyArgs carries the flag surface, and the run's collector and
// cache, into a run.
type studyArgs struct {
	ctx                              context.Context
	obs                              *runner.Observations
	cache                            *runner.Cache // nil unless -cache-dir serves the run
	progress                         func(string)
	seed                             uint64
	scale                            experiments.Scale
	runs, workers                    int
	benches                          []string
	cores                            []int
	churns, overcommits, intensities []float64
	audit                            bool
	poison                           int
	cellTimeout                      time.Duration
	failFast                         bool
	outDir                           string
	plotW, plotH                     int
	kind                             experiments.ManagerKind
	profile                          *experiments.Profile // nil = the study's default
	knobs                            []knob
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
func (a studyArgs) ranks() int {
	if len(a.cores) > 0 {
		return a.cores[0]
	}
	return 0
}

// profileOr is the -profile override of a study's commodity profile.
func (a studyArgs) profileOr(def experiments.Profile) experiments.Profile {
	if a.profile != nil {
		return *a.profile
	}
	return def
}

// faultStudy is the per-fault study options every fault-study run
// shares.
func (a studyArgs) faultStudy() experiments.FaultStudyOptions {
	return experiments.FaultStudyOptions{
		Seed: a.seed, Scale: a.scale,
		Workers: a.workers, Context: a.ctx, Progress: a.progress, Obs: a.obs,
	}
}

// reject reports a bad flag value and exits 2, before any artifact
// opens.
func reject(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hpmmap-bench: "+format+"\n", args...)
	os.Exit(2)
}

// oneOf returns v's index in names, or reports the names and exits 2.
func oneOf(flagName, v string, names []string) int {
	i := slices.Index(names, v)
	if i < 0 {
		reject("unknown -%s %q (supported: %s)", flagName, v, strings.Join(names, ", "))
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

// floats parses a list flag, or rejects the first entry ok refuses;
// want describes an acceptable entry.
func floats(list []string, name, want string, ok func(float64) bool) []float64 {
	var out []float64
	for _, s := range list {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || !ok(v) {
			reject("bad -%s entry %q (want %s)", name, s, want)
		}
		out = append(out, v)
	}
	return out
}

// faultTable returns the driver of Fig. 2 or Fig. 3, which prints the
// figure's fault table, then the same rows beside the paper's numbers.
func faultTable(run func(experiments.FaultStudyOptions) (experiments.FaultStudy, error)) func(studyArgs) error {
	return func(a studyArgs) error {
		fs, err := run(a.faultStudy())
		if err != nil {
			return err
		}
		experiments.WriteFaultStudy(os.Stdout, fs)
		fmt.Println()
		experiments.WriteFaultStudyVsPaper(os.Stdout, fs)
		return nil
	}
}

// timelines returns the driver of Fig. 4 or Fig. 5, which plots the
// figure's fault timelines under title.
func timelines(run func(experiments.FaultStudyOptions) ([]experiments.Timeline, error), title string) func(studyArgs) error {
	return func(a studyArgs) error {
		tls, err := run(a.faultStudy())
		if err != nil {
			return err
		}
		experiments.WriteTimelines(os.Stdout, title, tls, a.plotW, a.plotH)
		return nil
	}
}

// weakScaling returns the driver of Fig. 7 or Fig. 8 — one study on two
// rigs — which prints the figure's table and writes its CSV, name.csv,
// whose axis column is named axis. -cores narrows the cores axis of
// Fig. 7; Fig. 8's ranks keep the figure's counts.
func weakScaling(name, axis string, run func(experiments.Fig7Options) ([]experiments.Fig7Panel, error),
	write func(io.Writer, []experiments.Fig7Panel)) func(studyArgs) error {
	return func(a studyArgs) error {
		o := experiments.Fig7Options{
			Runs: a.runs, Seed: a.seed, Scale: a.scale, Progress: a.progress,
			Benches: a.benches, Workers: a.workers, Context: a.ctx,
			Cache: a.cache, Obs: a.obs,
		}
		if axis == "cores" {
			o.CoreCounts = a.cores
		}
		panels, err := run(o)
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
		return writeOut(a.outDir, name+".csv", csvLines(lines))
	}
}

// runNoise drives the BSP noise-amplification study (-exp noise).
func runNoise(a studyArgs) error {
	points, err := experiments.NoiseStudy(experiments.NoiseStudyOptions{
		Seed: a.seed, Scale: a.scale,
		Workers: a.workers, Context: a.ctx, Progress: a.progress, Obs: a.obs,
	})
	if err != nil {
		return err
	}
	fmt.Println("=== BSP noise-amplification study (HPMMAP-managed HPCCG, synthetic detours) ===")
	fmt.Print(experiments.WriteNoiseStudy(points))
	return nil
}

// runAttribution drives the barrier noise-attribution study (-exp
// attribution).
func runAttribution(a studyArgs) error {
	cells, err := experiments.RunAttributionStudy(experiments.AttributionStudyOptions{
		Bench: a.bench(), Seed: a.seed, Scale: a.scale,
		Workers: a.workers, Context: a.ctx, Progress: a.progress, Obs: a.obs,
	})
	if err != nil {
		return err
	}
	fmt.Println("=== Barrier noise attribution (per-manager straggler decomposition) ===")
	return experiments.WriteAttributionStudy(os.Stdout, cells)
}

// runChaosStudy drives the contention-storm study (-exp chaos):
// chaos intensity x manager, with the runner's degradation machinery
// (quarantined holes, per-cell timeouts) and optionally the
// invariant auditor. A study with quarantined cells exits non-zero
// after rendering the partial figure.
func runChaosStudy(a studyArgs) error {
	o := experiments.ChaosStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs,
		Audit: a.audit, PoisonCell: a.poison, Bench: a.bench(),
		CellTimeout: a.cellTimeout, DisableContinueOnError: a.failFast,
		Cores: a.ranks(), Intensities: a.intensities,
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
	if n := len(s.Failures); n > 0 {
		return fmt.Errorf("%d cell(s) quarantined; the figure above has annotated holes", n)
	}
	return nil
}

// runDatacenterStudy drives the mixed-tenancy pod-churn study
// (-exp datacenter): churn rate x chaos intensity on one node
// carrying THP, HugeTLBfs and HPMMAP tenants, tabulating per-class
// tail fault latency and the HPC victim's interference.
func runDatacenterStudy(a studyArgs) error {
	o := experiments.DatacenterStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs, Audit: a.audit,
		CellTimeout: a.cellTimeout, Bench: a.bench(),
		Ranks: a.ranks(), Churns: a.churns, Intensities: a.intensities,
	}
	s, err := experiments.DatacenterStudyRun(o)
	if err != nil {
		return err
	}
	experiments.WriteDatacenterStudy(os.Stdout, s)
	return writeOut(a.outDir, "datacenter.csv", func(w io.Writer) error { return experiments.WriteDatacenterCSV(w, s) })
}

// runEvictionStudy drives the failure-domain study (-exp eviction):
// limits:requests overcommit x node-failure chaos intensity on one
// mixed-tenancy node, tabulating per-priority eviction and crash-loop
// restart counts, the backoff distribution, per-class fault tails and
// the HPC victim's interference.
func runEvictionStudy(a studyArgs) error {
	o := experiments.EvictionStudyOptions{
		Seed: a.seed, Scale: a.scale, Runs: a.runs,
		Workers: a.workers, Context: a.ctx, Progress: a.progress,
		Cache: a.cache, Obs: a.obs, Audit: a.audit,
		CellTimeout: a.cellTimeout, Bench: a.bench(),
		Ranks: a.ranks(), Overcommits: a.overcommits, Chaos: a.intensities,
	}
	if len(a.churns) > 0 {
		o.Churn = a.churns[0]
	}
	s, err := experiments.EvictionStudyRun(o)
	if err != nil {
		return err
	}
	experiments.WriteEvictionStudy(os.Stdout, s)
	return writeOut(a.outDir, "eviction.csv", func(w io.Writer) error { return experiments.WriteEvictionCSV(w, s) })
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

// Command hpmmap-report runs the paper's full evaluation and emits a
// markdown report in the structure of EXPERIMENTS.md: fault-cost tables
// with paper-versus-measured columns, runtime tables for the scaling
// studies, and the headline improvement summaries. Use -scale to trade
// fidelity for time, -workers to parallelize the sweeps, and -cache-dir
// to regenerate the report without re-simulating unchanged cells (cache
// entries are keyed by experiment/cell/seed/scale/model-version, so a
// simulator change invalidates them automatically).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/fault"
	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// The paper's published numbers, for the side-by-side columns.
var paperFig2 = map[string][2][3]float64{
	// kind -> [unloaded, loaded] x [count, avg, stdev]
	"small": {{136004, 1768, 993}, {135987, 2206, 1444}},
	"large": {{1060, 367675, 65663}, {1060, 757598, 61439}},
	"merge": {{30, 1005412, 503422}, {45, 3360292, 4017001}},
}

var paperFig3 = map[string][2][3]float64{
	"hugetlb-small": {{1310, 1350, 1683}, {1777, 475724, 16387888}},
	"hugetlb-large": {{84, 735384, 458239}, {75, 615162, 225726}},
}

func main() {
	scale := flag.Float64("scale", 1.0, "problem/memory scale")
	runs := flag.Int("runs", 0, "runs per cell (0 = paper's 10)")
	seed := flag.Uint64("seed", 0, "base seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "cancel the report generation after this long (0 = none)")
	cacheDir := flag.String("cache-dir", "", "reuse cached per-cell results from this directory")
	verbose := flag.Bool("v", false, "per-cell progress with ETA on stderr")
	skipFig7 := flag.Bool("skip-fig7", false, "skip the single-node sweep")
	skipFig8 := flag.Bool("skip-fig8", false, "skip the cluster sweep")
	metricsOut := flag.String("metrics", "", `write the report's merged metric snapshot to this file ("-" = stderr-free stdout is taken by the report, so "-" is rejected; .json = JSON, .prom = OpenMetrics, else text)`)
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON per section (name spliced in: trace.json -> trace-fig2.json)")
	seriesOut := flag.String("series", "", "write per-cell time-series samples as CSV per section (name spliced in: series.csv -> series-fig7.csv); sampling bypasses the result cache")
	ledgerOut := flag.String("ledger", "", "append a JSONL run ledger of every section's plan to this file; inspect with hpmmap-ledger")
	flag.Parse()
	if *metricsOut == "-" {
		fmt.Fprintln(os.Stderr, "hpmmap-report: -metrics - is unsupported (stdout carries the report); use a file path")
		os.Exit(2)
	}
	sc := experiments.Scale(*scale)

	// SIGINT/SIGTERM cancels the sweeps; completed sections still flush
	// their partial -metrics artifact before the process exits non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		cache, err = runner.NewCache(*cacheDir, experiments.ModelVersion)
		must(err)
	}
	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintf(os.Stderr, "%s\n", msg) }
	}

	fmt.Printf("# HPMMAP reproduction report\n\nGenerated %s at scale %.2f.\n\n",
		time.Now().Format("2006-01-02 15:04"), *scale)

	section := func(title string) { fmt.Printf("\n## %s\n\n", title) }

	// Per-section observability collectors: one per experiment so cell
	// indexes (trace pids) never collide. Metrics merge into one file at
	// the end; traces are written per section.
	var led *ledger.Ledger
	if *ledgerOut != "" {
		var err error
		led, err = ledger.Open(*ledgerOut, ledger.Meta{
			Model: experiments.ModelVersion,
			Scale: *scale,
			Flags: map[string]string{"exp": "report"},
		})
		must(err)
	}
	closeLedger := func() {
		if led == nil {
			return
		}
		if cache != nil {
			led.CacheCorrupt(cache.CorruptCount())
		}
		if err := led.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hpmmap-report: ledger: %v\n", err)
		}
		led = nil
	}

	observing := *metricsOut != "" || *traceOut != "" || *seriesOut != "" || led != nil
	var obsSnaps []metrics.Snapshot
	obsFor := func(name string) *runner.Observations {
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
	// splice turns artifact.ext into artifact-name.ext for per-section files.
	splice := func(base, name string) string {
		ext := filepath.Ext(base)
		return strings.TrimSuffix(base, ext) + "-" + name + ext
	}
	collect := func(name string, obs *runner.Observations) {
		if obs == nil {
			return
		}
		obsSnaps = append(obsSnaps, obs.Merged())
		if *traceOut != "" {
			f, err := os.Create(splice(*traceOut, name))
			must(err)
			must(obs.WriteTrace(f))
			must(f.Close())
		}
		if *seriesOut != "" {
			f, err := os.Create(splice(*seriesOut, name))
			must(err)
			must(obs.WriteSeriesCSV(f))
			must(f.Close())
		}
	}

	// writeMergedMetrics flushes whatever sections completed so far; on a
	// cancelled or failed run the partial artifact is still written.
	writeMergedMetrics := func() error {
		if *metricsOut == "" || len(obsSnaps) == 0 {
			return nil
		}
		merged := metrics.Merge(obsSnaps...)
		write := merged.WriteText
		switch {
		case strings.HasSuffix(*metricsOut, ".json"):
			write = merged.WriteJSON
		case strings.HasSuffix(*metricsOut, ".prom"):
			write = merged.WriteOpenMetrics
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	// fail aborts the report but flushes partial observability artifacts
	// first (the interruption satellite: ^C mid-report keeps the metrics
	// of every section that finished).
	fail := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		if ferr := writeMergedMetrics(); ferr != nil {
			fmt.Fprintf(os.Stderr, "hpmmap-report: flushing partial metrics: %v\n", ferr)
		}
		closeLedger()
		os.Exit(1)
	}

	study := experiments.FaultStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
	}

	section("Figure 2 — THP fault costs (miniMD)")
	s2 := study
	obs := obsFor("fig2")
	s2.Obs = obs
	fs, err := experiments.Fig2(s2)
	fail(err)
	faultTable(fs, paperFig2)
	collect("fig2", obs)

	section("Figure 3 — HugeTLBfs fault costs (miniMD)")
	s3 := study
	obs = obsFor("fig3")
	s3.Obs = obs
	fs, err = experiments.Fig3(s3)
	fail(err)
	faultTable(fs, paperFig3)
	collect("fig3", obs)

	if !*skipFig7 {
		section("Figure 7 — single-node weak scaling")
		obs = obsFor("fig7")
		panels, err := experiments.Fig7(experiments.Fig7Options{
			Runs: *runs, Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Cache: cache, Progress: progress,
			Obs: obs,
		})
		fail(err)
		experiments.WriteFig7(os.Stdout, panels)
		collect("fig7", obs)
	}
	if !*skipFig8 {
		section("Figure 8 — 8-node scaling study")
		obs = obsFor("fig8")
		panels, err := experiments.Fig8(experiments.Fig8Options{
			Runs: *runs, Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Cache: cache, Progress: progress,
			Obs: obs,
		})
		fail(err)
		experiments.WriteFig8(os.Stdout, panels)
		collect("fig8", obs)
	}

	section("BSP noise amplification (supplementary)")
	points, err := experiments.NoiseStudy(experiments.NoiseStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
	})
	fail(err)
	fmt.Println("```")
	fmt.Print(experiments.WriteNoiseStudy(points))
	fmt.Println("```")

	section("Barrier noise attribution (supplementary)")
	obs = obsFor("attribution")
	cells, err := experiments.RunAttributionStudy(experiments.AttributionStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
		Obs: obs,
	})
	fail(err)
	fmt.Println("```")
	must(experiments.WriteAttributionStudy(os.Stdout, cells))
	fmt.Println("```")
	collect("attribution", obs)

	must(writeMergedMetrics())
	closeLedger()
}

func faultTable(fs experiments.FaultStudy, paper map[string][2][3]float64) {
	fmt.Println("| Load | Fault | Paper count | Paper avg | Paper stdev | Measured count | Measured avg | Measured stdev |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for i, row := range fs.Rows {
		load := "No"
		if row.Loaded {
			load = "Yes"
		}
		for _, s := range row.Summaries {
			name := s.Kind.String()
			p, ok := paper[name]
			pc := [3]float64{}
			if ok {
				pc = p[i]
			}
			fmt.Printf("| %s | %s | %.0f | %.0f | %.0f | %d | %.0f | %.0f |\n",
				load, name, pc[0], pc[1], pc[2], s.Count, s.AvgCycles, s.StdevCycles)
		}
	}
	// Keep the compiler honest about the fault import (kind names).
	_ = fault.KindSmall
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

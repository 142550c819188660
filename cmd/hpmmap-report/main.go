// Command hpmmap-report runs the paper's full evaluation and emits a
// markdown report in the structure of EXPERIMENTS.md: fault-cost tables
// with paper-versus-measured columns, runtime tables for the scaling
// studies, and the headline improvement summaries. Use -scale to trade
// fidelity for time, -workers to parallelize the sweeps, and -cache-dir
// to regenerate the report without re-simulating unchanged cells (cache
// entries are keyed by experiment/cell/seed/scale/model-version, so a
// simulator change invalidates them automatically). The artifact flags
// every experiment CLI shares (internal/cli) write each section's
// metrics, trace and series to its own file, named after the section:
// metrics.prom becomes metrics-fig2.prom.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hpmmap/internal/cli"
	"hpmmap/internal/experiments"
	"hpmmap/internal/ledger"
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
	art := cli.Register("hpmmap-report")
	scale := flag.Float64("scale", 1.0, "problem/memory scale")
	runs := flag.Int("runs", 0, "runs per cell (0 = paper's 10)")
	seed := flag.Uint64("seed", 0, "base seed")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "cancel the report generation after this long (0 = none)")
	cacheDir := flag.String("cache-dir", "", "reuse cached per-cell results from this directory")
	verbose := flag.Bool("v", false, "per-cell progress with ETA on stderr")
	skipFig7 := flag.Bool("skip-fig7", false, "skip the single-node sweep")
	skipFig8 := flag.Bool("skip-fig8", false, "skip the cluster sweep")
	flag.Parse()
	art.CheckRunsScale(*runs, *scale)
	sc := experiments.Scale(*scale)

	var cache *runner.Cache
	if *cacheDir != "" {
		var err error
		cache, err = runner.NewCache(*cacheDir, experiments.ModelVersion)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Every section is its own experiment, so its metrics, trace and
	// series land in their own files (metrics.prom -> metrics-fig2.prom).
	ctx := art.Start(cli.Run{
		Meta:    ledger.Meta{Model: experiments.ModelVersion, Scale: *scale, Flags: map[string]string{"exp": "report"}},
		Timeout: *timeout,
		Multi:   true,
		Cache:   cache,
	})
	progress := func(string) {}
	if *verbose {
		progress = func(msg string) { fmt.Fprintf(os.Stderr, "%s\n", msg) }
	}
	// fail ends the report on the first error; the sections that
	// finished keep their artifacts.
	fail := func(err error) {
		if err != nil {
			art.Fatal(err)
		}
	}

	fmt.Printf("# HPMMAP reproduction report\n\nGenerated %s at scale %.2f.\n\n",
		time.Now().Format("2006-01-02 15:04"), *scale)

	section := func(title string) { fmt.Printf("\n## %s\n\n", title) }

	study := experiments.FaultStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
	}

	section("Figure 2 — THP fault costs (miniMD)")
	s2 := study
	s2.Obs = art.Observe("fig2")
	fs, err := experiments.Fig2(s2)
	fail(err)
	faultTable(fs, paperFig2)
	fail(art.Flush())

	section("Figure 3 — HugeTLBfs fault costs (miniMD)")
	s3 := study
	s3.Obs = art.Observe("fig3")
	fs, err = experiments.Fig3(s3)
	fail(err)
	faultTable(fs, paperFig3)
	fail(art.Flush())

	if !*skipFig7 {
		section("Figure 7 — single-node weak scaling")
		panels, err := experiments.Fig7(experiments.Fig7Options{
			Runs: *runs, Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Cache: cache, Progress: progress,
			Obs: art.Observe("fig7"),
		})
		fail(err)
		experiments.WriteFig7(os.Stdout, panels)
		fail(art.Flush())
	}
	if !*skipFig8 {
		section("Figure 8 — 8-node scaling study")
		panels, err := experiments.Fig8(experiments.Fig7Options{
			Runs: *runs, Seed: *seed, Scale: sc,
			Workers: *workers, Context: ctx, Cache: cache, Progress: progress,
			Obs: art.Observe("fig8"),
		})
		fail(err)
		experiments.WriteFig8(os.Stdout, panels)
		fail(art.Flush())
	}

	section("BSP noise amplification (supplementary)")
	points, err := experiments.NoiseStudy(experiments.NoiseStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
		Obs: art.Observe("noise"),
	})
	fail(err)
	fmt.Println("```")
	fmt.Print(experiments.WriteNoiseStudy(points))
	fmt.Println("```")
	fail(art.Flush())

	section("Barrier noise attribution (supplementary)")
	cells, err := experiments.RunAttributionStudy(experiments.AttributionStudyOptions{
		Seed: *seed, Scale: sc,
		Workers: *workers, Context: ctx, Progress: progress,
		Obs: art.Observe("attribution"),
	})
	fail(err)
	fmt.Println("```")
	fail(experiments.WriteAttributionStudy(os.Stdout, cells))
	fmt.Println("```")
	art.Done()
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
}

// Command hpmmap-perf measures the simulator's own performance — not
// the simulated application's — and emits a machine-readable benchmark
// record (BENCH_6.json by default) that tracks the repository's
// performance trajectory. It runs a reduced Figure 7 grid four ways
// with identical seeds — bare (no instrumentation), observed (metrics +
// trace attached, the PR 2 layer), sampled (series sampler on top), and
// ledgered (observed plus a run-ledger journal) — and reports
// wall-clock, cells per second, and the relative overheads. Sampler and
// ledger overheads compare against observed, isolating each layer from
// the rest of the instrumentation; their budgets are <= 5% and <= 2%
// respectively (see OBSERVABILITY.md).
//
// Single-run timings on a small CI box are noise-dominated (ISSUE 6:
// BENCH_5.json recorded a *negative* sampler overhead because one run's
// jitter swamped the signal), so each variant is timed -reps times in
// interleaved rounds (bare, observed, sampled, bare, ...) and the
// medians are reported. The record stores the resolved worker count
// (the pool size actually used), not the raw flag value.
//
// -baseline <file> compares the fresh cells/sec against a committed
// record and exits non-zero when throughput regressed more than
// -regress-pct (default 10%) — the `make bench` regression gate that
// keeps speedups pinned rather than anecdotal. A missing baseline, or
// one without a cells/sec figure (a pre-ISSUE-6 schema), is not a
// regression: the run says so, skips the gate, and seeds a fresh
// record for the next invocation to gate against.
//
// -cpuprofile / -memprofile write pprof profiles of the measured grid
// (see EXPERIMENTS.md "Profiling the simulator" for the recipe).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpmmap/internal/experiments"
	"hpmmap/internal/ledger"
	"hpmmap/internal/runner"
)

// record is the BENCH_N.json schema.
type record struct {
	Issue       int     `json:"issue"`
	GeneratedAt string  `json:"generated_at"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	Workers     int     `json:"workers"` // resolved pool size, not the flag
	Bench       string  `json:"bench"`
	Scale       float64 `json:"scale"`
	Runs        int     `json:"runs"`
	Cores       []int   `json:"cores"`
	Cells       int     `json:"cells"`
	TimingReps  int     `json:"timing_reps"`

	BareSec            float64 `json:"bare_sec"`     // median over reps
	ObservedSec        float64 `json:"observed_sec"` // median over reps
	SampledSec         float64 `json:"sampled_sec"`  // median over reps
	LedgeredSec        float64 `json:"ledgered_sec"` // median over reps
	CellsPerSec        float64 `json:"cells_per_sec"`
	ObserveOverheadPct float64 `json:"observe_overhead_pct"`
	SamplerOverheadPct float64 `json:"sampler_overhead_pct"`
	LedgerOverheadPct  float64 `json:"ledger_overhead_pct"` // ledgered vs bare; budget <= 2%
	SeriesSamples      float64 `json:"series_samples"`
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	out := flag.String("out", "BENCH_6.json", "write the benchmark record to this JSON file")
	scale := flag.Float64("scale", 0.25, "problem/memory scale for the measured grid")
	runs := flag.Int("runs", 2, "repetitions per cell")
	bench := flag.String("bench", "miniMD", "benchmark for the measured grid")
	cores := flag.String("cores", "1,2", "comma-separated core counts")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	reps := flag.Int("reps", 3, "timing repetitions per variant; medians are reported")
	baseline := flag.String("baseline", "", "compare cells/sec against this committed record and fail on regression")
	regressPct := flag.Float64("regress-pct", 10, "max tolerated cells/sec regression vs -baseline, in percent")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured grid to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (after the grid) to this file")
	ledgerOut := flag.String("ledger", "", "append this run's bench record to the given JSONL run ledger (created if missing)")
	flag.Parse()

	var coreCounts []int
	for _, c := range strings.Split(*cores, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -cores entry %q\n", c)
			os.Exit(2)
		}
		coreCounts = append(coreCounts, v)
	}
	if *reps < 1 {
		*reps = 1
	}

	// Read the baseline before measuring: `make bench` points -baseline at
	// the same path as -out, so the committed record must be captured
	// before the fresh one overwrites it. A missing baseline file is not
	// an error — first run on a fresh checkout seeds the record instead.
	var brec record
	haveBaseline := false
	if *baseline != "" {
		base, err := os.ReadFile(*baseline)
		switch {
		case err == nil:
			if err := json.Unmarshal(base, &brec); err != nil {
				fmt.Fprintf(os.Stderr, "hpmmap-perf: parsing baseline %s: %v\n", *baseline, err)
				os.Exit(1)
			}
			haveBaseline = true
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "hpmmap-perf: baseline %s missing; seeding baseline, regression gate skipped this run\n", *baseline)
		default:
			fmt.Fprintf(os.Stderr, "hpmmap-perf: reading baseline: %v\n", err)
			os.Exit(1)
		}
	}
	// A record without a cells/sec figure (zero value, or a schema from
	// before the field existed) must not gate: a comparison against 0
	// reads as an infinite speedup or a meaningless regression. Say why
	// the gate is skipped instead of silently passing.
	if haveBaseline && brec.CellsPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "hpmmap-perf: baseline %s has no cells/sec record; seeding baseline, regression gate skipped this run\n", *baseline)
		haveBaseline = false
	}

	opts := func(obs *runner.Observations) experiments.Fig7Options {
		return experiments.Fig7Options{
			Benches:    []string{*bench},
			Profiles:   []experiments.Profile{experiments.ProfileA},
			CoreCounts: coreCounts,
			Runs:       *runs,
			Scale:      experiments.Scale(*scale),
			Workers:    *workers,
			Context:    context.Background(),
			Obs:        obs,
		}
	}
	// Cells: 1 bench x 1 profile x 3 managers x cores x runs.
	cells := 3 * len(coreCounts) * *runs

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
		defer pprof.StopCPUProfile()
	}

	measure := func(obs *runner.Observations) float64 {
		t0 := time.Now()
		if _, err := experiments.Fig7(opts(obs)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return time.Since(t0).Seconds()
	}

	// Interleaved rounds: one (bare, observed, sampled, ledgered) tuple
	// per rep, so slow machine-level drift hits all variants alike
	// instead of biasing whichever variant ran last.
	ledgerDir, err := os.MkdirTemp("", "hpmmap-perf-ledger")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(ledgerDir)
	// newObs is the observed layer: metrics plus a recorded trace.
	newObs := func() *runner.Observations {
		obs := runner.NewObservations(0)
		obs.EnableTrace()
		return obs
	}
	var bare, observed, sampled, ledgered []float64
	var samples float64
	for r := 0; r < *reps; r++ {
		bare = append(bare, measure(nil))
		observed = append(observed, measure(newObs()))
		obs := newObs()
		obs.EnableSeries()
		sampled = append(sampled, measure(obs))
		if r == 0 {
			for _, m := range obs.Merged().Metrics {
				if m.Name == "timeline_samples_total" {
					samples = m.Value
				}
			}
		}
		// Ledgered: observed plus a run ledger journaling every cell to a
		// throwaway file, isolating the journal's cost from the rest of
		// the instrumentation (compare against observed, like sampler).
		lobs := newObs()
		l, err := ledger.Open(filepath.Join(ledgerDir, fmt.Sprintf("rep%d.jsonl", r)),
			ledger.Meta{Model: *bench, Scale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		lobs.SetLedger(l)
		ledgered = append(ledgered, measure(lobs))
		if err := l.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	resolvedWorkers := *workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.NumCPU()
	}
	bareMed, obsMed, sampMed, ledgMed := median(bare), median(observed), median(sampled), median(ledgered)
	rec := record{
		Issue:       6,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Workers:     resolvedWorkers,
		Bench:       *bench,
		Scale:       *scale,
		Runs:        *runs,
		Cores:       coreCounts,
		Cells:       cells,
		TimingReps:  *reps,

		BareSec:            bareMed,
		ObservedSec:        obsMed,
		SampledSec:         sampMed,
		LedgeredSec:        ledgMed,
		CellsPerSec:        float64(cells) / bareMed,
		ObserveOverheadPct: 100 * (obsMed - bareMed) / bareMed,
		SamplerOverheadPct: 100 * (sampMed - obsMed) / obsMed,
		LedgerOverheadPct:  100 * (ledgMed - obsMed) / obsMed,
		SeriesSamples:      samples,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%d cells x %d reps: bare %.2fs (%.2f cells/s), observed %.2fs (%+.1f%%), sampled %.2fs (sampler %+.1f%%, %.0f samples), ledgered %.2fs (ledger %+.1f%%) -> %s\n",
		cells, *reps, rec.BareSec, rec.CellsPerSec, rec.ObservedSec, rec.ObserveOverheadPct,
		rec.SampledSec, rec.SamplerOverheadPct, samples, rec.LedgeredSec, rec.LedgerOverheadPct, *out)

	if *ledgerOut != "" {
		compact, err := json.Marshal(rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		l, err := ledger.OpenAppend(*ledgerOut, ledger.Meta{Model: *bench, Scale: *scale})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		l.BenchRecord(compact)
		if err := l.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if haveBaseline {
		change := 100 * (rec.CellsPerSec - brec.CellsPerSec) / brec.CellsPerSec
		fmt.Printf("baseline %s: %.2f cells/s -> %.2f cells/s (%+.1f%%)\n",
			*baseline, brec.CellsPerSec, rec.CellsPerSec, change)
		if change < -*regressPct {
			fmt.Fprintf(os.Stderr, "hpmmap-perf: FAIL: cells/sec regressed %.1f%% (budget %.1f%%)\n",
				-change, *regressPct)
			os.Exit(1)
		}
	}
}

package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hpmmap/internal/metrics"
)

// workDir holds profiles, test binaries and span traces, relative to the
// repository root the benchmark runs from.
const workDir = ".bench_build/work"

// repTimeout bounds one rep process; a rep takes a few seconds.
const repTimeout = 100 * time.Second

// minReps is the fewest timed reps a run takes however short -seconds
// is, so that it has a median.
const minReps = 3

// setReps is how many timed reps of each workload a set takes without
// -workload (and each of the two sets of -aa). A rep's scaled time varies
// by 10-15% on a shared host: at 5 reps, two interleaved sets of the same
// code put datacenter-churn's cpu_ns_per_event 26% apart.
const setReps = 12

// setupPairs is how many set-up samples a run takes before each timed
// rep, so that its samples spread over the whole run.
const setupPairs = 3

// startNominalNS is about the start-up reference's time from spawn to
// main on a quiet 2-vCPU Xeon VM.
const startNominalNS = 800_000

// committedDigests holds the output digest of each workload at its
// default seed: workload -> SHA-256.
//
//go:embed testdata/digests.json
var committedDigests []byte

// digestsFile is where -update-digests writes, relative to the
// repository root.
const digestsFile = "benchmark/testdata/digests.json"

// result is the JSON object a -workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// seedFor is the seed of rep i of a run at seed. Rep 0 is the reference
// rep: it runs the workload's default seed, whose output digest is
// committed and whose allocation is the run's alloc_mb_per_cell. Every
// later rep takes a new draw from seed (0 stands for the default),
// stepping by the 64-bit golden ratio so that runs at neighbouring seeds
// share none: draws differ a little in work, and a median over more draws
// moves less between seeds.
func seedFor(w workload, seed uint64, i int) uint64 {
	if i == 0 {
		return w.defaultSeed
	}
	if seed == 0 {
		seed = w.defaultSeed
	}
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// spawnRep runs one rep in a fresh process and returns its report.
func spawnRep(ctx context.Context, w workload, seed uint64, workers int, extra ...string) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	args := append([]string{"-rep", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-workers", strconv.Itoa(workers)}, extra...)
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.Env = append(os.Environ(), spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("%s rep: %w", w.name, err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return repResult{}, fmt.Errorf("%s rep: bad report: %w", w.name, err)
	}
	if res.Cells > 0 {
		fmt.Fprintf(os.Stderr, "%s seed %d: %d cells in %.2f s, %d failed %s\n",
			w.name, seed, res.Cells, float64(res.WallNS)/1e9, res.Failed, res.Err)
	}
	return res, nil
}

// setupSample returns one set-up sample: a set-up probe's time from spawn
// to its first entry call, scaled by startNominalNS ÷ the time from spawn
// to main of the start-up reference (startref), spawned just before it.
// Both times are mostly process creation and Go runtime start, which a
// busy host slows alike: over 60 batches of 15 samples, the quartile
// spread of the batch medians was 18% for the probe alone and 5% for the
// ratio.
func setupSample(ctx context.Context, w workload) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(self), "hpmmap-startref"))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.Env = append(os.Environ(), spawnEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("start-up reference: %w", err)
	}
	ref, err := strconv.ParseFloat(strings.TrimSpace(stdout.String()), 64)
	if err != nil || ref <= 0 {
		return 0, fmt.Errorf("start-up reference: bad report %q", stdout.String())
	}
	r, err := spawnRep(ctx, w, w.defaultSeed, benchWorkers, "-setup-probe")
	if err != nil {
		return 0, err
	}
	return float64(r.SetupNS) / 1e9 * startNominalNS / ref, nil
}

// check counts attempted and failed cells over reps. A rep fails all its
// cells when it errored or its output digest differs from the reference
// for its seed: the committed digest at the workload's default seed, else
// the first digest that seed produced in this run.
func check(w workload, reps []repResult) (attempted, failed int) {
	var committed map[string]string
	if err := json.Unmarshal(committedDigests, &committed); err != nil {
		committed = nil
	}
	want := map[uint64]string{}
	if d, ok := committed[w.name]; ok {
		want[w.defaultSeed] = d
	}
	for _, r := range reps {
		if _, ok := want[r.Seed]; !ok && r.Err == "" {
			want[r.Seed] = r.Digest
		}
	}
	for _, r := range reps {
		attempted += r.Cells
		if r.Err != "" || r.Digest != want[r.Seed] {
			failed += r.Cells
		} else {
			failed += r.Failed
		}
	}
	return attempted, failed
}

// fits reports whether one more rep (or pair of reps), as long as the
// mean of the n run since start, still ends by the deadline.
func fits(start time.Time, n int, deadline time.Time) bool {
	return time.Now().Add(time.Since(start) / time.Duration(n)).Before(deadline)
}

// timings computes the timed metrics of one rep, its CPU and wall times
// scaled to the nominal speed probe. A rep that errored, or has no probe,
// has none.
func timings(r repResult) (map[string]float64, bool) {
	events := r.Counters[metrics.SimEventsTotal]
	if r.Err != "" || r.Cells == 0 || r.WallNS <= 0 || events == 0 || r.ProbeNS <= 0 {
		return nil, false
	}
	toNominal := math.Pow(probeNominalNS/r.ProbeNS, probeExponent)
	return map[string]float64{
		"cells_per_s":      float64(r.Cells) / (float64(r.WallNS) * toNominal / 1e9),
		"cpu_ns_per_event": float64(r.CPUNS) * toNominal / float64(events),
	}, true
}

// endToEndValues computes every end-to-end metric of a run from its
// reps, rep 0 being the reference rep, and its set-up samples: the
// timings as medians over the reps, the allocation from the reference rep
// alone (exact for its draw, so it moves only when the code allocates
// differently), and set-up as the median over the samples.
func endToEndValues(reps []repResult, setups []float64) map[string]float64 {
	series := map[string][]float64{}
	for _, r := range reps {
		if vals, ok := timings(r); ok {
			for k, v := range vals {
				series[k] = append(series[k], v)
			}
		}
	}
	out := map[string]float64{"setup_s": median(setups), "alloc_mb_per_cell": 0}
	for k, xs := range series {
		out[k] = median(xs)
	}
	if len(reps) > 0 && reps[0].Err == "" && reps[0].Cells > 0 {
		out["alloc_mb_per_cell"] = float64(reps[0].AllocBytes) / (1 << 20) / float64(reps[0].Cells)
	}
	return out
}

// measure is one -workload run, which ends about the given number of
// seconds after it starts. It takes timed reps, each after setupPairs
// set-up samples, while they fit; with traced, it runs the
// microbenchmark sweep and then untraced and traced reps in pairs while
// they fit.
func measure(ctx context.Context, w workload, seed uint64, seconds int, traced bool) (result, error) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var (
		reps []repResult
		vals map[string]float64
		defs []metricDef
		err  error
	)
	if traced {
		defs = perLayer()
		vals, reps, err = measureLayers(ctx, w, seed, deadline)
	} else {
		defs = endToEnd
		var setups []float64
		reps, setups, err = timedReps(ctx, w, seed, deadline)
		vals = endToEndValues(reps, setups)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]value{}}
	res.Attempted, res.Failed = check(w, reps)
	res.Correct = res.Failed == 0
	for _, def := range defs {
		res.Metrics[def.Name] = value{Value: vals[def.Name], Unit: def.Unit}
	}
	return res, nil
}

// timedReps runs timed reps, each after setupPairs set-up samples, until
// the next one would end after the deadline, and at least minReps.
func timedReps(ctx context.Context, w workload, seed uint64, deadline time.Time) ([]repResult, []float64, error) {
	start := time.Now()
	var reps []repResult
	var setups []float64
	for len(reps) < minReps || fits(start, len(reps), deadline) {
		r, s, err := setupsAndRep(ctx, w, seedFor(w, seed, len(reps)))
		if err != nil {
			return nil, nil, err
		}
		reps, setups = append(reps, r), append(setups, s...)
	}
	return reps, setups, nil
}

// setupsAndRep takes setupPairs set-up samples and then one timed rep.
func setupsAndRep(ctx context.Context, w workload, seed uint64) (repResult, []float64, error) {
	var setups []float64
	for i := 0; i < setupPairs; i++ {
		s, err := setupSample(ctx, w)
		if err != nil {
			return repResult{}, nil, err
		}
		setups = append(setups, s)
	}
	r, err := spawnRep(ctx, w, seed, benchWorkers)
	return r, setups, err
}

// measureLayers runs the microbenchmark sweep, then untraced and traced
// reps in pairs until the deadline, attributes the traced reps' CPU
// profiles to layers and reads the layers' counters. It returns the
// per-layer metric values and every rep it ran.
func measureLayers(ctx context.Context, w workload, seed uint64, deadline time.Time) (map[string]float64, []repResult, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	stats, err := microSweep(ctx, workDir, benchWorkers)
	if err != nil {
		return nil, nil, err
	}
	for stem, st := range stats {
		vals[stem+".ns_op"] = st.nsOp
		vals[stem+".allocs_op"] = st.allocsOp
	}

	spans := filepath.Join(workDir, w.name+".trace.json")
	start := time.Now()
	var plain, traced []repResult
	pprofArgs := []string{"tool", "pprof", "-traces"}
	for len(traced) == 0 || fits(start, len(traced), deadline) {
		s := seedFor(w, seed, len(traced))
		u, err := spawnRep(ctx, w, s, benchWorkers)
		if err != nil {
			return nil, nil, err
		}
		prof := filepath.Join(workDir, fmt.Sprintf("%s-%d.pprof", w.name, len(traced)))
		t, err := spawnRep(ctx, w, s, benchWorkers, "-cpuprofile", prof, "-spans", spans)
		if err != nil {
			return nil, nil, err
		}
		plain, traced = append(plain, u), append(traced, t)
		pprofArgs = append(pprofArgs, prof)
	}
	fmt.Fprintf(os.Stderr, "%s: spans of the last traced rep in %s\n", w.name, spans)

	// pprof merges the profiles it is given into one.
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", pprofArgs...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("pprof: %w", err)
	}
	shares := layerShares{}
	if err := attribute(&out, shares); err != nil {
		return nil, nil, err
	}
	for l, pct := range shares.percentages() {
		vals[l+".cpu_pct"] = pct
	}
	for _, c := range layerCounts {
		var perRep []float64
		var total float64
		for _, r := range traced {
			var n uint64
			for _, name := range c.counters {
				n += r.Counters[name]
			}
			perRep = append(perRep, float64(n))
			total += float64(n)
		}
		vals[c.name] = median(perRep)
		if c.layer != "" && total > 0 {
			vals[c.layer+".ns_per_op"] = float64(shares[c.layer].Nanoseconds()) / total
		}
	}
	var idle, rss, probes, plainWall, tracedWall []float64
	for i, t := range traced {
		if t.WallNS > 0 {
			idle = append(idle, 100*(1-float64(t.CellWallNS)/(float64(benchWorkers)*float64(t.WallNS))))
		}
		rss = append(rss, float64(plain[i].PeakRSSKB)/1024)
		probes = append(probes, plain[i].ProbeNS)
		plainWall = append(plainWall, float64(plain[i].WallNS))
		tracedWall = append(tracedWall, float64(t.WallNS))
	}
	vals["runner.idle_pct"] = median(idle)
	vals["goruntime.peak_rss_mb"] = median(rss)
	vals["host.probe_ns"] = median(probes)
	if m := median(plainWall); m > 0 {
		vals["trace_overhead_pct"] = 100 * (median(tracedWall) - m) / m
	}
	return vals, append(plain, traced...), nil
}

// runSets runs every workload setReps times per set, interleaving
// workloads and alternating which set goes first, then prints each
// workload's end-to-end values, with the quartiles of the timings over
// the reps. Each rep comes after its own set-up samples. With two sets (-aa) it
// fails when set B is worse than set A by more than a metric's bound; a
// failed cell fails it too.
func runSets(ctx context.Context, seed uint64, sets int) error {
	setups := make([][][]float64, sets)
	got := make([][][]repResult, sets)
	for s := range got {
		setups[s] = make([][]float64, len(workloads))
		got[s] = make([][]repResult, len(workloads))
	}
	for r := 0; r < setReps; r++ {
		for k := 0; k < sets; k++ {
			s := k
			if r%2 == 1 {
				s = sets - 1 - k
			}
			for i, w := range workloads {
				rr, ss, err := setupsAndRep(ctx, w, seedFor(w, seed, r))
				if err != nil {
					return err
				}
				got[s][i] = append(got[s][i], rr)
				setups[s][i] = append(setups[s][i], ss...)
			}
		}
	}

	breaches := 0
	fmt.Printf("%-17s %-18s", "workload", "metric")
	for s := 0; s < sets; s++ {
		fmt.Printf(" %-34s", fmt.Sprintf("set %c: value [Q1, Q3] n", 'A'+s))
	}
	if sets == 2 {
		fmt.Printf(" %8s %6s %s", "B vs A", "bound", "verdict")
	}
	fmt.Println()
	for i, w := range workloads {
		vals := make([]map[string]float64, sets)
		for s := range vals {
			vals[s] = endToEndValues(got[s][i], setups[s][i])
		}
		for _, def := range endToEnd {
			fmt.Printf("%-17s %-18s", w.name, def.Name)
			for s := 0; s < sets; s++ {
				var xs []float64
				for _, r := range got[s][i] {
					if t, ok := timings(r); ok {
						if x, ok := t[def.Name]; ok {
							xs = append(xs, x)
						}
					}
				}
				if len(xs) == 0 {
					// Allocation and set-up: the run value alone.
					xs = []float64{vals[s][def.Name]}
				}
				q1, q3 := quartiles(xs)
				fmt.Printf(" %-34s", fmt.Sprintf("%.5g [%.5g, %.5g] %d", vals[s][def.Name], q1, q3, len(xs)))
			}
			if sets == 2 {
				d := worseBy(def, vals[0][def.Name], vals[1][def.Name])
				verdict := "pass"
				if d > def.Bound {
					verdict = "FAIL"
					breaches++
				}
				fmt.Printf(" %+7.2f%% %5.0f%% %s", 100*d, 100*def.Bound, verdict)
			}
			fmt.Println()
		}
		for s := 0; s < sets; s++ {
			attempted, failed := check(w, got[s][i])
			fmt.Printf("%-17s %-18s %d of %d cells failed (set %c)\n", w.name, "cells_failed", failed, attempted, 'A'+s)
			if failed > 0 {
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	return nil
}

// updateDigests regenerates the committed digest of each workload at its
// default seed, requiring the same digest at 1 and 2 workers.
func updateDigests(ctx context.Context) error {
	out := map[string]string{}
	for _, w := range workloads {
		var got []string
		for _, workers := range []int{1, 2} {
			r, err := spawnRep(ctx, w, w.defaultSeed, workers)
			if err != nil {
				return err
			}
			if r.Err != "" || r.Failed > 0 {
				return fmt.Errorf("%s at %d workers: %d failed cells %s", w.name, workers, r.Failed, r.Err)
			}
			got = append(got, r.Digest)
		}
		if got[0] != got[1] {
			return fmt.Errorf("%s: digest differs between 1 and 2 workers", w.name)
		}
		out[w.name] = got[0]
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(data, '\n'), 0o644)
}

// printMicro runs the microbenchmark sweep and prints its table.
func printMicro(ctx context.Context) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	stats, err := microSweep(ctx, workDir, benchWorkers)
	if err != nil {
		return err
	}
	fmt.Printf("%-42s %12s %25s %10s\n", "benchmark", "median ns/op", "min-max ns/op", "allocs/op")
	for _, p := range microBenches {
		for _, b := range p.names {
			stem := benchMetricName(p.pkg, b)
			st := stats[stem]
			fmt.Printf("%-42s %12.1f %25s %10.0f\n", stem, st.nsOp, fmt.Sprintf("%.1f-%.1f", st.minNsOp, st.maxNsOp), st.allocsOp)
		}
	}
	return nil
}

package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestAttributeCommittedTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares := layerShares{}
	if err := attribute(f, shares); err != nil {
		t.Fatal(err)
	}
	want := layerShares{
		// A runtime leaf is charged to the layer that called it.
		"mem": 30 * time.Millisecond,
		// The auditor's RunOnce on the stack wins over the nearer mem frame.
		"invariant": 20 * time.Millisecond,
		// GC workers and frames outside the simulator's layers.
		"goruntime": 10*time.Millisecond + 750*time.Microsecond,
		// An inlined leaf and a leaf reached through fmt.
		"pgtable": 1500*time.Millisecond + 250*time.Microsecond,
		// The speed probe's samples (its pass and its clock read) are
		// charged to no layer.
	}
	if len(shares) != len(want) {
		t.Errorf("layers = %v, want %v", shares, want)
	}
	for l, d := range want {
		if shares[l] != d {
			t.Errorf("%s = %v, want %v", l, shares[l], d)
		}
	}
	pct := shares.percentages()
	if len(pct) != len(layers) {
		t.Errorf("percentages cover %d layers, want %d", len(pct), len(layers))
	}
	var sum float64
	for _, p := range pct {
		sum += p
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
}

func TestChargeLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "hpmmap/internal/buddy.(*Allocator).Alloc", "hpmmap/internal/mem.(*Zone).Alloc"}, "buddy"},
		{[]string{"hpmmap/internal/runner.Run[go.shape.int].func5"}, "runner"},
		{[]string{"hpmmap/internal/mem.(*Zone).EachFree", auditFrame}, "invariant"},
		// A package outside the layer list is passed over.
		{[]string{"hpmmap/internal/analysis/atest.Run", "hpmmap/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker"}, "goruntime"},
		{[]string{"main.main"}, "goruntime"},
	} {
		if got := chargeLayer(tc.stack); got != tc.want {
			t.Errorf("chargeLayer(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestAttributeRejectsMalformedInput(t *testing.T) {
	for _, in := range []string{
		"",
		"-----------+----\n      ten   runtime.memmove\n",
		"-----------+----\n      10ms\n",
	} {
		if err := attribute(strings.NewReader(in), layerShares{}); err == nil {
			t.Errorf("attribute(%q) succeeded, want an error", in)
		}
	}
}

func TestParsePprofDuration(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"10ms":   10 * time.Millisecond,
		"1.50s":  1500 * time.Millisecond,
		"250us":  250 * time.Microsecond,
		"250µs":  250 * time.Microsecond,
		"40ns":   40,
		"2mins":  2 * time.Minute,
		"1.5hrs": 90 * time.Minute,
	} {
		got, err := parsePprofDuration(in)
		if err != nil || got != want {
			t.Errorf("parsePprofDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	f, err := os.Open("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseBenchOutput(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	stats := summarize(samples)
	want := map[string]benchStat{
		"TouchDemand":       {nsOp: 3941, minNsOp: 3757, maxNsOp: 4149, allocsOp: 2},
		"ForkExit/pooled":   {nsOp: 618.4, minNsOp: 589.0, maxNsOp: 756.0, allocsOp: 0},
		"ForkExit/unpooled": {nsOp: 1674.5, minNsOp: 1651, maxNsOp: 1698, allocsOp: 18},
	}
	if len(stats) != len(want) {
		t.Errorf("benchmarks = %v, want %v", stats, want)
	}
	for name, w := range want {
		if got := stats[name]; got != w {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
}

func TestParseBenchOutputNeedsBenchmem(t *testing.T) {
	in := "BenchmarkRandNormal-2   	 1613239	        36.80 ns/op\n"
	if _, err := parseBenchOutput(strings.NewReader(in)); err == nil {
		t.Error("a result without allocs/op parsed; want an error")
	}
}

func TestProgressLabel(t *testing.T) {
	for msg, want := range map[string]string{
		"fig7 3/48 (ETA 5s) fig7 miniMD/A/thp/c1#0: 0.6 s":                                "fig7 miniMD/A/thp/c1#0",
		"chaos 2/6 [1 failed] (ETA 1s) chaos HPCCG/none/thp/i1/c2#1: boom":                "chaos HPCCG/none/thp/i1/c2#1",
		"faultstudy 1/2 (ETA 0s) faultstudy miniMD/none/thp/c8#0":                         "faultstudy miniMD/none/thp/c8#0",
		"datacenter 9/48 (ETA 3s) datacenter HPCCG/none/mixed/c50-i0/c2#4: 0.1 s, 3 pods": "datacenter HPCCG/none/mixed/c50-i0/c2#4",
	} {
		got, ok := progressLabel(msg)
		if !ok || got != want {
			t.Errorf("progressLabel(%q) = %q, %v; want %q", msg, got, ok, want)
		}
	}
	if _, ok := progressLabel("no label here"); ok {
		t.Error("progressLabel found a label in a line without one")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1.5}, 0.625, 5.875},
		{[]float64{7, 7.5, 9, 1, 3, 4, 12}, 3, 9},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCheckFailsMismatchedReps(t *testing.T) {
	reps := []repResult{
		{Seed: 7, Cells: 4, Digest: "a"},
		{Seed: 7, Cells: 4, Digest: "a", Failed: 1},
		{Seed: 7, Cells: 4, Digest: "b"},
		{Seed: 8, Cells: 4, Digest: "b"},
		{Seed: 8, Cells: 4, Err: "boom"},
	}
	attempted, failed := check(workload{name: "unlisted"}, reps)
	if attempted != 20 || failed != 9 {
		t.Errorf("check = %d attempted, %d failed; want 20, 9", attempted, failed)
	}
}

func TestCheckUsesCommittedDigests(t *testing.T) {
	w := workloads[0]
	// Both reps agree, but not with the committed digest.
	reps := []repResult{
		{Seed: w.defaultSeed, Cells: 3, Digest: "not the committed one"},
		{Seed: w.defaultSeed, Cells: 3, Digest: "not the committed one"},
	}
	attempted, failed := check(w, reps)
	if attempted != 6 || failed != 6 {
		t.Errorf("check = %d attempted, %d failed; want 6, 6", attempted, failed)
	}
}

func TestSeedFor(t *testing.T) {
	w := workload{defaultSeed: 0x7e57}
	if got := seedFor(w, 5, 0); got != 0x7e57 {
		t.Errorf("rep 0 at seed 5 runs at %#x, want the default 0x7e57", got)
	}
	seen := map[uint64]bool{0x7e57: true}
	for _, seed := range []uint64{0, 5, 6} {
		for i := 1; i < 100; i++ {
			s := seedFor(w, seed, i)
			if seen[s] {
				t.Fatalf("draw %#x repeats within or across seeds 0, 5 and 6, or repeats the reference draw", s)
			}
			seen[s] = true
		}
	}
}

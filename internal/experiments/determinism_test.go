package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"hpmmap/internal/runner"
)

// These tests pin the runner-integration half of the determinism
// contract: the figure harnesses must produce byte-identical results at
// any worker count, because every cell's seed derives from its grid
// coordinates rather than from execution order. (The executor half —
// scheduling independence for a pure cell function — lives in
// internal/runner's own tests.)

// fig7Reduced is a grid small enough for the race detector but wide
// enough to exercise every axis: 2 benches x 1 profile x 3 managers x
// 2 core counts x 2 runs = 24 cells.
func fig7Reduced(workers int, cache *runner.Cache) Fig7Options {
	return Fig7Options{
		Benches:    []string{"HPCCG", "miniFE"},
		Profiles:   []Profile{ProfileA},
		CoreCounts: []int{1, 2},
		Runs:       2,
		Seed:       101,
		Scale:      0.25,
		Workers:    workers,
		Cache:      cache,
	}
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFig7IdenticalAcrossWorkerCounts(t *testing.T) {
	serial, err := Fig7(fig7Reduced(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig7(fig7Reduced(8, nil))
	if err != nil {
		t.Fatal(err)
	}
	a, b := asJSON(t, serial), asJSON(t, parallel)
	if string(a) != string(b) {
		t.Fatalf("Fig7 panels differ between Workers=1 and Workers=8:\n%s\nvs\n%s", a, b)
	}
}

func TestFig8IdenticalAcrossWorkerCounts(t *testing.T) {
	opts := func(workers int) Fig7Options {
		return Fig7Options{
			Benches:    []string{"LAMMPS"},
			Profiles:   []Profile{ProfileC},
			CoreCounts: []int{4, 8},
			Runs:       2,
			Seed:       202,
			Scale:      0.25,
			Workers:    workers,
		}
	}
	serial, err := Fig8(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig8(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := asJSON(t, serial), asJSON(t, parallel)
	if string(a) != string(b) {
		t.Fatalf("Fig8 panels differ between Workers=1 and Workers=8:\n%s\nvs\n%s", a, b)
	}
}

// TestFig7ProgressSerializedUnderParallelism drives the legacy
// func(string) progress option at Workers=8: the runner's serialized
// sink must make unsynchronized callback state safe (this test is the
// regression for the thread-safety contract documented on the option,
// and fails under -race if the sink ever overlaps invocations).
func TestFig7ProgressSerializedUnderParallelism(t *testing.T) {
	o := fig7Reduced(8, nil)
	lines := 0 // unsynchronized on purpose: the sink contract
	o.Progress = func(string) { lines++ }
	if _, err := Fig7(o); err != nil {
		t.Fatal(err)
	}
	// 2 benches x 1 profile x 2 core counts x 3 default managers x 2 runs.
	want := len(o.Benches) * len(o.Profiles) * len(o.CoreCounts) * 3 * o.Runs
	if lines != want {
		t.Fatalf("progress lines: %d, want %d", lines, want)
	}
}

// TestFig7CacheRoundTrip proves the result cache short-circuits
// re-simulation: a second run against a populated cache returns
// identical panels, and bumping the cache version forces a miss.
func TestFig7CacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.NewCache(dir, ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Fig7(fig7Reduced(4, cache))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 24 {
		t.Fatalf("cache holds %d entries, want 24", len(entries))
	}
	// Second run: every cell hits the cache; panels must be identical.
	second, err := Fig7(fig7Reduced(4, cache))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := asJSON(t, first), asJSON(t, second); string(a) != string(b) {
		t.Fatalf("cached rerun diverged:\n%s\nvs\n%s", a, b)
	}
	// A different model version must not see the old entries: every
	// cell misses and stores a second entry next to the old one.
	bumped, err := runner.NewCache(dir, ModelVersion+"-next")
	if err != nil {
		t.Fatal(err)
	}
	third, err := Fig7(fig7Reduced(4, bumped))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := asJSON(t, first), asJSON(t, third); string(a) != string(b) {
		t.Fatalf("rerun under a bumped version diverged:\n%s\nvs\n%s", a, b)
	}
	if entries, err = os.ReadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 48 {
		t.Fatalf("cache holds %d entries after the version bump, want 48 (24 per version)", len(entries))
	}
}

package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
)

type cachedCell struct {
	RuntimeSec float64
	Faults     uint64
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := NewCache(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Exp: "fig7", Bench: "HPCCG", Profile: "A", Manager: "thp", Cores: 4, Run: 2}
	key := c.key("fig7", cell, 0xdead, "scale=0.25")
	var out cachedCell
	if c.get(key, &out) {
		t.Fatal("hit before put")
	}
	want := cachedCell{RuntimeSec: 151.25, Faults: 1337}
	if err := c.put(key, want); err != nil {
		t.Fatal(err)
	}
	if !c.get(key, &out) || out != want {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestCacheKeyIdentity(t *testing.T) {
	c, _ := NewCache(t.TempDir(), "v1")
	cell := Cell{Exp: "fig7", Bench: "HPCCG", Profile: "A", Manager: "thp", Cores: 4, Run: 2}
	base := c.key("fig7", cell, 1, "scale=1")
	// Any identity component changing must change the key.
	if c.key("fig7", cell, 2, "scale=1") == base {
		t.Fatal("seed not in key")
	}
	if c.key("fig7", cell, 1, "scale=0.5") == base {
		t.Fatal("plan inputs not in key")
	}
	other := cell
	other.Run = 3
	if c.key("fig7", other, 1, "scale=1") == base {
		t.Fatal("run index not in key")
	}
	c2, _ := NewCache(t.TempDir(), "v2")
	if c2.key("fig7", cell, 1, "scale=1") == base {
		t.Fatal("version not in key")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir, "v1")
	key := c.key("x", Cell{Exp: "x"}, 1, "")
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out cachedCell
	if c.get(key, &out) {
		t.Fatal("corrupt entry reported as hit")
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	var out cachedCell
	if c.get(c.key("x", Cell{}, 1, ""), &out) {
		t.Fatal("nil cache hit")
	}
	if err := c.put("k", out); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRejectsEmptyDir(t *testing.T) {
	if _, err := NewCache("", "v"); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// protocolRun runs a 4-cell plan through Run with the given cache and
// collector, counting the cell-function calls in execs. Each cell bumps
// one counter by idx+1 in its registry; cell 2 fails when failCell is
// set (and the plan quarantines it). It returns the results and the
// run's journal records.
func protocolRun(t *testing.T, c *Cache, obs *Observations, execs *atomic.Int64, failCell bool) ([]int, []ledger.Record) {
	t.Helper()
	var raw bytes.Buffer
	led := ledger.New(&raw, ledger.Meta{})
	obs.SetLedger(led)
	plan := degradePlan(4)
	plan.Inputs = "scale=1"
	res, err := Run(Options{Workers: 2, Cache: c, Obs: obs, ContinueOnError: true}, plan,
		func(_ context.Context, idx int, cell Cell, _ uint64) (int, error) {
			execs.Add(1)
			if failCell && idx == 2 {
				return 0, errors.New("cell exploded")
			}
			reg, _ := obs.Cell(idx, cell.String())
			reg.Counter(metrics.SimEventsTotal).Add(uint64(idx + 1))
			return 100 + idx, nil
		})
	if _, ok := AsGridError(err); err != nil && !(ok && failCell) {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(&raw)
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

func countRecords(recs []ledger.Record, typ string) int {
	n := 0
	for _, r := range recs {
		if r.T == typ {
			n++
		}
	}
	return n
}

// TestRunCacheHitReplaysSnapshot: a warm run returns the stored results
// without calling the cell function, replays each cell's snapshot into
// Merged, and journals cache_hit for every cell.
func TestRunCacheHitReplaysSnapshot(t *testing.T) {
	c, _ := NewCache(t.TempDir(), "v1")
	var execs atomic.Int64
	coldObs := NewObservations(0)
	cold, coldRecs := protocolRun(t, c, coldObs, &execs, false)
	if execs.Load() != 4 || countRecords(coldRecs, ledger.TypeCacheMiss) != 4 {
		t.Fatalf("cold run: %d executions, %d misses; want 4, 4", execs.Load(), countRecords(coldRecs, ledger.TypeCacheMiss))
	}
	warmObs := NewObservations(0)
	warm, warmRecs := protocolRun(t, c, warmObs, &execs, false)
	if execs.Load() != 4 {
		t.Fatalf("warm run called the cell function (%d executions in all)", execs.Load())
	}
	if hits, misses := countRecords(warmRecs, ledger.TypeCacheHit), countRecords(warmRecs, ledger.TypeCacheMiss); hits != 4 || misses != 0 {
		t.Fatalf("warm run journaled %d hits, %d misses; want 4, 0", hits, misses)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("cell %d: warm result %d, cold %d", i, warm[i], cold[i])
		}
	}
	if got := warmObs.Merged().CounterValue(metrics.SimEventsTotal); got != 1+2+3+4 {
		t.Fatalf("warm merged sim_events_total = %d, want 10", got)
	}
}

// TestRunCacheSnapshotlessEntry: an entry written by an unobserved run
// carries no snapshot. It hits when the run has no collector and misses
// (then is rewritten with its snapshot) when the run observes.
func TestRunCacheSnapshotlessEntry(t *testing.T) {
	c, _ := NewCache(t.TempDir(), "v1")
	var execs atomic.Int64
	protocolRun(t, c, nil, &execs, false)
	protocolRun(t, c, nil, &execs, false)
	if execs.Load() != 4 {
		t.Fatalf("unobserved warm run missed (%d executions, want 4)", execs.Load())
	}
	obs := NewObservations(0)
	_, recs := protocolRun(t, c, obs, &execs, false)
	if execs.Load() != 8 || countRecords(recs, ledger.TypeCacheMiss) != 4 {
		t.Fatalf("observed run over snapshot-less entries: %d executions, %d misses; want 8, 4",
			execs.Load(), countRecords(recs, ledger.TypeCacheMiss))
	}
	if got := obs.Merged().CounterValue(metrics.SimEventsTotal); got != 10 {
		t.Fatalf("merged sim_events_total = %d, want 10", got)
	}
	protocolRun(t, c, NewObservations(0), &execs, false)
	if execs.Load() != 8 {
		t.Fatalf("observed warm run missed after the entries gained snapshots (%d executions)", execs.Load())
	}
}

// TestRunCacheBypassedBySeries: with series sampling on, the cache is
// neither read nor written, and no cache traffic is journaled.
func TestRunCacheBypassedBySeries(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir, "v1")
	var execs atomic.Int64
	sampled := func() []ledger.Record {
		obs := NewObservations(0)
		obs.EnableSeries()
		_, recs := protocolRun(t, c, obs, &execs, false)
		return recs
	}
	recs := sampled()
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("sampled run wrote %d cache entries", len(entries))
	}
	protocolRun(t, c, NewObservations(0), &execs, false) // fills the cache
	recs = append(recs, sampled()...)
	if execs.Load() != 12 {
		t.Fatalf("sampled run read the cache (%d executions, want 12)", execs.Load())
	}
	if n := countRecords(recs, ledger.TypeCacheHit) + countRecords(recs, ledger.TypeCacheMiss); n != 0 {
		t.Fatalf("sampled runs journaled %d cache records", n)
	}
}

// TestRunCacheNeverStoresFailures: a quarantined cell leaves no entry,
// so the next run executes it again while the others hit.
func TestRunCacheNeverStoresFailures(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(dir, "v1")
	var execs atomic.Int64
	protocolRun(t, c, NewObservations(0), &execs, true)
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Fatalf("cache holds %d entries after one quarantined cell, want 3", len(entries))
	}
	_, recs := protocolRun(t, c, NewObservations(0), &execs, true)
	if execs.Load() != 5 || countRecords(recs, ledger.TypeCacheMiss) != 1 {
		t.Fatalf("rerun: %d executions, %d misses; want 5, 1", execs.Load(), countRecords(recs, ledger.TypeCacheMiss))
	}
	// Fail-fast: the failing cell is not stored either.
	plan := degradePlan(1)
	if _, err := Run(Options{Cache: c}, plan, func(context.Context, int, Cell, uint64) (int, error) {
		return 0, errors.New("cell exploded")
	}); err == nil {
		t.Fatal("failing cell returned no error")
	}
	var e entry[int]
	if c.get(c.key(plan.Name, plan.Cells[0], plan.Cells[0].Seed(plan.Seed), plan.Inputs), &e) {
		t.Fatal("failed cell was cached")
	}
}

// TestRunCacheCorruptMetricRegistration: runner_cache_corrupt_total is
// registered only when the plan has both a cache and a plan registry.
func TestRunCacheCorruptMetricRegistration(t *testing.T) {
	c, _ := NewCache(t.TempDir(), "v1")
	for _, tc := range []struct {
		name         string
		cache        bool
		planRegistry bool
	}{
		{"neither", false, false},
		{"cache only", true, false},
		{"metrics only", false, true},
		{"both", true, true},
	} {
		obs := NewObservations(0)
		opts := Options{Obs: obs}
		if tc.cache {
			opts.Cache = c
		}
		if tc.planRegistry {
			opts.Metrics = obs.PlanRegistry()
		}
		if _, err := Run(opts, degradePlan(2), func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) {
			return idx, nil
		}); err != nil {
			t.Fatal(err)
		}
		_, present := obs.Merged().Get(metrics.RunnerCacheCorruptTotal)
		if want := tc.cache && tc.planRegistry; present != want {
			t.Errorf("%s: runner_cache_corrupt_total present = %v, want %v", tc.name, present, want)
		}
	}
}

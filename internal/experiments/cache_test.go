package experiments

import (
	"bytes"
	"testing"

	"hpmmap/internal/invariant"
	"hpmmap/internal/ledger"
	"hpmmap/internal/metrics"
	"hpmmap/internal/runner"
)

// The result cache must be a transparent shortcut: a warm run renders
// the same table and merged metrics as a fresh one. These tests run a
// study twice against one cache, changing a plan-wide input between the
// runs that is not a cell coordinate (eviction's churn rate, the chaos
// study's auditor, the chaos drill's poisoned cell). If the cache key
// left that input out, the second run would replay the first run's
// cells.

// studyRun is one observed, journaled study run: its rendered table,
// its merged metrics and the run journal.
type studyRun struct {
	table string
	snap  metrics.Snapshot
	recs  []ledger.Record
}

// observedRun attaches a fresh collector and an in-memory ledger to a
// study run and returns its artifacts. run executes the study with the
// given collector and writes its table.
func observedRun(t *testing.T, run func(obs *runner.Observations, w *bytes.Buffer) error) studyRun {
	t.Helper()
	var raw bytes.Buffer
	led := ledger.New(&raw, ledger.Meta{})
	obs := runner.NewObservations(0)
	obs.SetLedger(led)
	var tbl bytes.Buffer
	if err := run(obs, &tbl); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.Read(&raw)
	if err != nil {
		t.Fatal(err)
	}
	return studyRun{table: tbl.String(), snap: obs.Merged(), recs: recs}
}

func newCache(t *testing.T) *runner.Cache {
	t.Helper()
	c, err := runner.NewCache(t.TempDir(), ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertSameRun fails unless got rendered the same table and merged
// metrics as want.
func assertSameRun(t *testing.T, got, want studyRun) {
	t.Helper()
	if got.table != want.table {
		t.Errorf("table differs from a fresh run:\n--- got:\n%s\n--- fresh:\n%s", got.table, want.table)
	}
	var g, w bytes.Buffer
	if err := got.snap.WriteText(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.snap.WriteText(&w); err != nil {
		t.Fatal(err)
	}
	if g.String() != w.String() {
		t.Errorf("merged metrics differ from a fresh run:\n--- got:\n%s\n--- fresh:\n%s", g.String(), w.String())
	}
}

// TestEvictionCacheKeyCoversChurn: the churn rate is a study-wide
// option, not a cell coordinate, so a 100 pods/s run over a cache
// filled at 200 pods/s must re-simulate every cell.
func TestEvictionCacheKeyCoversChurn(t *testing.T) {
	run := func(churn float64, cache *runner.Cache) studyRun {
		return observedRun(t, func(obs *runner.Observations, w *bytes.Buffer) error {
			o := tinyEvictionOpts()
			o.Overcommits = []float64{1}
			o.Chaos = []float64{0}
			o.Churn = churn
			o.Cache, o.Obs = cache, obs
			s, err := EvictionStudyRun(o)
			WriteEvictionStudy(w, s)
			return err
		})
	}
	cache := newCache(t)
	run(200, cache)
	warm := run(100, cache)
	assertSameRun(t, warm, run(100, newCache(t)))
	if hits, misses := countType(warm.recs, ledger.TypeCacheHit), countType(warm.recs, ledger.TypeCacheMiss); hits != 0 || misses != 1 {
		t.Errorf("100 pods/s run over a 200 pods/s cache: %d hits, %d misses; want 0, 1", hits, misses)
	}
	// Filling DatacenterCell.Violations must not register the auditor's
	// counter in an unaudited cell.
	if _, ok := warm.snap.Get(metrics.InvariantViolationsTotal); ok {
		t.Error("unaudited eviction run registered invariant_violations_total")
	}
}

// TestChaosCacheKeyCoversAudit: an audited run over a cache filled by
// an unaudited observed run must run the auditor in every cell.
func TestChaosCacheKeyCoversAudit(t *testing.T) {
	run := func(audit bool, cache *runner.Cache) studyRun {
		return observedRun(t, func(obs *runner.Observations, w *bytes.Buffer) error {
			o := tinyChaosOpts()
			o.Intensities = []float64{1}
			o.Scale = 0.05
			o.Audit = audit
			o.Cache, o.Obs = cache, obs
			s, err := ChaosStudyRun(o)
			WriteChaosStudy(w, s)
			return err
		})
	}
	cache := newCache(t)
	run(false, cache)
	warm := run(true, cache)
	if warm.snap.CounterValue(metrics.InvariantChecksTotal) == 0 {
		t.Fatal("audited run over an unaudited cache executed no invariant checks")
	}
	assertSameRun(t, warm, run(true, newCache(t)))
}

// TestChaosDrillSurvivesWarmCache: the quarantine drill still fires
// when a clean run has already cached the poisoned cell's coordinates.
func TestChaosDrillSurvivesWarmCache(t *testing.T) {
	cache := newCache(t)
	o := tinyChaosOpts()
	o.Cache = cache
	if _, err := ChaosStudyRun(o); err != nil {
		t.Fatal(err)
	}
	o.PoisonCell = 1
	s, err := ChaosStudyRun(o)
	if err != nil {
		t.Fatalf("ContinueOnError study returned a hard error: %v", err)
	}
	if len(s.Failures) != 1 || s.Failures[0].Index != 1 {
		t.Fatalf("want cell 1 quarantined, got %+v", s.Failures)
	}
	if v, ok := invariant.As(s.Failures[0].Err); !ok || v.Check != "chaos_injected" {
		t.Fatalf("structured violation lost: %+v", s.Failures[0])
	}
}

// TestProgressLinesPinned pins one -v progress line per study: the
// last line of a one-worker run, whose ETA is always 0s.
func TestProgressLinesPinned(t *testing.T) {
	lastLine := func(run func(progress func(string)) error) string {
		t.Helper()
		var last string
		if err := run(func(msg string) { last = msg }); err != nil {
			t.Fatal(err)
		}
		return last
	}
	for _, c := range []struct {
		name string
		run  func(progress func(string)) error
		want string
	}{
		{"fig7", func(p func(string)) error {
			o := fig7Tiny(1)
			o.Progress = p
			_, err := Fig7(o)
			return err
		}, "fig7 6/6 (ETA 0s) fig7 HPCCG/A/hugetlbfs/c2#0: 33.5 s"},
		{"chaos", func(p func(string)) error {
			o := tinyChaosOpts()
			o.Workers, o.Progress = 1, p
			_, err := ChaosStudyRun(o)
			return err
		}, "chaos 4/4 (ETA 0s) chaos HPCCG/none/thp/i1/c2#0: 32.4 s"},
		{"datacenter", func(p func(string)) error {
			o := tinyDCOpts()
			o.Churns, o.Intensities = []float64{200}, []float64{0}
			o.Workers, o.Progress = 1, p
			_, err := DatacenterStudyRun(o)
			return err
		}, "datacenter 1/1 (ETA 0s) datacenter HPCCG/none/mixed/c200-i0/c2#0: 28.5 s, 3984 pods"},
		{"eviction", func(p func(string)) error {
			o := tinyEvictionOpts()
			o.Overcommits, o.Chaos = []float64{1.5}, []float64{1}
			o.Workers, o.Progress = 1, p
			_, err := EvictionStudyRun(o)
			return err
		}, "eviction 1/1 (ETA 0s) eviction HPCCG/none/mixed/o1.5-x1/c2#0: 28.5 s, 49 evicted, 49 restarts"},
	} {
		if got := lastLine(c.run); got != c.want {
			t.Errorf("%s: last progress line\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

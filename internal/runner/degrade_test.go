package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpmmap/internal/invariant"
	"hpmmap/internal/metrics"
)

// failedIndexes returns the failed cell positions in order.
func (e *GridError) failedIndexes() []int {
	idxs := make([]int, len(e.Failures))
	for i, f := range e.Failures {
		idxs[i] = f.Index
	}
	return idxs
}

func degradePlan(n int) Plan {
	p := Plan{Name: "degrade", Seed: 1}
	for i := 0; i < n; i++ {
		p.Cells = append(p.Cells, Cell{Exp: "t", Bench: "b", Cores: 1, Run: i})
	}
	return p
}

func TestContinueOnErrorQuarantinesFailures(t *testing.T) {
	plan := degradePlan(8)
	boom := errors.New("cell exploded")
	var calls [8]atomic.Int32
	res, err := Run(Options{Workers: 3, ContinueOnError: true}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			calls[idx].Add(1)
			if idx == 2 || idx == 5 {
				return 0, boom
			}
			return idx + 100, nil
		})
	ge, ok := AsGridError(err)
	if !ok {
		t.Fatalf("want *GridError, got %v", err)
	}
	if got := ge.failedIndexes(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("failed indexes = %v, want [2 5]", got)
	}
	if ge.Total != 8 {
		t.Fatalf("Total = %d, want 8", ge.Total)
	}
	if !errors.Is(err, boom) {
		t.Fatal("GridError does not unwrap to the cell cause")
	}
	for i, v := range res {
		switch i {
		case 2, 5:
			if v != 0 {
				t.Fatalf("failed cell %d has non-zero result %d", i, v)
			}
		default:
			if v != i+100 {
				t.Fatalf("cell %d result = %d, want %d", i, v, i+100)
			}
		}
	}
	if !strings.Contains(ge.Error(), "2 of 8 cells failed") {
		t.Fatalf("summary = %q", ge.Error())
	}
	// A failed cell is a hole, not a re-run: every cell function,
	// failing or not, runs exactly once.
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times, want 1", i, n)
		}
	}
}

func TestContinueOnErrorAllCellsStillRun(t *testing.T) {
	plan := degradePlan(16)
	var ran atomic.Uint64
	_, err := Run(Options{Workers: 4, ContinueOnError: true}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			ran.Add(1)
			return 0, fmt.Errorf("always fails")
		})
	if ran.Load() != 16 {
		t.Fatalf("only %d of 16 cells ran under ContinueOnError", ran.Load())
	}
	ge, ok := AsGridError(err)
	if !ok || len(ge.Failures) != 16 {
		t.Fatalf("want 16 failures, got %v", err)
	}
	for i, f := range ge.Failures {
		if f.Index != i {
			t.Fatalf("failures not sorted by index: %v", ge.failedIndexes())
		}
	}
}

func TestFirstErrorStillCancelsWithoutContinue(t *testing.T) {
	plan := degradePlan(64)
	var ran atomic.Uint64
	_, err := Run(Options{Workers: 1}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			ran.Add(1)
			return 0, errors.New("fail fast")
		})
	if err == nil {
		t.Fatal("want error")
	}
	if _, ok := AsGridError(err); ok {
		t.Fatal("fail-fast mode must not return a GridError")
	}
	if ran.Load() == 64 {
		t.Fatal("fail-fast mode ran every cell after the first error")
	}
}

func TestCellTimeout(t *testing.T) {
	plan := degradePlan(1)
	_, err := Run(Options{CellTimeout: 20 * time.Millisecond}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			<-ctx.Done() // a well-behaved cell observes cancellation
			return 0, ctx.Err()
		})
	if err == nil || !strings.Contains(err.Error(), "exceeded timeout") {
		t.Fatalf("want timeout-annotated error, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout cause not preserved: %v", err)
	}
}

func TestPanicPreservesErrorPayload(t *testing.T) {
	plan := degradePlan(2)
	_, err := Run(Options{Workers: 1, ContinueOnError: true}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			if idx == 1 {
				invariant.Failf("test_check", "testsub", "deliberate violation in cell %d", idx)
			}
			return idx, nil
		})
	ge, ok := AsGridError(err)
	if !ok || len(ge.Failures) != 1 {
		t.Fatalf("want one quarantined failure, got %v", err)
	}
	v, ok := invariant.As(ge.Failures[0].Err)
	if !ok {
		t.Fatalf("violation payload lost through panic containment: %v", ge.Failures[0].Err)
	}
	if v.Check != "test_check" || v.Subsystem != "testsub" {
		t.Fatalf("wrong violation recovered: %+v", v)
	}
	// And through the aggregate error itself.
	if v2, ok := invariant.As(err); !ok || v2.Check != "test_check" {
		t.Fatal("errors.As through *GridError did not reach the violation")
	}
}

func TestRunnerMetrics(t *testing.T) {
	obs := NewObservations(0)
	plan := degradePlan(4)
	_, err := Run(Options{Workers: 1, ContinueOnError: true, Metrics: obs.PlanRegistry()}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			if idx == 1 {
				return 0, errors.New("hard failure")
			}
			return idx, nil
		})
	if _, ok := AsGridError(err); !ok {
		t.Fatalf("want grid error, got %v", err)
	}
	snap := obs.Merged()
	if got := snap.CounterValue(metrics.RunnerCellsFailedTotal); got != 1 {
		t.Fatalf("runner_cells_failed_total = %d, want 1", got)
	}
	// No cell is ever re-run; the counter stays registered at 0 because
	// recorded snapshots carry it.
	if m, ok := snap.Get(metrics.RunnerCellRetriesTotal); !ok || m.Value != 0 {
		t.Fatalf("runner_cell_retries_total = %+v (present %t), want present at 0", m, ok)
	}
}

func TestCacheCorruptEntryDetected(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	key := c.key("p", Cell{Exp: "t"}, 42, "")
	if err := c.put(key, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry: truncate mid-JSON.
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte(`{"x":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if c.get(key, &out) {
		t.Fatal("corrupt entry reported as a hit")
	}
	if got := c.CorruptCount(); got != 1 {
		t.Fatalf("CorruptCount = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry was not deleted")
	}
	// The slot is reusable after deletion.
	if err := c.put(key, map[string]int{"x": 2}); err != nil {
		t.Fatal(err)
	}
	if !c.get(key, &out) || out["x"] != 2 {
		t.Fatal("re-cached entry does not hit")
	}
	// A plan run with the cache reports the tally in its plan registry.
	obs := NewObservations(0)
	if _, err := Run(Options{Cache: c, Metrics: obs.PlanRegistry()}, degradePlan(1),
		func(context.Context, int, Cell, uint64) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if got := obs.Merged().CounterValue(metrics.RunnerCacheCorruptTotal); got != 1 {
		t.Fatalf("runner_cache_corrupt_total = %d, want 1", got)
	}
}

// TestGridErrorMultiCauseUnwrap pins the aggregate-unwrap contract:
// Unwrap() exposes every cell failure in ascending Index order no
// matter which worker finished first, and errors.Is / errors.As reach
// a cause buried in ANY cell — a sentinel in one, a structured
// invariant violation in another, a plain error in a third.
func TestGridErrorMultiCauseUnwrap(t *testing.T) {
	plan := degradePlan(6)
	sentinel := errors.New("disk on fire")
	flaky := errors.New("flaky mount")
	var release sync.WaitGroup
	release.Add(1)
	_, err := Run(Options{Workers: 6, ContinueOnError: true}, plan,
		func(ctx context.Context, idx int, c Cell, seed uint64) (int, error) {
			switch idx {
			case 1:
				// Completes LAST: holds until every other cell returned.
				release.Wait()
				return 0, fmt.Errorf("slow cell: %w", sentinel)
			case 3:
				return 0, func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = r.(error)
						}
					}()
					invariant.Failf("unwrap_check", "degrade", "cell %d poisoned", idx)
					return nil
				}()
			case 5:
				defer release.Done()
				return 0, flaky
			}
			return idx, nil
		})
	ge, ok := AsGridError(err)
	if !ok {
		t.Fatalf("want *GridError, got %v", err)
	}
	// Ascending Index order, independent of completion order (cell 1
	// finished after cells 3 and 5 by construction).
	if got := ge.failedIndexes(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("failed indexes = %v, want [1 3 5]", got)
	}
	unwrapped := ge.Unwrap()
	if len(unwrapped) != 3 {
		t.Fatalf("Unwrap returned %d errors, want 3", len(unwrapped))
	}
	for i, e := range unwrapped {
		var ce CellError
		if !errors.As(e, &ce) || ce.Index != ge.Failures[i].Index {
			t.Fatalf("Unwrap()[%d] = %v, want CellError for index %d", i, e, ge.Failures[i].Index)
		}
	}
	// Multi-cause traversal through the aggregate.
	if !errors.Is(err, sentinel) {
		t.Fatal("errors.Is missed the sentinel wrapped in cell 1")
	}
	if v, ok := invariant.As(err); !ok || v.Check != "unwrap_check" {
		t.Fatal("errors.As missed the invariant violation in cell 3")
	}
	if !errors.Is(err, flaky) {
		t.Fatal("errors.Is missed the plain error of cell 5")
	}
}

// TestCacheCorruptEntryReExecuted drives the corrupt-entry recovery end
// to end through a plan, the way the studies use the cache: the corrupt
// entry is detected and deleted, runner_cache_corrupt_total increments,
// the cell re-executes and re-caches, and the next run hits clean.
func TestCacheCorruptEntryReExecuted(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	plan := degradePlan(1)
	var executions atomic.Int64
	runPlan := func() (int, *Observations) {
		obs := NewObservations(0)
		res, err := Run(Options{Workers: 1, Cache: c, Metrics: obs.PlanRegistry()}, plan,
			func(ctx context.Context, idx int, cell Cell, seed uint64) (int, error) {
				executions.Add(1)
				return 7, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], obs
	}
	if got, _ := runPlan(); got != 7 {
		t.Fatalf("first run = %d, want 7", got)
	}
	if got, _ := runPlan(); got != 7 || executions.Load() != 1 {
		t.Fatalf("warm run re-executed (executions=%d)", executions.Load())
	}
	// Corrupt the entry on disk: the next run must detect it, delete it,
	// count it, and re-execute the cell.
	key := c.key(plan.Name, plan.Cells[0], plan.Cells[0].Seed(plan.Seed), plan.Inputs)
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, obs := runPlan()
	if got != 7 {
		t.Fatalf("recovery run = %d, want 7", got)
	}
	if executions.Load() != 2 {
		t.Fatalf("corrupt entry did not force re-execution (executions=%d)", executions.Load())
	}
	if got := c.CorruptCount(); got != 1 {
		t.Fatalf("CorruptCount = %d, want 1", got)
	}
	if got := obs.Merged().CounterValue(metrics.RunnerCacheCorruptTotal); got != 1 {
		t.Fatalf("runner_cache_corrupt_total = %d, want 1", got)
	}
	// The re-executed result was re-cached: a final run hits clean.
	if got, _ := runPlan(); got != 7 || executions.Load() != 2 {
		t.Fatalf("re-cached entry does not hit (executions=%d)", executions.Load())
	}
}

func TestNilCacheCorruptCount(t *testing.T) {
	var c *Cache
	if c.CorruptCount() != 0 {
		t.Fatal("nil cache reports corruption")
	}
	// A nil collector and a nil cache are valid Run options.
	var o *Observations
	if _, err := Run(Options{Cache: c, Obs: o, Metrics: o.PlanRegistry()}, degradePlan(2),
		func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) { return idx, nil }); err != nil {
		t.Fatal(err)
	}
	if o.PlanRegistry() != nil {
		t.Fatal("nil observations returned a live registry")
	}
}

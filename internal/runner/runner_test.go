package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func grid(exp string, benches, profiles, managers []string, cores []int, runs int) Plan {
	p := Plan{Name: exp, Seed: 0x7e57}
	for _, b := range benches {
		for _, pr := range profiles {
			for _, m := range managers {
				for _, c := range cores {
					for r := 0; r < runs; r++ {
						p.Cells = append(p.Cells, Cell{
							Exp: exp, Bench: b, Profile: pr, Manager: m, Cores: c, Run: r,
						})
					}
				}
			}
		}
	}
	return p
}

func fig7Grid() Plan {
	return grid("fig7",
		[]string{"HPCCG", "CoMD", "miniMD", "miniFE"},
		[]string{"A", "B"},
		[]string{"hpmmap", "thp", "hugetlbfs"},
		[]int{1, 2, 4, 8}, 10)
}

// TestResultsIdenticalAcrossWorkerCounts is the executor half of the
// determinism contract: results depend only on the coordinate-derived
// seed, never on scheduling.
func TestResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	plan := fig7Grid()
	run := func(workers int) []uint64 {
		out, err := Run(Options{Workers: workers}, plan,
			func(_ context.Context, _ int, _ Cell, seed uint64) (uint64, error) {
				// A pure function of the seed stands in for a simulation run.
				_, v := splitmix64(seed)
				return v, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	w1 := run(1)
	for _, workers := range []int{2, 8, 33} {
		wn := run(workers)
		for i := range w1 {
			if w1[i] != wn[i] {
				t.Fatalf("workers=%d: cell %d differs: %x vs %x", workers, i, wn[i], w1[i])
			}
		}
	}
}

func TestWorkerPoolBounded(t *testing.T) {
	plan := grid("bound", []string{"b"}, []string{"p"}, []string{"m"}, []int{1}, 64)
	const workers = 3
	var cur, max atomic.Int64
	_, err := Run(Options{Workers: workers}, plan,
		func(context.Context, int, Cell, uint64) (int, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent cells, worker bound is %d", got, workers)
	}
}

func TestFirstErrorPropagatesAndCancels(t *testing.T) {
	plan := grid("err", []string{"b"}, []string{"p"}, []string{"m"}, []int{1}, 100)
	boom := errors.New("boom")
	var executed atomic.Int64
	_, err := Run(Options{Workers: 2}, plan,
		func(ctx context.Context, idx int, _ Cell, _ uint64) (int, error) {
			executed.Add(1)
			if idx == 3 {
				return 0, boom
			}
			return idx, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "err b/p/m/c1#3") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
	// Cancellation must stop the tail of the plan from executing.
	if n := executed.Load(); n == int64(len(plan.Cells)) {
		t.Fatalf("all %d cells executed despite early error", n)
	}
}

func TestPanicContained(t *testing.T) {
	plan := grid("panic", []string{"b"}, []string{"p"}, []string{"m"}, []int{1}, 4)
	_, err := Run(Options{Workers: 2}, plan,
		func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) {
			if idx == 1 {
				panic("cell exploded")
			}
			return idx, nil
		})
	if err == nil || !strings.Contains(err.Error(), "cell exploded") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	plan := grid("cancel", []string{"b"}, []string{"p"}, []string{"m"}, []int{1}, 200)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	_, err := Run(Options{Workers: 2, Context: ctx}, plan,
		func(context.Context, int, Cell, uint64) (int, error) {
			if executed.Add(1) == 5 {
				cancel()
			}
			return 0, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n == int64(len(plan.Cells)) {
		t.Fatalf("cancellation did not stop the plan (%d cells ran)", n)
	}
}

func TestProgressSerializedAndComplete(t *testing.T) {
	plan := grid("prog", []string{"b"}, []string{"p"}, []string{"m"}, []int{1, 2}, 25)
	var inSink atomic.Int64
	seen := map[int]bool{} // unsynchronized on purpose: the sink contract
	lastDone := 0
	_, err := Run(Options{
		Workers: 8,
		Progress: func(e Event) {
			if inSink.Add(1) != 1 {
				t.Error("progress sink invoked concurrently")
			}
			defer inSink.Add(-1)
			seen[e.Index] = true
			if e.Done != lastDone+1 {
				t.Errorf("done went %d -> %d", lastDone, e.Done)
			}
			lastDone = e.Done
			if e.Total != len(plan.Cells) {
				t.Errorf("total = %d, want %d", e.Total, len(plan.Cells))
			}
			if e.Done < e.Total && e.Elapsed > 0 && e.ETA < 0 {
				t.Errorf("negative ETA: %v", e.ETA)
			}
		},
	}, plan, func(_ context.Context, idx int, _ Cell, _ uint64) (int, error) {
		time.Sleep(time.Duration(idx%3) * 100 * time.Microsecond)
		return idx, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(plan.Cells) {
		t.Fatalf("progress covered %d of %d cells", len(seen), len(plan.Cells))
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Plan: "fig7",
		Cell: Cell{Exp: "fig7", Bench: "HPCCG", Profile: "A", Manager: "thp", Cores: 4, Run: 2},
		Done: 3, Total: 10, ETA: 90 * time.Second,
	}
	s := e.String()
	for _, want := range []string{"fig7", "3/10", "ETA", "HPCCG", "thp", "c4#2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event %q missing %q", s, want)
		}
	}
	// A clean event carries no degradation marker.
	if strings.Contains(s, "failed") {
		t.Fatalf("clean event %q mentions %q", s, "failed")
	}
	// Quarantined cells are called out distinctly from the done/total
	// count.
	e.Failed = 2
	s = e.String()
	for _, want := range []string{"3/10", "[2 failed]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("degraded event %q missing %q", s, want)
		}
	}
}

func TestEmptyPlan(t *testing.T) {
	out, err := Run(Options{}, Plan{Name: "empty"},
		func(context.Context, int, Cell, uint64) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty plan: %v %v", out, err)
	}
}

// TestRunStress hammers the pool under the race detector: many cells,
// shared progress sink, frequent errors suppressed until the end.
func TestRunStress(t *testing.T) {
	plan := grid("stress", []string{"a", "b"}, []string{"p", "q"}, []string{"m"}, []int{1, 2, 4}, 20)
	var mu sync.Mutex
	var lines []string
	out, err := Run(Options{
		Workers: 16,
		Progress: func(e Event) {
			mu.Lock()
			lines = append(lines, e.String())
			mu.Unlock()
		},
	}, plan, func(_ context.Context, idx int, cell Cell, seed uint64) (string, error) {
		return fmt.Sprintf("%s=%x", cell, seed), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(plan.Cells) || len(lines) != len(plan.Cells) {
		t.Fatalf("%d results, %d progress lines, want %d", len(out), len(lines), len(plan.Cells))
	}
	for i, s := range out {
		if s == "" {
			t.Fatalf("cell %d produced no result", i)
		}
	}
}

package linuxmm

import (
	"testing"

	"hpmmap/internal/vma"
)

// churn runs one pod-like lifetime: spawn, map, touch, finish, reap.
func churn(t testing.TB, e *env, bytes uint64) {
	t.Helper()
	p, err := e.node.NewProcess("pod", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	tk := e.node.NewTask(p, -1, 1)
	addr, _, err := e.node.Mmap(p, bytes, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p, addr, bytes); err != nil {
		t.Fatal(err)
	}
	tk.Finish()
	e.node.ExitReap(p)
}

// TestExitReapRecyclesStructsClean drives the poisoned-struct hazard:
// a process accumulates per-field state over its lifetime (resident
// counters, VMAs, fault records, task bookkeeping), exits through
// ExitReap, and its struct is handed to the next NewProcess. Every
// observable of the successor must read newborn — any field the reset
// in reap()/procStruct() misses shows up here as leaked residency, a
// shifted mapping address, or a stale task.
func TestExitReapRecyclesStructsClean(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	if !e.node.LifecyclePooling() {
		t.Fatal("lifecycle pooling should default on")
	}

	// First life: dirty every field a pod lifetime dirties.
	p1, err := e.node.NewProcess("first", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	pid1 := p1.PID
	tk := e.node.NewTask(p1, -1, 1)
	a1, _, err := e.node.Mmap(p1, 64<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.node.TouchRange(p1, a1, 64<<20); err != nil {
		t.Fatal(err)
	}
	if p1.ResidentBytes() == 0 {
		t.Fatal("first life should be resident after touch")
	}
	free := e.node.Mem.FreePages()
	tk.Finish()
	e.node.ExitReap(p1)
	if e.node.Mem.FreePages() <= free {
		t.Fatal("ExitReap did not free the first life's frames")
	}
	if e.node.LifecycleReaps != 1 {
		t.Fatalf("LifecycleReaps = %d, want 1", e.node.LifecycleReaps)
	}

	// Second life must get the recycled struct, newborn in every
	// observable: zero residency, fresh PID, the same layout base as a
	// brand-new address space, and no inherited tasks.
	p2, err := e.node.NewProcess("second", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("NewProcess did not reuse the reaped struct")
	}
	if e.node.LifecycleProcReuses != 1 {
		t.Fatalf("LifecycleProcReuses = %d, want 1", e.node.LifecycleProcReuses)
	}
	if p2.PID == pid1 {
		t.Fatal("recycled process kept the dead PID")
	}
	if p2.Exited {
		t.Fatal("recycled process still marked Exited")
	}
	if p2.ResidentBytes() != 0 {
		t.Fatalf("recycled process has %d resident bytes before any touch", p2.ResidentBytes())
	}
	if p2.Name != "second" {
		t.Fatalf("recycled process Name = %q", p2.Name)
	}
	tk2 := e.node.NewTask(p2, -1, 1)
	if e.node.LifecycleTaskReuses != 1 {
		t.Fatalf("LifecycleTaskReuses = %d, want 1", e.node.LifecycleTaskReuses)
	}
	if tk2.Done() {
		t.Fatal("recycled task still marked done")
	}
	a2, _, err := e.node.Mmap(p2, 64<<20, rw, vma.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatalf("recycled address space maps at %#x, newborn mapped at %#x", a2, a1)
	}
	st, err := e.touch(p2, a2, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	var faults uint64
	for _, f := range st.Faults {
		faults += f
	}
	if faults == 0 {
		t.Fatal("recycled page table served touches without faulting (stale mappings)")
	}
}

// TestExitNeverRecycles pins the Exit/ExitReap split: plain Exit is for
// non-quiescent call sites (OOM killer, chaos) and must never feed the
// pools.
func TestExitNeverRecycles(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p, err := e.node.NewProcess("p", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.node.Exit(p)
	if e.node.LifecycleReaps != 0 {
		t.Fatal("plain Exit recycled a struct")
	}
	p2, err := e.node.NewProcess("q", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p {
		t.Fatal("NewProcess reused a struct that went through plain Exit")
	}
}

// TestExitReapUnfinishedTaskStaysDead: a process with a task still not
// done is not quiescent — teardown happens but the struct must not be
// recycled (the runqueue may still reference the task).
func TestExitReapUnfinishedTaskStaysDead(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	p, err := e.node.NewProcess("p", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.node.NewTask(p, -1, 1) // never finished
	e.node.ExitReap(p)
	if !p.Exited {
		t.Fatal("ExitReap did not tear the process down")
	}
	p2, err := e.node.NewProcess("q", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p {
		t.Fatal("recycled a process with an unfinished task")
	}
}

// TestSteadyStateChurnBoundsPools: N sequential pod lifetimes should
// reach a steady state where every lifetime reuses the one recycled
// struct — the pools must not grow with churn.
func TestSteadyStateChurnBoundsPools(t *testing.T) {
	e := newEnv(t, ModeTHP, ModeTHP, 0, false)
	const lives = 50
	for i := 0; i < lives; i++ {
		churn(t, e, 32<<20)
	}
	if e.node.LifecycleReaps != lives {
		t.Fatalf("LifecycleReaps = %d, want %d", e.node.LifecycleReaps, lives)
	}
	// Every life after the first reuses the single pooled struct.
	if e.node.LifecycleProcReuses != lives-1 {
		t.Fatalf("LifecycleProcReuses = %d, want %d", e.node.LifecycleProcReuses, lives-1)
	}
}

// TestPooledForkExitAllocates0 pins the lifecycle fast path's claim:
// with pooling on, a steady-state pod lifetime (spawn, map, touch,
// finish, reap) allocates nothing; with it off, every lifetime
// allocates its structs afresh.
func TestPooledForkExitAllocates0(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		e := newEnv(t, ModeTHP, ModeTHP, 0, false)
		e.node.SetLifecyclePooling(pooled)
		allocs := testing.AllocsPerRun(100, func() { churn(t, e, 2<<20) })
		switch {
		case pooled && allocs != 0:
			t.Errorf("pooled fork/exit allocates %.1f/op, want 0", allocs)
		case !pooled && allocs == 0:
			t.Error("unpooled fork/exit allocates nothing; the pooled check above proves nothing")
		}
	}
}

// BenchmarkForkExit measures the pod-lifetime hot loop with the
// lifecycle fast path on and off. TestPooledForkExitAllocates0 pins
// the allocation claim (0 allocs/op pooled, some unpooled); this
// reports the time.
func BenchmarkForkExit(b *testing.B) {
	for _, pooled := range []bool{true, false} {
		name := "pooled"
		if !pooled {
			name = "unpooled"
		}
		b.Run(name, func(b *testing.B) {
			e := newEnv(b, ModeTHP, ModeTHP, 0, false)
			e.node.SetLifecyclePooling(pooled)
			b.ReportAllocs()
			b.ResetTimer()
			// A 2MB footprint keeps the loop lifecycle-dominated: the
			// measured work is attach/mmap/detach/reap, not the touch.
			for i := 0; i < b.N; i++ {
				churn(b, e, 2<<20)
			}
		})
	}
}

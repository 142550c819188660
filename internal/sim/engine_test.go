package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("Now = %d, want 0", e.Now())
	}
	if e.Executed() != 0 {
		t.Fatalf("Executed = %d, want 0", e.Executed())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now = %d, want 30", e.Now())
	}
}

func TestEngineFIFOWithinSameCycle(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-cycle events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Cycles
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
		e.Schedule(0, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 3 || hits[0] != 10 || hits[1] != 10 || hits[2] != 15 {
		t.Fatalf("hits = %v, want [10 10 15]", hits)
	}
}

func TestEngineAtPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Cycles
	e.Schedule(100, func() {
		e.At(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Cycles
	for _, d := range []Cycles{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(12) fired %d events, want 2", len(fired))
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d after RunUntil(12) with pending work, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 || e.Now() != 20 {
		t.Fatalf("after Run: fired=%v now=%d", fired, e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Cycles
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, at := range []Cycles{10, 20, 30} {
		if ticks[i] != at {
			t.Fatalf("ticks = %v", ticks)
		}
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	e := NewEngine()
	calls := 0
	tk := e.NewTicker(10, func() { calls++ })
	tk.Stop()
	tk.Stop()
	e.Run()
	// The first tick was queued at creation; it pops as a no-op.
	if calls != 0 || e.Executed() != 1 || e.Now() != 10 {
		t.Fatalf("after Stop, Stop, Run: calls=%d executed=%d now=%d, want 0, 1, 10",
			calls, e.Executed(), e.Now())
	}
}

func TestTickerStoppedBetweenTicks(t *testing.T) {
	for _, c := range []struct {
		stopAt   Cycles
		ticks    []Cycles
		executed uint64
		now      Cycles
	}{
		// Ticks at 10 and 20, the stop at 25, the queued tick at 30.
		{stopAt: 25, ticks: []Cycles{10, 20}, executed: 4, now: 30},
		// The stop was queued before the tick at 20, so it pops first.
		{stopAt: 20, ticks: []Cycles{10}, executed: 3, now: 20},
	} {
		e := NewEngine()
		var ticks []Cycles
		tk := e.NewTicker(10, func() { ticks = append(ticks, e.Now()) })
		e.At(c.stopAt, tk.Stop)
		e.Run()
		if fmt.Sprint(ticks) != fmt.Sprint(c.ticks) || e.Executed() != c.executed || e.Now() != c.now {
			t.Fatalf("stop at %d: ticks=%v executed=%d now=%d, want %v, %d, %d",
				c.stopAt, ticks, e.Executed(), e.Now(), c.ticks, c.executed, c.now)
		}
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	run := func() []Cycles {
		e := NewEngine()
		r := NewRand(42)
		var trace []Cycles
		var step func()
		step = func() {
			trace = append(trace, e.Now())
			if len(trace) < 100 {
				e.Schedule(Cycles(r.Uint64n(1000)+1), step)
			}
		}
		e.Schedule(1, step)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestEngineStepDropsFiredCallbacks(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 9; i++ {
		e.Schedule(Cycles(i%3), func() {})
	}
	e.RunUntil(1)
	// Only the three events due at 2 may still hold a callback.
	for i, ev := range e.queue[:cap(e.queue)] {
		if (i < len(e.queue)) != (ev.fn != nil) {
			t.Fatalf("heap slot %d of %d queued: callback held = %v", i, len(e.queue), ev.fn != nil)
		}
	}
}

func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	e.NewTicker(3, func() {})
	noop := func() {}
	step := func() {
		e.Schedule(2, noop)
		e.Schedule(1, noop)
		e.RunUntil(e.Now() + 3)
	}
	step() // grow the heap once
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Schedule/RunUntil with a ticker: %v allocs per cycle, want 0", n)
	}
}

// The reference engine is the event queue as it was first written: one
// heap-allocated event per At, ordered by container/heap.
// TestEngineMatchesReference and FuzzEngine drive it and Engine with the
// same operations and compare everything either one reports.

type refEvent struct {
	at  Cycles
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now   Cycles
	queue refHeap
	seq   uint64
	nexec uint64
}

func (e *refEngine) Now() Cycles      { return e.now }
func (e *refEngine) Executed() uint64 { return e.nexec }
func (e *refEngine) Pending() int     { return len(e.queue) }

func (e *refEngine) Schedule(delay Cycles, fn func()) { e.At(e.now+delay, fn) }

func (e *refEngine) At(t Cycles, fn func()) {
	if t < e.now {
		t = e.now
	}
	heap.Push(&e.queue, &refEvent{at: t, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	if ev.at > e.now {
		e.now = ev.at
	}
	e.nexec++
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(deadline Cycles) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && len(e.queue) > 0 {
		e.now = deadline
	}
}

// refTicker arms a new closure per tick; Stop leaves the queued tick in
// place to pop as a no-op.
type refTicker struct {
	eng     *refEngine
	period  Cycles
	fn      func()
	stopped bool
}

func (e *refEngine) NewTicker(period Cycles, fn func()) *refTicker {
	t := &refTicker{eng: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.eng.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() { t.stopped = true }

// testEngine is the surface the differential harness exercises, met by
// both *Engine and *refEngine.
type testEngine[T interface{ Stop() }] interface {
	At(Cycles, func())
	Schedule(Cycles, func())
	Step() bool
	RunUntil(Cycles)
	Now() Cycles
	Executed() uint64
	Pending() int
	NewTicker(Cycles, func()) T
}

// Operation kinds of a harness program; each op carries two argument bytes.
const (
	opSchedule = iota
	opAt
	opStep
	opRunUntil
	opTicker
	opStopTicker
	numOps
)

// driveEngine runs the program encoded in prog on eng and returns a log
// of everything the engine reported.
func driveEngine[T interface{ Stop() }, E testEngine[T]](prog []byte, eng E) []string {
	var (
		log     []string
		events  int
		tickers []T
	)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	stop := func(sel byte) {
		if len(tickers) > 0 {
			k := int(sel) % len(tickers)
			logf("stop ticker %d", k)
			tickers[k].Stop()
		}
	}
	// event schedules a callback that logs its firing, then acts on arg:
	// arg%4 is 1 or 3 for a child at a later or a past time (the child
	// takes arg>>2, so chains end), 2 to stop a ticker from outside its
	// own callback.
	var event func(t Cycles, arg byte)
	event = func(t Cycles, arg byte) {
		h := events
		events++
		eng.At(t, func() {
			logf("fire %d now=%d exec=%d pending=%d", h, eng.Now(), eng.Executed(), eng.Pending())
			switch arg % 4 {
			case 1:
				event(eng.Now()+Cycles(arg>>4%4), arg>>2)
			case 2:
				stop(arg >> 2)
			case 3:
				event(eng.Now()-min(eng.Now(), 1), arg>>2)
			}
		})
	}
	for i := 0; i+2 < len(prog); i += 3 {
		a, b := prog[i+1], prog[i+2]
		switch prog[i] % numOps {
		case opSchedule:
			event(eng.Now()+Cycles(a%8), b)
		case opAt:
			// Half of these ask for a time up to 7 cycles in the past.
			t := eng.Now() + Cycles(a%8)
			if a&8 != 0 {
				t = eng.Now() - min(eng.Now(), Cycles(a%8))
			}
			event(t, b)
		case opStep:
			logf("step %v", eng.Step())
		case opRunUntil:
			eng.RunUntil(eng.Now() + Cycles(a%32))
		case opTicker:
			k, ticks := len(tickers), 0
			var tk T
			tk = eng.NewTicker(Cycles(a%8+1), func() {
				ticks++
				logf("tick %d #%d now=%d", k, ticks, eng.Now())
				if b%8 < 4 && ticks > int(b%4) {
					tk.Stop() // stopped inside its own callback
				}
			})
			tickers = append(tickers, tk)
		case opStopTicker:
			stop(a)
		}
		logf("now=%d exec=%d pending=%d", eng.Now(), eng.Executed(), eng.Pending())
	}
	for _, tk := range tickers {
		tk.Stop()
	}
	for eng.Step() {
	}
	logf("end now=%d exec=%d pending=%d", eng.Now(), eng.Executed(), eng.Pending())
	return log
}

// checkEngineMatchesReference runs prog on Engine and on the reference
// engine and reports the first line where their logs differ.
func checkEngineMatchesReference(t *testing.T, prog []byte) {
	t.Helper()
	got := driveEngine[*Ticker](prog, NewEngine())
	want := driveEngine[*refTicker](prog, &refEngine{})
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("program %x: log line %d is %q, reference %q", prog, i, g, w)
		}
	}
}

func TestEngineMatchesReference(t *testing.T) {
	r := NewRand(7)
	for run := 0; run < 500; run++ {
		prog := make([]byte, 3*(1+r.Intn(120)))
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		checkEngineMatchesReference(t, prog)
	}
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{opSchedule, 3, 0, opSchedule, 3, 0, opSchedule, 3, 0, opStep, 0, 0})
	f.Add([]byte{opTicker, 3, 4, opSchedule, 4, 2, opSchedule, 1, 0, opRunUntil, 30, 0})
	f.Add([]byte{opTicker, 2, 1, opSchedule, 5, 2, opRunUntil, 20, 0, opStopTicker, 0, 0, opStep, 0, 0})
	f.Add([]byte{opAt, 12, 1, opSchedule, 0, 3, opStep, 0, 0, opRunUntil, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		checkEngineMatchesReference(t, prog)
	})
}

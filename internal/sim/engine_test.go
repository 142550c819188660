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

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for live event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !id.Cancelled() {
		t.Fatal("Cancelled() = false after cancel")
	}
}

func TestEngineCancelAmongMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	var ids []EventID
	for i := 0; i < 20; i++ {
		i := i
		ids = append(ids, e.Schedule(Cycles(i+1), func() { fired = append(fired, i) }))
	}
	// Cancel the even ones.
	for i := 0; i < 20; i += 2 {
		e.Cancel(ids[i])
	}
	e.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for _, v := range fired {
		if v%2 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
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
	tk := e.NewTicker(10, func() {})
	tk.Stop()
	tk.Stop()
	e.Run()
	if e.Executed() != 0 {
		t.Fatalf("stopped ticker executed %d events", e.Executed())
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

func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	tk := e.NewTicker(3, func() {})
	defer tk.Stop()
	noop := func() {}
	step := func() {
		id := e.Schedule(2, noop)
		e.Schedule(1, noop)
		e.Cancel(id)
		e.RunUntil(e.Now() + 3)
	}
	step() // grow the slab, free list and heap once
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("Schedule/Cancel/RunUntil with a ticker: %v allocs per cycle, want 0", n)
	}
}

// The reference engine is the event queue as it was before events were
// pooled: one heap-allocated event per At, ordered by container/heap.
// TestEngineMatchesReference and FuzzEngine drive it and Engine with the
// same operations and compare everything either one reports.

type refEvent struct {
	at   Cycles
	seq  uint64
	fn   func()
	heap *refHeap
	idx  int // index in the heap, -1 when popped or cancelled
}

type refEventID struct{ ev *refEvent }

// Cancelled reports whether the event was cancelled or already fired.
func (id EventID) Cancelled() bool { return id.eng == nil || !id.eng.live(id) }

func (id refEventID) Cancelled() bool { return id.ev == nil || id.ev.idx < 0 }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
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

func (e *refEngine) Schedule(delay Cycles, fn func()) refEventID { return e.At(e.now+delay, fn) }

func (e *refEngine) At(t Cycles, fn func()) refEventID {
	if t < e.now {
		t = e.now
	}
	ev := &refEvent{at: t, seq: e.seq, fn: fn, heap: &e.queue}
	e.seq++
	heap.Push(&e.queue, ev)
	return refEventID{ev: ev}
}

func (e *refEngine) Cancel(id refEventID) bool {
	ev := id.ev
	if ev == nil || ev.idx < 0 || ev.heap != &e.queue {
		return false
	}
	heap.Remove(&e.queue, ev.idx)
	return true
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

type refTicker struct {
	eng     *refEngine
	period  Cycles
	fn      func()
	stopped bool
	next    refEventID
}

func (e *refEngine) NewTicker(period Cycles, fn func()) *refTicker {
	t := &refTicker{eng: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *refTicker) arm() {
	t.next = t.eng.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

func (t *refTicker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(t.next)
}

// testEngine is the surface the differential harness exercises, met by
// both *Engine and *refEngine.
type testEngine[ID interface{ Cancelled() bool }, T interface{ Stop() }] interface {
	At(Cycles, func()) ID
	Schedule(Cycles, func()) ID
	Cancel(ID) bool
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
	opCancel
	opStep
	opRunUntil
	opTicker
	opStopTicker
	opForeign
	opCheck
	numOps
)

// driveEngine runs the program encoded in prog on eng and returns a log
// of everything the engine reported. foreign is a second engine whose
// first events share slot indexes and sequence numbers with eng's, so
// cancelling their IDs on eng checks the engine test, not the generation.
func driveEngine[ID interface{ Cancelled() bool }, T interface{ Stop() }, E testEngine[ID, T]](prog []byte, eng, foreign E) []string {
	var (
		log      []string
		ids      []ID
		foreigns []ID
		tickers  []T
	)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	for i := 0; i < 4; i++ {
		foreigns = append(foreigns, foreign.Schedule(Cycles(i), func() {}))
	}
	cancel := func(sel byte) {
		if len(ids) == 0 {
			var zero ID
			logf("cancel zero %v", eng.Cancel(zero))
			return
		}
		h := int(sel) % len(ids)
		logf("cancel %d %v", h, eng.Cancel(ids[h]))
	}
	// event schedules a callback that logs its firing, then acts on arg:
	// arg%4 is 1 or 3 for a child at a later or a past time (the child
	// takes arg>>2, so chains end), 2 for a cancel. The callback logs
	// its own ID's Cancelled() last, after a child may have reused the
	// slot.
	var event func(t Cycles, arg byte)
	event = func(t Cycles, arg byte) {
		h := len(ids)
		ids = append(ids, eng.At(t, func() {
			logf("fire %d now=%d exec=%d pending=%d", h, eng.Now(), eng.Executed(), eng.Pending())
			switch arg % 4 {
			case 1:
				event(eng.Now()+Cycles(arg>>4%4), arg>>2)
			case 2:
				cancel(arg >> 2)
			case 3:
				event(eng.Now()-min(eng.Now(), 1), arg>>2)
			}
			logf("fire %d self-cancelled=%v", h, ids[h].Cancelled())
		}))
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
		case opCancel:
			cancel(a)
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
			if len(tickers) > 0 {
				tickers[int(a)%len(tickers)].Stop()
			}
		case opForeign:
			id := foreigns[int(a)%len(foreigns)]
			logf("foreign cancel %v cancelled=%v", eng.Cancel(id), id.Cancelled())
		case opCheck:
			for h, id := range ids {
				logf("id %d cancelled=%v", h, id.Cancelled())
			}
		}
		logf("now=%d exec=%d pending=%d", eng.Now(), eng.Executed(), eng.Pending())
	}
	for _, tk := range tickers {
		tk.Stop()
	}
	for eng.Step() {
	}
	logf("end now=%d exec=%d pending=%d", eng.Now(), eng.Executed(), eng.Pending())
	for h, id := range ids {
		logf("id %d cancelled=%v", h, id.Cancelled())
	}
	return log
}

// checkEngineMatchesReference runs prog on Engine and on the reference
// engine and reports the first line where their logs differ.
func checkEngineMatchesReference(t *testing.T, prog []byte) {
	t.Helper()
	got := driveEngine[EventID, *Ticker](prog, NewEngine(), NewEngine())
	want := driveEngine[refEventID, *refTicker](prog, &refEngine{}, &refEngine{})
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
	f.Add([]byte{opSchedule, 3, 0, opSchedule, 3, 0, opSchedule, 3, 0, opStep, 0, 0, opCheck, 0, 0})
	f.Add([]byte{opSchedule, 1, 0, opStep, 0, 0, opSchedule, 1, 0, opCancel, 0, 0, opForeign, 0, 0})
	f.Add([]byte{opTicker, 2, 1, opSchedule, 5, 2, opRunUntil, 20, 0, opStopTicker, 0, 0, opCheck, 0, 0})
	f.Add([]byte{opAt, 12, 1, opSchedule, 0, 3, opStep, 0, 0, opRunUntil, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		checkEngineMatchesReference(t, prog)
	})
}

// Package sim provides the deterministic discrete-event simulation core
// used by every other subsystem in the HPMMAP reproduction: a 64-bit cycle
// clock, a binary-heap event queue, and seedable pseudo-random number
// generation with the distributions the cost models need.
//
// All simulated time is measured in CPU cycles. Converting to seconds is
// the responsibility of the machine configuration (see internal/kernel).
package sim

import "fmt"

// Cycles is a point in (or duration of) simulated time, in CPU cycles.
type Cycles uint64

// event is one scheduled callback.
type event struct {
	at  Cycles
	seq uint64 // tie-breaker: FIFO among events at the same cycle
	fn  func()
}

// before orders events by (at, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; parallelism in the simulated system is expressed as
// interleaved events, which keeps runs bit-for-bit deterministic for a
// given seed.
//
// Events wait by value in a binary min-heap ordered by (at, seq). seq
// is unique, so that order is total and any correct heap pops the same
// sequence. Once the heap's array has grown to the run's deepest
// queue, scheduling allocates nothing.
type Engine struct {
	now   Cycles
	queue []event // binary min-heap by (at, seq)
	seq   uint64
	nexec uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycles { return e.now }

// Executed returns the number of events executed so far. The tick a
// stopped Ticker left queued counts when it pops, though it calls
// nothing.
func (e *Engine) Executed() uint64 { return e.nexec }

// Pending returns the number of events currently scheduled, a stopped
// Ticker's leftover tick included.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay cycles. fn runs with the engine clock set to
// the scheduled time. Scheduling at delay 0 runs fn after all other work
// already scheduled for the current cycle.
func (e *Engine) Schedule(delay Cycles, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. If t is in the past it runs at the current
// time (events never run backwards).
func (e *Engine) At(t Cycles, fn func()) {
	if fn == nil {
		panic("sim: Schedule/At with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	e.queue = append(e.queue, event{at: t, seq: e.seq, fn: fn})
	e.seq++
	e.up(len(e.queue) - 1)
}

// Step executes the single next event. Reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ev := e.queue[0]
	last := e.queue[n]
	e.queue[n] = event{} // drop the moved tail's callback from the array
	e.queue = e.queue[:n]
	if n > 0 {
		e.down(last)
	}
	if ev.at > e.now {
		e.now = ev.at
	}
	e.nexec++
	ev.fn()
	return true
}

// up sifts the event at heap index i towards the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// down puts ev at the root of the heap, which Step has just vacated, and
// sifts it towards the leaves.
func (e *Engine) down(ev event) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes every event due at or before deadline. If events
// remain queued after it, the clock then reads deadline; if the queue
// drained, it reads the time of the last event executed.
func (e *Engine) RunUntil(deadline Cycles) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline && len(e.queue) > 0 {
		e.now = deadline
	}
}

// String summarizes engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%d pending=%d executed=%d}", e.now, len(e.queue), e.nexec)
}

// Ticker invokes fn every period cycles until Stop is called. The first
// invocation happens one period from creation.
type Ticker struct {
	eng     *Engine
	period  Cycles
	fn      func()
	tick    func() // t.fire, bound once so that re-arming allocates nothing
	stopped bool
}

// NewTicker starts a periodic callback. period must be > 0.
func (e *Engine) NewTicker(period Cycles, fn func()) *Ticker {
	if period == 0 {
		panic("sim: NewTicker with zero period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tick = t.fire
	e.Schedule(period, t.tick)
	return t
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.eng.Schedule(t.period, t.tick)
	}
}

// Stop halts the ticker: fn never runs again. Safe to call multiple
// times. A tick already queued stays queued and pops as a no-op that
// counts in Executed and moves Now like any other event.
func (t *Ticker) Stop() {
	t.stopped = true
}

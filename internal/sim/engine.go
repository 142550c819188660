// Package sim provides the deterministic discrete-event simulation core
// used by every other subsystem in the HPMMAP reproduction: a 64-bit cycle
// clock, a pooled binary-heap event queue, and seedable pseudo-random number
// generation with the distributions the cost models need.
//
// All simulated time is measured in CPU cycles. Converting to seconds is
// the responsibility of the machine configuration (see internal/kernel).
package sim

import "fmt"

// Cycles is a point in (or duration of) simulated time, in CPU cycles.
type Cycles uint64

// event is one slot of the engine's event slab. A live slot holds a
// scheduled callback and its position in the heap; a free slot has a
// nil fn and pos -1, and waits on the free list for the next At.
type event struct {
	at  Cycles
	seq uint64 // tie-breaker (FIFO among events at the same cycle) and the slot's generation
	fn  func()
	pos int32 // index in Engine.heap, -1 while the slot is free
}

// EventID identifies a scheduled event so it can be cancelled. It names
// the event's slot and the event's sequence number, which serves as the
// slot's generation: a slot is freed when its event fires or is
// cancelled and may then hold a later event, whose sequence number is
// larger, so a stale ID never matches the slot's new occupant.
type EventID struct {
	eng  *Engine
	seq  uint64
	slot int32
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; parallelism in the simulated system is expressed as
// interleaved events, which keeps runs bit-for-bit deterministic for a
// given seed.
//
// Events live in a slab of slots recycled through a free list, and a
// binary min-heap of slot indexes orders the live ones by (at, seq).
// seq is unique, so that order is total and any correct heap pops the
// same sequence; steady-state scheduling allocates nothing.
type Engine struct {
	now    Cycles
	events []event // slab of slots
	free   []int32 // free slot indexes, reused last-freed first
	heap   []int32 // live slot indexes, a binary min-heap by (at, seq)
	seq    uint64
	nexec  uint64
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycles { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nexec }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule runs fn after delay cycles. fn runs with the engine clock set to
// the scheduled time. Scheduling at delay 0 runs fn after all other work
// already scheduled for the current cycle.
func (e *Engine) Schedule(delay Cycles, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. If t is in the past it runs at the current
// time (events never run backwards).
func (e *Engine) At(t Cycles, fn func()) EventID {
	if fn == nil {
		panic("sim: Schedule/At with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.events))
		e.events = append(e.events, event{})
	}
	e.events[slot] = event{at: t, seq: e.seq, fn: fn, pos: int32(len(e.heap))}
	e.heap = append(e.heap, slot)
	e.up(len(e.heap) - 1)
	id := EventID{eng: e, seq: e.seq, slot: slot}
	e.seq++
	return id
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event, or an event of another engine, is a no-op.
// Reports whether the event was actually removed.
func (e *Engine) Cancel(id EventID) bool {
	if id.eng != e || !e.live(id) {
		return false
	}
	e.remove(int(e.events[id.slot].pos))
	e.release(id.slot)
	return true
}

// Step executes the single next event. Reports false when the queue is
// empty. The event's slot is freed before its callback runs, so the
// callback sees its own ID as fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	slot := e.heap[0]
	e.remove(0)
	ev := &e.events[slot]
	if ev.at > e.now {
		e.now = ev.at
	}
	fn := ev.fn
	e.release(slot)
	e.nexec++
	fn()
	return true
}

// live reports whether id's slot still holds id's event.
func (e *Engine) live(id EventID) bool {
	ev := &e.events[id.slot]
	return ev.pos >= 0 && ev.seq == id.seq
}

// release returns a slot to the free list, dropping its callback.
func (e *Engine) release(slot int32) {
	e.events[slot] = event{pos: -1}
	e.free = append(e.free, slot)
}

// before orders slots by (at, seq).
func (e *Engine) before(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// place puts slot at heap index i.
func (e *Engine) place(i int, slot int32) {
	e.heap[i] = slot
	e.events[slot].pos = int32(i)
}

// remove deletes heap index i, refilling it from the heap's tail.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.place(i, last)
	if !e.down(i) {
		e.up(i)
	}
}

// up sifts heap index i towards the root.
func (e *Engine) up(i int) {
	slot := e.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(slot, e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, slot)
}

// down sifts heap index i towards the leaves and reports whether it
// moved.
func (e *Engine) down(i0 int) bool {
	slot := e.heap[i0]
	n := len(e.heap)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.before(e.heap[r], e.heap[c]) {
			c = r
		}
		if !e.before(e.heap[c], slot) {
			break
		}
		e.place(i, e.heap[c])
		i = c
	}
	e.place(i, slot)
	return i > i0
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, leaving the clock
// at min(deadline, time of last executed event ... ) — precisely: after
// RunUntil the clock is deadline if any event beyond it remains, else the
// time of the final event.
func (e *Engine) RunUntil(deadline Cycles) {
	for len(e.heap) > 0 && e.events[e.heap[0]].at <= deadline {
		e.Step()
	}
	if e.now < deadline && len(e.heap) > 0 {
		e.now = deadline
	}
}

// String summarizes engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%d pending=%d executed=%d}", e.now, len(e.heap), e.nexec)
}

// Ticker invokes fn every period cycles until Stop is called or the engine
// drains. The first invocation happens one period from creation.
type Ticker struct {
	eng     *Engine
	period  Cycles
	fn      func()
	tick    func() // t.fire, bound once so that re-arming allocates nothing
	stopped bool
	next    EventID
}

// NewTicker starts a periodic callback. period must be > 0.
func (e *Engine) NewTicker(period Cycles, fn func()) *Ticker {
	if period == 0 {
		panic("sim: NewTicker with zero period")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tick = t.fire
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.next = t.eng.Schedule(t.period, t.tick)
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop halts the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(t.next)
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is modeled as int64 nanoseconds. Events scheduled for the same
// instant fire in scheduling order (FIFO), which makes every run with the
// same inputs bit-for-bit reproducible. The engine is deliberately
// single-threaded: simulated concurrency comes from interleaved events, not
// goroutines, so there are no data races and no timing nondeterminism.
//
// The event queue is a hierarchical timing wheel (wheel.go): power-of-two
// nanosecond buckets across six levels, cascading overflow between levels,
// and a far-future overflow heap (heap.go) beyond the ~73 min horizon.
// Scheduling and firing are O(1) amortized instead of the previous 4-ary
// heap's O(log n) sifts. All wheel storage — the node slab, the free-list
// threaded through it, the cascade scratch — is retained across Run/RunUntil
// cycles, so a steady-state simulation schedules millions of events with
// zero allocations. Every event is one 48-byte cell: (at, seq) plus a
// pre-bound Call and its two argument words, filled field by field in
// place. Closures scheduled with At/Schedule take the same route, boxed as
// the argument of callFunc. Hot paths should still prefer
// ScheduleCall/AtCall with a handler bound once, so no closure is captured
// per event.
//
// An event scheduled for the current instant (delay 0) skips the wheel: it
// is appended to a retained same-instant FIFO, which fires only once the
// wheel and the overflow heap hold nothing more at that instant. This is
// exact, not an approximation. Every queued event at the current instant
// was scheduled before the clock reached it, so its seq is smaller than
// that of any FIFO entry, and the FIFO itself keeps schedule order.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulated Time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Call is the closure-free event handler form: a pre-bound function invoked
// with the two argument words the event carries. arg is a pointer-shaped
// payload (boxing a pointer into an interface does not allocate); n is a
// scalar for indices, generations, sizes.
type Call func(arg any, n int64)

// event is a scheduled callback, stored by value inside the wheel slab and
// the overflow heap: 48 bytes, a pre-bound handler plus its two argument
// words. Closures scheduled with At/Schedule carry no field of their own:
// they ride as arg under callFunc.
type event struct {
	at   Time
	seq  uint64 // tie-break among same-time events: schedule order
	call Call
	arg  any
	n    int64
}

// callFunc fires a closure scheduled with At/Schedule, carried as the
// event's arg. A func value is pointer-shaped, so boxing it into arg does
// not allocate.
func callFunc(a any, _ int64) { a.(func())() }

// before reports queue ordering: earliest time first, FIFO within a time.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	q         timerWheel
	now       Time
	seq       uint64 // wheel schedules issued so far; the next event's tie-break key
	processed uint64
	stopped   bool

	// same holds the events scheduled for the current instant, in
	// schedule order, from sameHead on; fired entries drop their
	// references. The slice is retained, so steady-state delay-0
	// scheduling does not allocate.
	same      []sameEvent
	sameHead  int
	sameFired uint64
}

// sameEvent is one same-instant FIFO entry: the instant is the clock's.
type sameEvent struct {
	call Call
	arg  any
	n    int64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.q.pending() + len(e.same) - e.sameHead }

// WheelStats is a snapshot of the event queue's counters: events fired
// (Events) and how many of them came from the same-instant FIFO
// (SameInstant), so Events-SameInstant went through the wheel; combined
// cascades run, events that ever took the overflow heap, and the slab
// high-water mark (peak simultaneously-filed events). Deterministic for a
// given seed — the queue's behavior is a pure function of the event
// population.
type WheelStats struct {
	Events        uint64
	SameInstant   uint64
	Cascades      uint64
	Overflow      uint64
	SlabHighWater int
}

// WheelStats snapshots the engine's event-queue counters.
func (e *Engine) WheelStats() WheelStats {
	return WheelStats{
		Events:        e.processed,
		SameInstant:   e.sameFired,
		Cascades:      e.q.cascades,
		Overflow:      e.q.overflowed,
		SlabHighWater: len(e.q.slab),
	}
}

// Schedule runs fn after delay. A negative delay panics: simulated time
// cannot move backwards.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t, which must not precede the current time.
func (e *Engine) At(t Time, fn func()) { e.AtCall(t, callFunc, fn, 0) }

// ScheduleCall runs call(arg, n) after delay. It is the allocation-free
// alternative to Schedule: the caller passes a handler bound once (a struct
// field, not a fresh closure or method value) plus the per-event arguments,
// so scheduling a packet event costs no heap allocation at all.
func (e *Engine) ScheduleCall(delay Time, call Call, arg any, n int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtCall(e.now+delay, call, arg, n)
}

// AtCall runs call(arg, n) at absolute time t; the closure-free form of At.
func (e *Engine) AtCall(t Time, call Call, arg any, n int64) {
	if t <= e.now {
		if t < e.now {
			panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
		}
		e.same = append(e.same, sameEvent{call: call, arg: arg, n: n})
		return
	}
	seq := e.seq
	e.seq++
	// The slab cell is filled one field at a time: a composite literal
	// would be built on the stack and copied in.
	if ev := e.q.insertSlot(t); ev != nil {
		ev.at, ev.seq, ev.call, ev.arg, ev.n = t, seq, call, arg, n
	} else {
		e.q.insertOverflow(event{at: t, seq: seq, call: call, arg: arg, n: n})
	}
}

// popSame removes the same-instant FIFO's head and returns its handler and
// argument words. The FIFO must be non-empty.
func (e *Engine) popSame() (call Call, arg any, n int64) {
	se := &e.same[e.sameHead]
	call, arg, n = se.call, se.arg, se.n
	se.call, se.arg = nil, nil
	if e.sameHead++; e.sameHead == len(e.same) {
		e.same, e.sameHead = e.same[:0], 0
	}
	return call, arg, n
}

// fireSame runs the same-instant FIFO's head at the current instant.
func (e *Engine) fireSame() {
	call, arg, n := e.popSame()
	e.processed++
	e.sameFired++
	call(arg, n)
}

// parkBelow moves the clock back to deadline, below the current instant,
// as RunUntil does when asked to stop short of it. The same-instant
// FIFO's entries still belong to the instant they were scheduled for, so
// they move to the wheel, in order; their fresh seqs exceed every queued
// event's, so the firing order is unchanged.
func (e *Engine) parkBelow(deadline Time) {
	at := e.now
	e.now = deadline
	for e.sameHead < len(e.same) {
		call, arg, n := e.popSame()
		e.AtCall(at, call, arg, n)
	}
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// RunUntil executes events in timestamp order until the queue empties, Stop
// is called, or the next event would fire after deadline. The clock is left
// at deadline if the horizon was reached, so periodic processes restarted
// later resume consistently.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	if deadline < e.now {
		e.parkBelow(deadline)
	}
	for !e.stopped {
		if e.sameHead < len(e.same) && !e.q.queuedAt(e.now) {
			e.fireSame()
			continue
		}
		at, ok := e.q.nextAt()
		if !ok {
			break
		}
		if at > deadline {
			e.now = deadline
			return
		}
		call, arg, n := e.q.popHead()
		e.now = at
		e.processed++
		call(arg, n)
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
}

// Run executes every pending event (including ones scheduled while running)
// until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		if e.sameHead < len(e.same) && !e.q.queuedAt(e.now) {
			e.fireSame()
			continue
		}
		if !e.q.findHead() {
			break
		}
		e.now = e.q.headAt
		call, arg, n := e.q.popHead()
		e.processed++
		call(arg, n)
	}
}

// Ticker invokes fn every period until cancel is called or the engine
// stops scheduling it. fn observes the engine clock via Engine.Now.
type Ticker struct {
	e         *Engine
	period    Time
	fn        func()
	tickCall  Call
	cancelled bool
}

// Cancel stops future ticks. The in-flight tick, if any, still completes.
func (t *Ticker) Cancel() { t.cancelled = true }

// tick is the re-arming handler; bound once in Every so each period
// schedules an existing Call value and therefore does not allocate.
func (t *Ticker) tick(any, int64) {
	if t.cancelled {
		return
	}
	t.fn()
	if !t.cancelled {
		t.e.ScheduleCall(t.period, t.tickCall, nil, 0)
	}
}

// Every schedules fn to run every period, starting one period from now.
// It returns a Ticker whose Cancel method stops the repetition.
func (e *Engine) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %d", period))
	}
	t := &Ticker{e: e, period: period, fn: fn}
	t.tickCall = t.tick
	e.ScheduleCall(period, t.tickCall, nil, 0)
	return t
}

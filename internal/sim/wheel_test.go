package sim

import (
	"math/rand"
	"testing"
)

// heapEngine is a minimal event loop built directly on the retained 4-ary
// eventHeap — the engine's entire queue before the timing wheel. It is the
// oracle the wheel is replayed against: identical (at, seq) semantics with
// none of the wheel's level/cascade/overflow machinery.
type heapEngine struct {
	h       eventHeap
	now     Time
	seq     uint64
	stopped bool
}

func (r *heapEngine) Schedule(delay Time, fn func()) {
	r.seq++
	r.h.push(event{at: r.now + delay, seq: r.seq, call: callFunc, arg: fn})
}

func (r *heapEngine) Now() Time    { return r.now }
func (r *heapEngine) Pending() int { return r.h.len() }
func (r *heapEngine) Stop()        { r.stopped = true }

func (r *heapEngine) RunUntil(deadline Time) {
	r.stopped = false
	for !r.stopped && r.h.len() > 0 {
		if r.h.peek().at > deadline {
			r.now = deadline
			return
		}
		ev := r.h.pop()
		r.now = ev.at
		ev.call(ev.arg, ev.n)
	}
	if r.now < deadline && !r.stopped {
		r.now = deadline
	}
}

func (r *heapEngine) Run() {
	r.stopped = false
	for !r.stopped && r.h.len() > 0 {
		ev := r.h.pop()
		r.now = ev.at
		ev.call(ev.arg, ev.n)
	}
}

// wheelDelay draws delays stratified across every wheel regime: same-tick
// ties, single-slot level-0 hops, each cascading level, the lap-collision
// promotion band just under a window boundary, and far-future deltas beyond
// the horizon that must detour through the overflow heap.
func wheelDelay(rng *rand.Rand) Time {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1, 2, 3:
		return Time(rng.Intn(l0Slots))
	case 4, 5:
		return Time(rng.Intn(1 << levelShift(2)))
	case 6:
		return Time(rng.Intn(1 << levelShift(3)))
	case 7:
		return Time(rng.Int63n(1 << levelShift(upperLevels)))
	case 8:
		// Hug a coverage boundary: these are the deltas that wrap onto
		// the cursor's own slot and exercise the promotion rule.
		lvl := 1 + rng.Intn(upperLevels)
		span := Time(1) << levelShift(lvl)
		window := span << slotBits
		return window - Time(rng.Int63n(int64(2*span)))
	case 9:
		return wheelHorizon - Time(rng.Int63n(1<<levelShift(3)))
	default:
		return wheelHorizon + Time(rng.Int63n(int64(wheelHorizon)))
	}
}

// buildWheelWorkload mirrors buildWorkload but with wheelDelay's
// multi-magnitude draws; the rng is consulted in event-execution order, so
// two engines produce identical traces iff they fire events in the
// identical order.
func buildWheelWorkload(schedule func(Time, func()), now func() Time, seed int64, budget int) *[]firing {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]firing, 0, budget)
	created := 0
	var spawn func()
	spawn = func() {
		if created >= budget {
			return
		}
		id := created
		created++
		delay := wheelDelay(rng)
		schedule(delay, func() {
			trace = append(trace, firing{id, now()})
			spawn()
			spawn()
		})
	}
	for i := 0; i < 16; i++ {
		spawn()
	}
	return &trace
}

// TestWheelAgainstHeapOracle replays a randomized 100k-event schedule
// spanning every wheel level plus the overflow heap on the timing-wheel
// engine and on the retained 4-ary heap, and demands the firing traces
// match event for event. The run is chopped into RunUntil segments (with a
// mid-run Stop/resume) so deadline clamping and cursor catch-up after idle
// gaps are part of the replay, then drained with Run.
func TestWheelAgainstHeapOracle(t *testing.T) {
	const budget = 100_000
	for _, seed := range []int64{1, 7, 42, 1337} {
		ref := &heapEngine{}
		want := buildWheelWorkload(ref.Schedule, func() Time { return ref.now }, seed, budget)

		e := NewEngine()
		var nth int
		trampoline := Call(func(arg any, _ int64) { arg.(func())() })
		schedule := func(delay Time, fn func()) {
			nth++
			if nth%2 == 0 {
				e.ScheduleCall(delay, trampoline, fn, 0)
			} else {
				e.Schedule(delay, fn)
			}
		}
		got := buildWheelWorkload(schedule, e.Now, seed, budget)

		for _, deadline := range []Time{1 << levelShift(2), 1 << levelShift(4), wheelHorizon, 2 * wheelHorizon} {
			ref.RunUntil(deadline)
			e.RunUntil(deadline)
			if e.Now() != ref.now {
				t.Fatalf("seed %d: clocks diverge after RunUntil(%d): wheel %d, heap %d", seed, deadline, e.Now(), ref.now)
			}
			if e.Pending() != ref.h.len() {
				t.Fatalf("seed %d: pending diverges after RunUntil(%d): wheel %d, heap %d", seed, deadline, e.Pending(), ref.h.len())
			}
		}
		ref.Run()
		e.Run()

		if len(*got) != len(*want) {
			t.Fatalf("seed %d: trace lengths %d/%d", seed, len(*got), len(*want))
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: traces diverge at event %d: wheel fired %+v, heap fired %+v",
					seed, i, (*got)[i], (*want)[i])
			}
		}
	}
}

// FuzzWheelSameInstantFIFO drives arbitrary event schedules — many events
// packed onto shared instants that the wheel reaches from different levels —
// and asserts the engine contract directly: events fire ordered by
// (timestamp, scheduling order). Ties split across levels are exactly the
// case where a careless cascade breaks FIFO (an upper-level slot re-filed
// after a lower one would jump the queue), so the program generator goes
// out of its way to reuse earlier instants, including the current one,
// which takes the same-instant FIFO behind whatever the wheel and the
// overflow heap already hold there. Some ops call Stop, so a run can end in
// the middle of an instant; the run is driven by RunUntil deadlines drawn
// from the scheduled instants, with a Schedule(0, …) between calls.
func FuzzWheelSameInstantFIFO(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 7, 9, 40, 0, 0, 13, 200, 33, 33, 33, 33})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 255, 255, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 6, 64, 6, 64, 6, 64, 12, 1, 12, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		e := NewEngine()
		type firedEv struct {
			at  Time
			idx int
		}
		var (
			scheduled int
			fired     []firedEv
			instants  []Time
			pc        int
		)
		nextByte := func() (byte, bool) {
			if pc >= len(prog) {
				return 0, false
			}
			b := prog[pc]
			pc++
			return b, true
		}
		schedule := func(at Time) {
			idx := scheduled
			scheduled++
			e.At(at, func() {
				fired = append(fired, firedEv{e.Now(), idx})
			})
			instants = append(instants, at)
		}
		var step func()
		step = func() {
			// A few ops per driver firing, so scheduling happens at many
			// different cursor positions (including mid-cascade windows).
			for k := 0; k < 4; k++ {
				a, ok := nextByte()
				if !ok {
					return
				}
				b, _ := nextByte()
				// Delays span every regime: level 0, each upper level,
				// and past the horizon into the overflow heap.
				at := e.Now() + Time(b)<<(uint(a%8)*7)
				if a%3 == 0 && len(instants) > 0 {
					// Revisit an earlier instant to manufacture a tie
					// (only if it is still schedulable).
					if cand := instants[int(b)%len(instants)]; cand >= e.Now() {
						at = cand
					}
				}
				schedule(at)
				if a%16 == 5 {
					e.Stop()
				}
			}
			if pc < len(prog) {
				c := Time(prog[pc])
				e.At(e.Now()+c*c+1, step)
			}
		}
		e.At(0, step)
		for round := 0; e.Pending() > 0 && round < 64; round++ {
			deadline := e.Now()
			if len(instants) > 0 {
				deadline = max(deadline, instants[round*7%len(instants)])
			}
			e.RunUntil(deadline)
			if e.Now() > deadline {
				t.Fatalf("RunUntil(%d) left the clock at %d", deadline, e.Now())
			}
			idx := scheduled
			scheduled++
			e.Schedule(0, func() { fired = append(fired, firedEv{e.Now(), idx}) })
			instants = append(instants, e.Now())
		}
		for e.Pending() > 0 {
			e.Run()
		}

		if len(fired) != scheduled {
			t.Fatalf("fired %d of %d scheduled events", len(fired), scheduled)
		}
		for i := range fired {
			if i == 0 {
				continue
			}
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at || (cur.at == prev.at && cur.idx < prev.idx) {
				t.Fatalf("ordering violated at firing %d: (at=%d idx=%d) after (at=%d idx=%d)",
					i, cur.at, cur.idx, prev.at, prev.idx)
			}
		}
	})
}

// Regression: RunUntil resolves the head before parking the clock at its
// deadline, which cascades the level-0 window up to the earliest pending
// event — possibly far past the parked clock. A later schedule can then
// target an instant at or after the clock but BELOW the advanced window's
// base; filing it into a level-0 slot would decode one 4096 ns lap late.
// place must route such instants to the overflow heap, where the (at, seq)
// merge is exact.
func TestScheduleBelowWindowBase(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func(any, int64) { fired = append(fired, e.Now()) }

	// A lone far event: after the park below, the wheel's window covers its
	// 4096-aligned neighborhood, thousands of ns past the clock.
	e.AtCall(50_000, rec, nil, 0)
	e.RunUntil(100) // parks now=100 without firing anything
	if len(fired) != 0 || e.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired %v, now %v", fired, e.Now())
	}

	// Schedule at 200: legal (>= now), yet far below the advanced window base.
	e.AtCall(200, rec, nil, 0)
	e.RunUntil(10_000)
	if len(fired) != 1 || fired[0] != 200 {
		t.Fatalf("fired = %v, want [200]", fired)
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 50_000 {
		t.Fatalf("fired = %v, want [200 50000]", fired)
	}

	// Same-instant schedules below the base must still fire in schedule
	// order, ahead of the wheel resident that set the window.
	e2 := NewEngine()
	var order []int64
	rec2 := func(_ any, n int64) { order = append(order, n) }
	e2.AtCall(90_000, rec2, nil, 9)
	e2.RunUntil(50)
	e2.AtCall(300, rec2, nil, 1)
	e2.AtCall(300, rec2, nil, 2)
	e2.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 9 {
		t.Fatalf("order = %v, want [1 2 9]", order)
	}
}

// replayEngine is the surface the same-instant replay drives: the engine
// under test and the heapEngine oracle both provide it.
type replayEngine interface {
	Schedule(Time, func())
	Now() Time
	Pending() int
	Stop()
	RunUntil(Time)
	Run()
}

// sameInstantReplay drives a randomized schedule built to pile events onto
// shared instants from every distance at once: delay-0 children scheduled
// from inside handlers, events aimed at upcoming "hub" instants from level
// 0, from the upper levels and from beyond the horizon (the overflow heap),
// and wheelDelay's spread. Handlers call Stop now and then, so a run stops
// in the middle of an instant. The run is chopped into RunUntil segments
// whose deadlines land on hub instants, with Schedule(0, …) between
// segments and, after a Stop, one RunUntil that parks the clock below the
// stopped instant. The rng is consulted in execution order, so two engines
// produce identical traces iff they fire events in the identical order.
// Every segment boundary records the clock and the pending count.
func sameInstantReplay(e replayEngine, seed int64, budget int) []firing {
	rng := rand.New(rand.NewSource(seed))
	var trace []firing
	created := 0
	var spawn func(delay Time)
	child := func() Time {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			// Aim at the next hub of a random coarseness; hubs at
			// 4096-ns multiples sit in level 0 or level 1, the coarser
			// ones arrive from the upper levels and the overflow heap.
			h := []Time{l0Slots, 1 << levelShift(3), wheelHorizon}[rng.Intn(3)]
			return (e.Now()/h+1+Time(rng.Intn(2)))*h - e.Now()
		default:
			return wheelDelay(rng)
		}
	}
	spawn = func(delay Time) {
		if created >= budget {
			return
		}
		id := created
		created++
		e.Schedule(delay, func() {
			trace = append(trace, firing{id, e.Now()})
			if rng.Intn(64) == 0 {
				e.Stop()
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				spawn(child())
			}
		})
	}
	for i := 0; i < 16; i++ {
		spawn(child())
	}
	mark := func() {
		trace = append(trace, firing{-1 - e.Pending(), e.Now()})
	}
	hubs := []Time{0, l0Slots, 3 * l0Slots, 1 << levelShift(3), 1 << levelShift(4), wheelHorizon, 3 * wheelHorizon}
	for _, deadline := range hubs {
		for {
			e.RunUntil(deadline)
			mark()
			spawn(0)
			if e.Now() == deadline {
				break
			}
			if e.Now() > 0 {
				// Stopped short of the deadline: park below the
				// stopped instant before resuming.
				e.RunUntil(e.Now() - 1)
				mark()
			}
		}
	}
	for e.Pending() > 0 {
		e.Run()
		mark()
	}
	return trace
}

// TestSameInstantAgainstHeapOracle replays sameInstantReplay on the engine,
// whose delay-0 events take the same-instant FIFO, and on the heap oracle,
// which files every event by (at, seq), and demands identical traces.
func TestSameInstantAgainstHeapOracle(t *testing.T) {
	const budget = 60_000
	for _, seed := range []int64{1, 7, 42, 1337} {
		want := sameInstantReplay(&heapEngine{}, seed, budget)
		e := NewEngine()
		got := sameInstantReplay(e, seed, budget)
		if e.WheelStats().SameInstant == 0 || e.WheelStats().Overflow == 0 {
			t.Fatalf("seed %d: workload missed a regime: stats %+v", seed, e.WheelStats())
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths %d/%d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at entry %d: engine %+v, heap %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// Regression: resolving the head while the clock trails the wheel cursor
// (here RunUntil parks the clock at a deadline after cascading toward a
// far event) advances the cursor past instants a later schedule can still
// target. Such a schedule is filed below the cursor (level 0 or the
// overflow heap); popping it must not move the cursor back, or events
// filed in upper levels relative to the advanced cursor decode one lap
// early and jump ahead of same-instant events filed before them.
func TestCursorNeverMovesBack(t *testing.T) {
	e := NewEngine()
	var order []int64
	rec := func(_ any, n int64) { order = append(order, n) }
	x := Time(1) << 41                   // a level-5 slot start
	e.AtCall(x, rec, nil, 1)             // filed in level 5 from time 0
	e.AtCall(x-Time(1)<<30, rec, nil, 0) // pulls the cursor to just below x
	e.RunUntil(1000)                     // cascades toward it, parks at 1000
	e.AtCall(x, rec, nil, 2)             // filed in level 4 against the advanced cursor
	e.AtCall(1010, rec, nil, -1)         // below the cursor
	e.RunUntil(1020)
	e.Run()
	want := []int64{-1, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

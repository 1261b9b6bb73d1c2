package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestEventSize pins the event cell at 48 bytes: (at, seq), the handler,
// and its two argument words. A closure field would make it 56.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 48", got)
	}
}

// TestMixedAtAndAtCallSameInstant interleaves closures (At) and pre-bound
// handlers (AtCall) at one instant and checks they fire in schedule order.
// The first half is filed at a delta of exactly the wheel horizon, so it
// sits in the overflow heap; the second half is filed later, when the same
// instant is inside the horizon (and clear of the lap-collision slot), so
// it sits in the wheel. The two structures must merge by seq.
func TestMixedAtAndAtCallSameInstant(t *testing.T) {
	e := NewEngine()
	target := wheelHorizon
	var got []int64
	record := Call(func(_ any, n int64) { got = append(got, n) })
	id := int64(0)
	file := func(k int) {
		for i := 0; i < k; i++ {
			n := id
			if n%2 == 0 {
				e.At(target, func() { got = append(got, n) })
			} else {
				e.AtCall(target, record, nil, n)
			}
			id++
		}
	}
	file(16)
	if e.Pending() != 16 || e.WheelStats().Overflow != 16 {
		t.Fatalf("first half: pending %d, overflowed %d; want 16 in the overflow heap",
			e.Pending(), e.WheelStats().Overflow)
	}
	e.At(Time(2)<<levelShift(upperLevels), func() { file(16) })
	e.Run()
	if e.WheelStats().Overflow != 16 {
		t.Fatalf("second half took the overflow heap (overflowed %d)", e.WheelStats().Overflow)
	}
	if len(got) != 32 {
		t.Fatalf("fired %d events, want 32", len(got))
	}
	for i, n := range got {
		if n != int64(i) {
			t.Fatalf("fire order %v, want schedule order", got)
		}
	}
	if e.Now() != target {
		t.Fatalf("Now = %d, want %d", e.Now(), target)
	}
}

// TestScheduleStoredFuncNoAlloc pins the closure route at zero allocations:
// a func value boxed as the event's argument is pointer-shaped.
func TestScheduleStoredFuncNoAlloc(t *testing.T) {
	e := NewEngine()
	hits := 0
	fn := func() { hits++ }
	cycle := func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Time(i%17), fn)
		}
		e.Run()
	}
	cycle() // size the slab
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("Schedule of a stored func allocates %v per cycle, want 0", avg)
	}
	// One sizing cycle, AllocsPerRun's warm-up and its 100 runs.
	if want := 256 * 102; hits != want {
		t.Fatalf("hits = %d, want %d", hits, want)
	}
}

// BenchmarkEngineDeep measures one event's cost at the pending depth of a
// 1024-server fleet: about 12.8k events filed, each fired event re-filing
// one at a delay uniform over 0–8 µs. The slab then spans far more than the
// cache, as it does in a fleet run.
func BenchmarkEngineDeep(b *testing.B) {
	const depth = 12800
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 1<<16)
	for i := range delays {
		delays[i] = Time(rng.Intn(8001))
	}
	e := NewEngine()
	k, left := 0, 0
	var hop Call
	hop = func(any, int64) {
		if left == 0 {
			e.Stop()
			return
		}
		left--
		e.ScheduleCall(delays[k&(len(delays)-1)], hop, nil, 0)
		k++
	}
	for i := 0; i < depth; i++ {
		e.ScheduleCall(delays[k&(len(delays)-1)], hop, nil, 0)
		k++
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	e.Run()
}

// TestSameInstantNoAlloc pins steady-state delay-0 scheduling at zero
// allocations: the same-instant FIFO's backing array is retained. Each
// wheel event fans out into a chain of delay-0 children, as a packet
// handler scheduling its next hop for the current instant does.
func TestSameInstantNoAlloc(t *testing.T) {
	e := NewEngine()
	hits := 0
	var chain Call
	chain = func(_ any, n int64) {
		hits++
		if n > 0 {
			e.ScheduleCall(0, chain, nil, n-1)
			e.ScheduleCall(0, chain, nil, n-1)
		}
	}
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.ScheduleCall(Time(1+i%5), chain, nil, 3)
		}
		e.Run()
	}
	cycle() // size the slab and the FIFO
	before := e.WheelStats()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("delay-0 scheduling allocates %v per cycle, want 0", avg)
	}
	// Per cycle: 64 roots, each with 2+4+8 delay-0 descendants.
	after := e.WheelStats()
	if got, want := after.SameInstant-before.SameInstant, uint64(101*64*14); got != want {
		t.Fatalf("same-instant firings = %d, want %d", got, want)
	}
	if got, want := after.Events-before.Events, uint64(101*64*15); got != want {
		t.Fatalf("events = %d, want %d", got, want)
	}
}

// TestPendingCountsSameInstant checks that Pending includes the
// same-instant FIFO, including entries left behind by a Stop mid-instant,
// and that RunUntil resumes them in schedule order behind the wheel's own
// events at that instant.
func TestPendingCountsSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int64
	rec := Call(func(_ any, n int64) { order = append(order, n) })
	e.AtCall(10, func(any, int64) {
		order = append(order, 0)
		e.ScheduleCall(0, rec, nil, 2)
		e.ScheduleCall(0, rec, nil, 3)
		e.Stop()
	}, nil, 0)
	e.AtCall(10, rec, nil, 1) // filed before the clock reached 10
	e.AtCall(20, rec, nil, 4)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.RunUntil(100)
	if e.Now() != 10 || e.Pending() != 4 {
		t.Fatalf("after Stop: Now %d, Pending %d; want 10, 4", e.Now(), e.Pending())
	}
	e.ScheduleCall(0, rec, nil, 5) // between RunUntil calls
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.RunUntil(100)
	if e.Pending() != 0 || e.Now() != 100 {
		t.Fatalf("after resume: Now %d, Pending %d; want 100, 0", e.Now(), e.Pending())
	}
	want := []int64{0, 1, 2, 3, 5, 4}
	for i := range want {
		if len(order) != len(want) || order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestSameInstantDropsReferences checks that fired FIFO entries release
// their handler and argument, so the retained backing array pins no
// packets or closures for the garbage collector.
func TestSameInstantDropsReferences(t *testing.T) {
	e := NewEngine()
	payload := new([64]byte)
	for i := 0; i < 8; i++ {
		e.ScheduleCall(0, func(any, int64) {}, payload, int64(i))
	}
	e.Run()
	for i, se := range e.same[:cap(e.same)] {
		if se.call != nil || se.arg != nil {
			t.Fatalf("FIFO cell %d still holds call=%v arg=%v after firing", i, se.call != nil, se.arg)
		}
	}
}

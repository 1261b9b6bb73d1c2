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

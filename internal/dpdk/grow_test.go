package dpdk

import (
	"math/rand"
	"testing"

	"halsim/internal/packet"
)

// eagerRing is the reference for the growable RxQueue: the ring with its
// whole descriptor array allocated up front, tail-dropping when full, with
// the same optional corruption fault drawn before the capacity check.
type eagerRing struct {
	buf         []*packet.Packet
	head, count int
	faultProb   float64
	faultRng    *rand.Rand

	enqueued, drops, faultDrops uint64
}

func (r *eagerRing) enqueue(p *packet.Packet) bool {
	if r.faultRng != nil && r.faultRng.Float64() < r.faultProb {
		r.faultDrops++
		return false
	}
	if r.count == len(r.buf) {
		r.drops++
		return false
	}
	r.buf[(r.head+r.count)%len(r.buf)] = p
	r.count++
	r.enqueued++
	return true
}

func (r *eagerRing) pop() *packet.Packet {
	if r.count == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return p
}

// TestGrowableRingMatchesEager drives randomized Enqueue, Burst,
// BurstInto, Pop and SetRxFault sequences against a growable ring and the
// eager reference, and requires the same accept/drop decisions, FIFO
// order and counters after every step, with the buffer never larger than
// the descriptor count. It also requires some growth to happen while the
// ring is wrapped (head past zero), the case re-linearisation handles.
func TestGrowableRingMatchesEager(t *testing.T) {
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = pkt(uint64(i))
	}
	wrappedGrowths := 0
	for _, size := range []int{1, 2, 3, 15, 16, 17, 40, 100, DefaultRingSize} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(size)))
			port := NewPort(1, size)
			q := port.Queue(0)
			ref := &eagerRing{buf: make([]*packet.Packet, size)}
			var scratch []*packet.Packet
			// Bias toward arrivals so rings fill, wrap and overflow; a
			// drain phase every so often exercises the empty paths.
			enqWeight := 0.55 + 0.4*rng.Float64()
			for step := 0; step < 4000; step++ {
				if step%1000 == 999 {
					enqWeight = 0.1
				} else if step%1000 == 200 {
					enqWeight = 0.55 + 0.4*rng.Float64()
				}
				switch x := rng.Float64(); {
				case x < enqWeight:
					p := pkts[step%len(pkts)]
					if q.count == len(q.buf) && q.head != 0 && len(q.buf) < size {
						wrappedGrowths++
					}
					got, want := q.Enqueue(p), ref.enqueue(p)
					if got != want {
						t.Fatalf("size %d seed %d step %d: Enqueue = %v, reference %v", size, seed, step, got, want)
					}
				case x < enqWeight+0.01:
					// Toggle a corruption fault; both sides draw from
					// identically seeded streams.
					fs := rng.Int63()
					prob := 0.0
					if ref.faultRng == nil {
						prob = 0.3
					}
					port.SetRxFault(prob, rand.New(rand.NewSource(fs)))
					ref.faultProb, ref.faultRng = prob, nil
					if prob > 0 {
						ref.faultRng = rand.New(rand.NewSource(fs))
					}
				default:
					max := 1 + rng.Intn(2*DefaultBurst)
					var got []*packet.Packet
					switch rng.Intn(3) {
					case 0:
						got = q.Burst(max)
					case 1:
						scratch = q.BurstInto(scratch[:0], max)
						got = scratch
					default:
						if p := q.Pop(); p != nil {
							got = []*packet.Packet{p}
						}
						max = 1
					}
					var want []*packet.Packet
					for len(want) < max && ref.count > 0 {
						want = append(want, ref.pop())
					}
					if len(got) != len(want) {
						t.Fatalf("size %d seed %d step %d: dequeued %d packets, reference %d", size, seed, step, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("size %d seed %d step %d: dequeued ID %d at %d, reference %d", size, seed, step, got[i].ID, i, want[i].ID)
						}
					}
				}
				if q.Count() != ref.count || q.Enqueued != ref.enqueued || q.Drops != ref.drops || q.FaultDrops != ref.faultDrops {
					t.Fatalf("size %d seed %d step %d: count/enq/drops/faults %d/%d/%d/%d, reference %d/%d/%d/%d",
						size, seed, step, q.Count(), q.Enqueued, q.Drops, q.FaultDrops,
						ref.count, ref.enqueued, ref.drops, ref.faultDrops)
				}
				if q.Cap() != size {
					t.Fatalf("size %d: Cap() = %d", size, q.Cap())
				}
				if len(q.buf) > size {
					t.Fatalf("size %d: buffer grew to %d", size, len(q.buf))
				}
			}
		}
	}
	if wrappedGrowths == 0 {
		t.Fatal("no growth happened while the ring was wrapped")
	}
}

// TestRingStartsEmptyAndGrowsByDoubling pins the allocation schedule: no
// buffer until the first arrival, then minRingBuf, doubling on each fill,
// and the descriptor count as the ceiling.
func TestRingStartsEmptyAndGrowsByDoubling(t *testing.T) {
	q := NewRxQueue(100)
	if len(q.buf) != 0 {
		t.Fatalf("new ring holds a %d-slot buffer", len(q.buf))
	}
	var sizes []int
	for i := 0; i < 120; i++ {
		q.Enqueue(pkt(uint64(i)))
		if n := len(sizes); n == 0 || sizes[n-1] != len(q.buf) {
			sizes = append(sizes, len(q.buf))
		}
	}
	want := []int{minRingBuf, 32, 64, 100}
	if len(sizes) != len(want) {
		t.Fatalf("buffer sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("buffer sizes %v, want %v", sizes, want)
		}
	}
	if q.Count() != 100 || q.Drops != 20 {
		t.Fatalf("count/drops = %d/%d, want 100/20", q.Count(), q.Drops)
	}
	for i := 0; i < 100; i++ {
		if p := q.Pop(); p == nil || p.ID != uint64(i) {
			t.Fatalf("pop %d = %v", i, p)
		}
	}
}

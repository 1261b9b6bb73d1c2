package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// refDirectory is the map-backed directory the dense table replaced, kept
// as the oracle: same MESI decisions, same statistics, same LRU capacity
// model, one heap-allocated entry per touched line and deleted on last
// eviction.
type refDirectory struct {
	nodes  int
	lines  map[uint64]*refLine
	stats  []Stats
	caches []*nodeCache
}

type refLine struct {
	owner   int8 // -1 when no node owns the line
	dirty   bool
	sharers uint16
}

func newRefDirectory(n, linesPerNode int) *refDirectory {
	d := &refDirectory{nodes: n, lines: make(map[uint64]*refLine), stats: make([]Stats, n)}
	if linesPerNode > 0 {
		d.caches = make([]*nodeCache, n)
		for i := range d.caches {
			d.caches[i] = newNodeCache(linesPerNode)
		}
	}
	return d
}

func (d *refDirectory) line(addr uint64) *refLine {
	l, ok := d.lines[addr]
	if !ok {
		l = &refLine{owner: -1}
		d.lines[addr] = l
	}
	return l
}

func (d *refDirectory) read(node NodeID, addr uint64) Outcome {
	s := &d.stats[node]
	s.Accesses++
	l := d.line(addr)
	bit := uint16(1) << uint(node)
	switch {
	case l.owner == int8(node), l.sharers&bit != 0:
		s.LocalHits++
		d.noteHolding(node, addr)
		return LocalHit
	case l.owner >= 0:
		if l.dirty {
			s.Writebacks++
		}
		l.sharers |= uint16(1)<<uint(l.owner) | bit
		l.owner = -1
		l.dirty = false
		s.RemoteFetches++
		d.noteHolding(node, addr)
		return RemoteFetch
	case l.sharers != 0:
		l.sharers |= bit
		s.RemoteFetches++
		d.noteHolding(node, addr)
		return RemoteFetch
	default:
		l.owner = int8(node)
		l.dirty = false
		s.MemoryFetches++
		d.noteHolding(node, addr)
		return MemoryFetch
	}
}

func (d *refDirectory) write(node NodeID, addr uint64) Outcome {
	s := &d.stats[node]
	s.Accesses++
	l := d.line(addr)
	bit := uint16(1) << uint(node)
	switch {
	case l.owner == int8(node):
		l.dirty = true
		s.LocalHits++
		d.noteHolding(node, addr)
		return LocalHit
	case l.owner >= 0:
		if l.dirty {
			s.Writebacks++
		}
		s.Invalidations++
		d.noteLost(NodeID(l.owner), addr)
		l.owner = int8(node)
		l.dirty = true
		l.sharers = 0
		d.noteHolding(node, addr)
		return RemoteInvalidate
	case l.sharers != 0:
		others := l.sharers &^ bit
		l.owner = int8(node)
		l.dirty = true
		l.sharers = 0
		d.noteHolding(node, addr)
		if others != 0 {
			for n := 0; n < d.nodes; n++ {
				if others&(1<<uint(n)) != 0 {
					d.noteLost(NodeID(n), addr)
				}
			}
			s.Invalidations += uint64(bits.OnesCount16(others))
			return RemoteInvalidate
		}
		s.LocalHits++
		return LocalHit
	default:
		l.owner = int8(node)
		l.dirty = true
		s.MemoryFetches++
		d.noteHolding(node, addr)
		return MemoryFetch
	}
}

func (d *refDirectory) noteHolding(node NodeID, addr uint64) {
	if d.caches == nil {
		return
	}
	if victim, evict := d.caches[node].touch(addr); evict {
		d.evictLine(node, victim)
	}
}

func (d *refDirectory) noteLost(node NodeID, addr uint64) {
	if d.caches != nil {
		d.caches[node].drop(addr)
	}
}

func (d *refDirectory) evictLine(node NodeID, addr uint64) {
	l, ok := d.lines[addr]
	if !ok {
		return
	}
	s := &d.stats[node]
	s.Evictions++
	if l.owner == int8(node) {
		if l.dirty {
			s.Writebacks++
		}
		l.owner = -1
		l.dirty = false
	}
	l.sharers &^= uint16(1) << uint(node)
	if l.owner < 0 && l.sharers == 0 {
		delete(d.lines, addr)
	}
}

func (d *refDirectory) resident(node NodeID, addr uint64) bool {
	if d.caches != nil {
		return d.caches[node].resident(addr)
	}
	l, ok := d.lines[addr]
	return ok && (l.owner == int8(node) || l.sharers&(1<<uint(node)) != 0)
}

func (d *refDirectory) residentLines(node NodeID) int {
	if d.caches != nil {
		return d.caches[node].len()
	}
	n := 0
	for _, l := range d.lines {
		if l.owner == int8(node) || l.sharers&(1<<uint(node)) != 0 {
			n++
		}
	}
	return n
}

// equivAddrs is a pool of line IDs that straddles every growth boundary of
// the dense table up to 1<<18 (each power of two and its neighbours), plus
// uniform IDs below 1<<18 and sparse IDs near 1e6.
func equivAddrs(rng *rand.Rand) []uint64 {
	var addrs []uint64
	for p := uint64(1); p <= 1<<18; p <<= 1 {
		addrs = append(addrs, p-1, p, p+1)
	}
	for i := 0; i < 40; i++ {
		addrs = append(addrs, uint64(rng.Intn(1<<18)))
	}
	for i := 0; i < 8; i++ {
		addrs = append(addrs, 1_000_000+uint64(rng.Intn(64)))
	}
	return addrs
}

// checkEquivalent compares every observable of d against the oracle.
func checkEquivalent(t *testing.T, ctx string, d *Directory, ref *refDirectory, addrs []uint64) {
	t.Helper()
	if msg := d.CheckInvariants(); msg != "" {
		t.Fatalf("%s: %s", ctx, msg)
	}
	if got, want := d.Lines(), len(ref.lines); got != want {
		t.Fatalf("%s: Lines() = %d, want %d", ctx, got, want)
	}
	for n := NodeID(0); int(n) < d.Nodes(); n++ {
		if got, want := d.Stats(n), ref.stats[n]; got != want {
			t.Fatalf("%s: node %d stats = %+v, want %+v", ctx, n, got, want)
		}
		if got, want := d.ResidentLines(n), ref.residentLines(n); got != want {
			t.Fatalf("%s: node %d ResidentLines = %d, want %d", ctx, n, got, want)
		}
		for _, a := range addrs {
			if got, want := d.Resident(n, a), ref.resident(n, a); got != want {
				t.Fatalf("%s: node %d Resident(%d) = %v, want %v", ctx, n, a, got, want)
			}
		}
	}
}

// TestDenseDirectoryMatchesMapReference drives the dense directory and the
// map-backed oracle with the same random Read/Write sequences, capped and
// uncapped, on 2–4 nodes, and requires identical outcomes and state.
func TestDenseDirectoryMatchesMapReference(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, nodes := range []int{2, 3, 4} {
		for _, capLines := range []int{0, 1, 8, 64} {
			for seed := int64(1); seed <= seeds; seed++ {
				ctx := fmt.Sprintf("nodes=%d cap=%d seed=%d", nodes, capLines, seed)
				rng := rand.New(rand.NewSource(seed))
				addrs := equivAddrs(rng)
				d := NewDirectoryCapped(nodes, capLines)
				ref := newRefDirectory(nodes, capLines)
				for i := 0; i < 4000; i++ {
					node := NodeID(rng.Intn(nodes))
					// Mostly a small hot set, so lines are shared,
					// stolen and evicted; the rest roams the pool.
					a := addrs[rng.Intn(len(addrs))]
					if rng.Intn(4) != 0 {
						a = addrs[rng.Intn(12)]
					}
					var got, want Outcome
					if rng.Intn(2) == 0 {
						got, want = d.Read(node, a), ref.read(node, a)
					} else {
						got, want = d.Write(node, a), ref.write(node, a)
					}
					if got != want {
						t.Fatalf("%s: op %d node %d line %d: %v, want %v", ctx, i, node, a, got, want)
					}
					if i%1000 == 999 {
						checkEquivalent(t, fmt.Sprintf("%s op %d", ctx, i), d, ref, addrs)
					}
				}
				checkEquivalent(t, ctx, d, ref, addrs)
			}
		}
	}
}

// TestLineBound: a line at or above MaxLines panics like a bad node does,
// and leaves the statistics untouched.
func TestLineBound(t *testing.T) {
	d := NewDirectory(2)
	d.Write(0, MaxLines-1)
	for _, f := range []func(){
		func() { d.Read(0, MaxLines) },
		func() { d.Write(1, MaxLines) },
		func() { d.Read(1, 1<<40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if got := d.TotalStats().Accesses; got != 1 {
		t.Fatalf("accesses = %d after rejected lines, want 1", got)
	}
	if d.Lines() != 1 || !d.Resident(0, MaxLines-1) {
		t.Fatal("the highest legal line must be tracked")
	}
}

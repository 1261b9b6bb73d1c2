// Package coherence implements a directory-based MESI cache-coherence
// simulator over the shared state region of stateful network functions.
//
// The paper's CXL-SNIC (§V-C) is emulated with a dual-socket NUMA server:
// the CXL.cache protocol is UPI-derived, so coherent sharing between the
// SNIC processor and the host processor behaves like sharing between two
// sockets. This package models exactly that: two (or more) caching agents,
// a directory tracking each state cache line, and the four access outcomes
// that differ in cost — local hit, memory fetch, remote cache-to-cache
// transfer, and write-induced invalidation.
package coherence

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a caching agent. In the HAL setup node 0 is the host
// processor and node 1 the (CXL-)SNIC processor.
type NodeID int

// MaxNodes bounds the sharer bitmap.
const MaxNodes = 16

// MaxLines bounds line IDs: Read and Write panic on a line at or above it.
// The directory is a dense table indexed by line ID that grows by doubling
// to the highest line touched, so IDs must be small and reasonably
// compact; the stateful functions hash their keys into at most 1<<18
// lines.
const MaxLines = 1 << 24

// Outcome classifies one access by its coherence cost.
type Outcome int

// Access outcomes, cheapest first.
const (
	// LocalHit: the line is already valid in the requesting node's cache
	// with sufficient permission.
	LocalHit Outcome = iota
	// MemoryFetch: no cache holds the line; it is filled from memory.
	MemoryFetch
	// RemoteFetch: another cache owns or shares the line; data crosses
	// the coherent interconnect (UPI/CXL).
	RemoteFetch
	// RemoteInvalidate: a write had to invalidate remote copies before
	// proceeding (possibly also fetching the data remotely).
	RemoteInvalidate
)

func (o Outcome) String() string {
	switch o {
	case LocalHit:
		return "local-hit"
	case MemoryFetch:
		return "memory-fetch"
	case RemoteFetch:
		return "remote-fetch"
	case RemoteInvalidate:
		return "remote-invalidate"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// lineState is the directory entry for one cache line. The zero value is
// an untracked line: no owner, no sharers.
type lineState struct {
	// owner is 1 + the node holding the line Exclusive/Modified, or 0.
	owner uint8
	// dirty marks Modified (vs Exclusive) ownership.
	dirty bool
	// sharers is a bitmap of nodes holding the line Shared.
	sharers uint16
}

// ownerTag encodes node as a lineState owner.
func ownerTag(node NodeID) uint8 { return uint8(node) + 1 }

// holds reports whether node caches the line in any valid state.
func (l *lineState) holds(node NodeID) bool {
	return l.owner == ownerTag(node) || l.sharers&(1<<uint(node)) != 0
}

// Stats aggregates per-node access outcomes.
type Stats struct {
	Accesses      uint64
	LocalHits     uint64
	MemoryFetches uint64
	RemoteFetches uint64
	Invalidations uint64
	Writebacks    uint64
	Evictions     uint64
}

// Directory is the home agent: it tracks every touched line and serializes
// coherence decisions. The zero value is unusable; call NewDirectory.
type Directory struct {
	nodes int
	// lines is indexed by line ID; it covers at least every line touched.
	lines []lineState
	stats []Stats
	// caches, when non-nil, bounds each node's resident set (LRU); see
	// capacity.go.
	caches []*nodeCache
}

// NewDirectory creates a directory for n caching agents.
func NewDirectory(n int) *Directory {
	if n < 1 || n > MaxNodes {
		panic(fmt.Sprintf("coherence: node count %d out of [1,%d]", n, MaxNodes))
	}
	return &Directory{nodes: n, stats: make([]Stats, n)}
}

// Nodes returns the agent count.
func (d *Directory) Nodes() int { return d.nodes }

// Stats returns the accumulated statistics for node.
func (d *Directory) Stats(node NodeID) Stats {
	return d.stats[node]
}

// TotalStats sums statistics across nodes.
func (d *Directory) TotalStats() Stats {
	var t Stats
	for _, s := range d.stats {
		t.Accesses += s.Accesses
		t.LocalHits += s.LocalHits
		t.MemoryFetches += s.MemoryFetches
		t.RemoteFetches += s.RemoteFetches
		t.Invalidations += s.Invalidations
		t.Writebacks += s.Writebacks
		t.Evictions += s.Evictions
	}
	return t
}

// line returns addr's entry, growing the table to cover it.
func (d *Directory) line(addr uint64) *lineState {
	if addr >= uint64(len(d.lines)) {
		d.grow(addr)
	}
	return &d.lines[addr]
}

// grow doubles the table until it covers addr; new entries are untracked.
func (d *Directory) grow(addr uint64) {
	if addr >= MaxLines {
		panic(fmt.Sprintf("coherence: line %d out of range [0,%d)", addr, MaxLines))
	}
	n := max(2*len(d.lines), 64)
	for uint64(n) <= addr {
		n *= 2
	}
	lines := make([]lineState, n)
	copy(lines, d.lines)
	d.lines = lines
}

// lookup returns addr's entry, or nil when addr lies past the table
// (an untracked line).
func (d *Directory) lookup(addr uint64) *lineState {
	if addr >= uint64(len(d.lines)) {
		return nil
	}
	return &d.lines[addr]
}

func (d *Directory) checkNode(node NodeID) {
	if int(node) < 0 || int(node) >= d.nodes {
		panic(fmt.Sprintf("coherence: node %d out of range [0,%d)", node, d.nodes))
	}
}

// Read performs a load by node on line addr and returns its outcome.
func (d *Directory) Read(node NodeID, addr uint64) Outcome {
	d.checkNode(node)
	l := d.line(addr)
	s := &d.stats[node]
	s.Accesses++
	bit := uint16(1) << uint(node)

	switch {
	case l.owner == ownerTag(node):
		s.LocalHits++
		d.noteHolding(node, addr)
		return LocalHit
	case l.sharers&bit != 0:
		s.LocalHits++
		d.noteHolding(node, addr)
		return LocalHit
	case l.owner != 0:
		// Remote owner: downgrade M/E→S, forward data. A dirty line is
		// written back as part of the downgrade.
		if l.dirty {
			s.Writebacks++
		}
		l.sharers |= uint16(1)<<uint(l.owner-1) | bit
		l.owner = 0
		l.dirty = false
		s.RemoteFetches++
		d.noteHolding(node, addr)
		return RemoteFetch
	case l.sharers != 0:
		// Shared elsewhere: data can come from a peer cache.
		l.sharers |= bit
		s.RemoteFetches++
		d.noteHolding(node, addr)
		return RemoteFetch
	default:
		// Cold: fill from memory with Exclusive ownership (the E in
		// MESI — silent upgrade on a later write).
		l.owner = ownerTag(node)
		l.dirty = false
		s.MemoryFetches++
		d.noteHolding(node, addr)
		return MemoryFetch
	}
}

// Write performs a store by node on line addr and returns its outcome.
func (d *Directory) Write(node NodeID, addr uint64) Outcome {
	d.checkNode(node)
	l := d.line(addr)
	s := &d.stats[node]
	s.Accesses++
	bit := uint16(1) << uint(node)

	switch {
	case l.owner == ownerTag(node):
		// E→M silent upgrade or M hit.
		l.dirty = true
		s.LocalHits++
		d.noteHolding(node, addr)
		return LocalHit
	case l.owner != 0:
		// Another node owns it: invalidate-and-fetch.
		if l.dirty {
			s.Writebacks++
		}
		s.Invalidations++
		d.noteLost(NodeID(l.owner-1), addr)
		l.owner = ownerTag(node)
		l.dirty = true
		l.sharers = 0
		d.noteHolding(node, addr)
		return RemoteInvalidate
	case l.sharers != 0:
		others := l.sharers &^ bit
		l.owner = ownerTag(node)
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
		// Only this node shared it: S→M upgrade still posts to the
		// directory but moves no data; treat as local-class.
		s.LocalHits++
		return LocalHit
	default:
		l.owner = ownerTag(node)
		l.dirty = true
		s.MemoryFetches++
		d.noteHolding(node, addr)
		return MemoryFetch
	}
}

// holders returns how many nodes hold addr in any valid state (testing aid
// and invariant source).
func (d *Directory) holders(addr uint64) int {
	l := d.lookup(addr)
	if l == nil {
		return 0
	}
	n := bits.OnesCount16(l.sharers)
	if l.owner != 0 {
		n++
	}
	return n
}

// CheckInvariants validates the directory's single-writer/multi-reader
// discipline for every line, returning a descriptive error-like string
// ("" when clean). Exercised by property tests.
func (d *Directory) CheckInvariants() string {
	var held [MaxNodes]int
	for addr := range d.lines {
		l := &d.lines[addr]
		if *l == (lineState{}) {
			continue
		}
		if l.owner != 0 && l.sharers != 0 {
			return fmt.Sprintf("line %#x: owner %d coexists with sharers %#x", addr, l.owner-1, l.sharers)
		}
		if int(l.owner) > d.nodes {
			return fmt.Sprintf("line %#x: owner %d out of range", addr, l.owner-1)
		}
		if l.sharers>>uint(d.nodes) != 0 {
			return fmt.Sprintf("line %#x: sharer bitmap %#x exceeds node count", addr, l.sharers)
		}
		if l.dirty && l.owner == 0 {
			return fmt.Sprintf("line %#x: dirty without owner", addr)
		}
		if d.caches != nil {
			for n := 0; n < d.nodes; n++ {
				holds := l.holds(NodeID(n))
				if holds != d.caches[n].resident(uint64(addr)) {
					return fmt.Sprintf("line %#x: node %d directory/cache residency disagree", addr, n)
				}
				if holds {
					held[n]++
				}
			}
		}
	}
	// Every cached line is one the directory tracks.
	for n := 0; d.caches != nil && n < d.nodes; n++ {
		if held[n] != d.caches[n].len() {
			return fmt.Sprintf("node %d: caches %d lines, directory tracks %d", n, d.caches[n].len(), held[n])
		}
	}
	return ""
}

// Lines returns how many distinct lines the directory tracks: lines some
// node holds.
func (d *Directory) Lines() int {
	n := 0
	for i := range d.lines {
		if d.lines[i] != (lineState{}) {
			n++
		}
	}
	return n
}

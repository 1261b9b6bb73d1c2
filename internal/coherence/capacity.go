package coherence

import "container/list"

// Capacity modeling: a real cache evicts. Without it, a directory treats a
// line touched hours ago as still resident, over-reporting cache-to-cache
// transfers and under-reporting memory fetches. NewDirectoryCapped bounds
// each node's resident set with LRU eviction; evicted dirty lines write
// back, and later accesses refill from memory.

// nodeCache tracks one agent's resident lines in LRU order.
type nodeCache struct {
	capacity int
	order    *list.List               // front = most recent
	elems    map[uint64]*list.Element // line -> element (value: line addr)
}

func newNodeCache(capacity int) *nodeCache {
	return &nodeCache{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[uint64]*list.Element),
	}
}

// touch marks addr most-recently-used, inserting it if absent, and returns
// the line to evict when over capacity (ok=false when nothing to evict).
func (c *nodeCache) touch(addr uint64) (victim uint64, evict bool) {
	if e, ok := c.elems[addr]; ok {
		c.order.MoveToFront(e)
	} else {
		c.elems[addr] = c.order.PushFront(addr)
	}
	if c.capacity > 0 && c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		v := back.Value.(uint64)
		delete(c.elems, v)
		return v, true
	}
	return 0, false
}

// drop removes addr without eviction accounting (invalidation, downgrade
// loss).
func (c *nodeCache) drop(addr uint64) {
	if e, ok := c.elems[addr]; ok {
		c.order.Remove(e)
		delete(c.elems, addr)
	}
}

// resident reports whether addr is cached.
func (c *nodeCache) resident(addr uint64) bool {
	_, ok := c.elems[addr]
	return ok
}

// len returns the resident line count.
func (c *nodeCache) len() int { return c.order.Len() }

// NewDirectoryCapped returns a directory whose agents each cache at most
// linesPerNode lines (0 = unbounded, equivalent to NewDirectory).
func NewDirectoryCapped(n, linesPerNode int) *Directory {
	d := NewDirectory(n)
	if linesPerNode > 0 {
		d.caches = make([]*nodeCache, n)
		for i := range d.caches {
			d.caches[i] = newNodeCache(linesPerNode)
		}
	}
	return d
}

// Capacity returns the per-node line capacity (0 = unbounded).
func (d *Directory) Capacity() int {
	if d.caches == nil {
		return 0
	}
	return d.caches[0].capacity
}

// Resident reports whether node currently caches addr (always derived from
// the directory when capacity modeling is off).
func (d *Directory) Resident(node NodeID, addr uint64) bool {
	d.checkNode(node)
	if d.caches != nil {
		return d.caches[node].resident(addr)
	}
	l := d.lookup(addr)
	return l != nil && l.holds(node)
}

// ResidentLines returns how many lines node caches (capacity mode only;
// otherwise counts directory holdings).
func (d *Directory) ResidentLines(node NodeID) int {
	d.checkNode(node)
	if d.caches != nil {
		return d.caches[node].len()
	}
	n := 0
	for i := range d.lines {
		if d.lines[i].holds(node) {
			n++
		}
	}
	return n
}

// noteHolding records that node now caches addr, evicting its LRU victim
// if over capacity.
func (d *Directory) noteHolding(node NodeID, addr uint64) {
	if d.caches == nil {
		return
	}
	victim, evict := d.caches[node].touch(addr)
	if !evict {
		return
	}
	d.evictLine(node, victim)
}

// noteLost records that node no longer caches addr.
func (d *Directory) noteLost(node NodeID, addr uint64) {
	if d.caches == nil {
		return
	}
	d.caches[node].drop(addr)
}

// evictLine removes node from addr's directory entry (capacity eviction).
// A line no node holds any more is left as the zero, untracked entry.
func (d *Directory) evictLine(node NodeID, addr uint64) {
	l := d.lookup(addr)
	if l == nil || *l == (lineState{}) {
		return
	}
	s := &d.stats[node]
	s.Evictions++
	if l.owner == ownerTag(node) {
		if l.dirty {
			s.Writebacks++
		}
		l.owner = 0
		l.dirty = false
	}
	l.sharers &^= 1 << uint(node)
}

// Package cache implements the set-associative cache arrays used for the
// simulated L1s, L2s and LLC slices. Lines carry MESI state, a dirty bit and
// the 16-bit OID (version) tag that NVOverlay adds to every cache tag in the
// hierarchy. Replacement is true LRU.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI coherence state.
type State uint8

// MESI states. Invalid lines are also recognised by Line.Valid == false.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("?%d", uint8(s))
	}
}

// Writable reports whether a line in this state may be stored to without a
// coherence transaction.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache slot. OID is the epoch in which the line's data was last
// written (the paper's 16-bit version tag; we hold it in a uint64 and let the
// epoch package narrow it when the wrap-around mode is exercised). Data is a
// compact stand-in for the line's 64-byte payload: workloads write opaque
// tokens into it, which lets recovery tests verify snapshot contents
// end-to-end without simulating full cache-line data. The words come first
// and the flags last so the struct packs into 40 bytes.
//
// Valid and Tag are mirrored in the cache's tag array: callers may rewrite
// a resident line in place (state, dirty bit, OID, data, even the whole
// struct) but must keep its Valid and Tag unchanged; only Insert,
// Invalidate and Flush change which address a slot holds.
type Line struct {
	Tag   uint64 // full line address (line-aligned)
	OID   uint64
	Data  uint64
	lru   uint64
	Valid bool
	State State
	Dirty bool
}

// Cache is one set-associative array. Probes scan the tag array, which
// holds Tag|1 for a valid slot and 0 for an invalid one (8 bytes per way
// instead of a 40-byte Line), and only touch lines[] on a hit or when a
// full set needs its LRU victim. Tag|1 is never 0, so a valid slot cannot
// read as empty. Two tags that differ only in bit 0 (possible only for
// unaligned addresses) share a tag word, so a match is confirmed against
// Line.Tag.
type Cache struct {
	name    string // New's name, or a group's prefix
	index   int    // member index within a group, -1 for New
	sets    int
	ways    int
	shift   uint   // log2(lineSize), plus log2(stride) when stride is a power of two
	div     uint64 // the stride of an interleaved slice when not a power of two (else 0)
	mask    uint64 // sets-1
	tags    []uint64
	lines   []Line // sets*ways, row-major by set
	tick    uint64
	scratch []Line // reused by CollectValid/Flush (hot-path: no per-call alloc)

	// Stats.
	Hits, Misses, Evictions uint64
}

// New builds a cache of the given total size. lineSize must be a power of
// two, and so must the set count size/(ways*lineSize) (rounded down; any
// remainder of size is unused): the set index is a shift and a mask.
func New(name string, size, ways, lineSize int) *Cache {
	c := layout(name, size, ways, lineSize, 1)
	c.index = -1
	c.tags = make([]uint64, c.sets*c.ways)
	c.lines = make([]Line, c.sets*c.ways)
	return &c
}

// NewGroup builds n identical caches named prefix.0 ... prefix.<n-1> (New's
// geometry rules apply). With stride > 1 the group is an address-interleaved
// array: lines are distributed over `stride` slices by low line bits, so
// each slice's set index skips those bits (real multi-slice LLCs do the
// same; without it, half the sets would alias with the slice selector and
// thrash). Private per-core or per-domain caches pass stride 1.
//
// The members' structs come from one allocation and their tag arrays from
// another, so the tag array adds no allocation per cache. Lines are
// allocated per cache: one block of every slice's lines made cell set-up
// slower, because a multi-megabyte block rarely fits the holes a previous
// cell left in the heap.
func NewGroup(prefix string, n, size, ways, lineSize, stride int) []*Cache {
	tmpl := layout(prefix, size, ways, lineSize, stride)
	slots := tmpl.sets * tmpl.ways
	caches := make([]Cache, n)
	tags := make([]uint64, n*slots)
	out := make([]*Cache, n)
	for i := range caches {
		c := &caches[i]
		*c = tmpl
		c.index = i
		c.tags = tags[i*slots : (i+1)*slots : (i+1)*slots]
		c.lines = make([]Line, slots)
		out[i] = c
	}
	return out
}

// layout validates a geometry and returns a cache without arrays.
func layout(name string, size, ways, lineSize, stride int) Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry size=%d ways=%d line=%d", name, size, ways, lineSize))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineSize))
	}
	sets := size / (ways * lineSize)
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	if stride < 1 {
		stride = 1
	}
	c := Cache{
		name:  name,
		sets:  sets,
		ways:  ways,
		shift: uint(bits.TrailingZeros(uint(lineSize))),
		mask:  uint64(sets - 1),
	}
	if stride&(stride-1) == 0 {
		c.shift += uint(bits.TrailingZeros(uint(stride)))
	} else {
		c.div = uint64(stride)
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string {
	if c.index < 0 {
		return c.name
	}
	return fmt.Sprintf("%s.%d", c.name, c.index)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the number of line slots.
func (c *Cache) Capacity() int { return c.sets * c.ways }

// setOf returns addr's set index: (addr / lineSize / stride) % sets,
// computed with shifts and a mask (and one division for a stride that is
// not a power of two).
func (c *Cache) setOf(addr uint64) int {
	x := addr >> c.shift
	if c.div != 0 {
		x /= c.div
	}
	return int(x & c.mask)
}

// find returns the slot index holding addr, or -1.
func (c *Cache) find(addr uint64) int {
	base := c.setOf(addr) * c.ways
	want := addr | 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == want && c.lines[base+i].Tag == addr {
			return base + i
		}
	}
	return -1
}

// Lookup returns the line holding addr, or nil on miss. A hit refreshes LRU
// and increments the hit counter; a miss increments the miss counter.
func (c *Cache) Lookup(addr uint64) *Line {
	if i := c.find(addr); i >= 0 {
		ln := &c.lines[i]
		c.tick++
		ln.lru = c.tick
		c.Hits++
		return ln
	}
	c.Misses++
	return nil
}

// Peek returns the line holding addr without touching LRU or counters.
func (c *Cache) Peek(addr uint64) *Line {
	if i := c.find(addr); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Insert places addr into the cache and returns the pointer to its line plus
// the evicted victim (by value) when an occupied slot had to be reclaimed.
// The caller is responsible for handling the victim (write-back, directory
// update) before using the new line. If addr is already resident its line is
// reused in place and no victim is produced. Otherwise the line goes to the
// set's first invalid way, or, in a full set, replaces the least recently
// used way (the lowest-numbered one on an LRU tie).
func (c *Cache) Insert(addr uint64) (ln *Line, victim Line, evicted bool) {
	base := c.setOf(addr) * c.ways
	want := addr | 1
	slot := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == want && c.lines[base+i].Tag == addr {
			existing := &c.lines[base+i]
			c.tick++
			existing.lru = c.tick
			return existing, Line{}, false
		}
		if t == 0 && slot < 0 {
			slot = base + i
		}
	}
	if slot < 0 {
		// Evict the true-LRU way.
		slot = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.lines[i].lru < c.lines[slot].lru {
				slot = i
			}
		}
		victim = c.lines[slot]
		evicted = true
		c.Evictions++
	}
	c.tick++
	c.tags[slot] = want
	c.lines[slot] = Line{Valid: true, Tag: addr, State: Invalid, lru: c.tick}
	return &c.lines[slot], victim, evicted
}

// Invalidate removes addr from the cache, returning the removed line by
// value so the caller can inspect its dirty state, and whether it was found.
func (c *Cache) Invalidate(addr uint64) (Line, bool) {
	i := c.find(addr)
	if i < 0 {
		return Line{}, false
	}
	removed := c.lines[i]
	c.lines[i] = Line{}
	c.tags[i] = 0
	return removed, true
}

// ForEach invokes fn on every valid line. fn may mutate the line (the tag
// walker uses this to downgrade M lines after persisting them) but must not
// invalidate it; use CollectValid + Invalidate for removal.
func (c *Cache) ForEach(fn func(*Line)) {
	for i, t := range c.tags {
		if t != 0 {
			fn(&c.lines[i])
		}
	}
}

// CollectValid returns copies of all valid lines; useful for walks that will
// mutate the cache while iterating. The returned slice is backed by a
// per-cache scratch buffer and is only valid until the next CollectValid or
// Flush call on the same cache; every caller consumes the previous result
// before asking again, so the eviction/walk paths run allocation-free.
func (c *Cache) CollectValid() []Line {
	out := c.scratchBuf()
	for i, t := range c.tags {
		if t != 0 {
			out = append(out, c.lines[i])
		}
	}
	c.scratch = out
	return out
}

// scratchBuf returns the reusable line buffer, pre-sized on first use.
func (c *Cache) scratchBuf() []Line {
	if c.scratch == nil {
		n := c.sets * c.ways
		if n > 64 {
			n = 64
		}
		c.scratch = make([]Line, 0, n)
	}
	return c.scratch[:0]
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// CountDirty returns the number of valid dirty lines.
func (c *Cache) CountDirty() int {
	n := 0
	for i, t := range c.tags {
		if t != 0 && c.lines[i].Dirty {
			n++
		}
	}
	return n
}

// Flush invalidates every line and returns the dirty ones (by value) so the
// caller can write them back. Used by epoch wrap-around resets and by
// end-of-run drains. Like CollectValid, the result shares the per-cache
// scratch buffer and is valid until the next CollectValid/Flush call on
// this cache.
func (c *Cache) Flush() []Line {
	dirty := c.scratchBuf()
	for i, t := range c.tags {
		if t != 0 && c.lines[i].Dirty {
			dirty = append(dirty, c.lines[i])
		}
	}
	clear(c.lines)
	clear(c.tags)
	c.scratch = dirty
	return dirty
}

package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is a naive set-associative true-LRU model: full Line structs
// only, the set index by division, a linear scan per operation. The real
// Cache must match it hit for hit, victim for victim and counter for
// counter.
type refCache struct {
	sets, ways, lineSize, stride int
	slots                        []Line
	tick                         uint64
	hits, misses, evictions      uint64
	ties                         int // evictions where several ways shared the oldest stamp
}

func (r *refCache) setOf(addr uint64) int {
	return int((addr / uint64(r.lineSize) / uint64(r.stride)) % uint64(r.sets))
}

func (r *refCache) find(addr uint64) int {
	base := r.setOf(addr) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.slots[i].Valid && r.slots[i].Tag == addr {
			return i
		}
	}
	return -1
}

func (r *refCache) lookup(addr uint64) int {
	i := r.find(addr)
	if i < 0 {
		r.misses++
		return -1
	}
	r.tick++
	r.slots[i].lru = r.tick
	r.hits++
	return i
}

func (r *refCache) insert(addr uint64) (slot int, victim Line, evicted bool) {
	if i := r.find(addr); i >= 0 {
		r.tick++
		r.slots[i].lru = r.tick
		return i, Line{}, false
	}
	base := r.setOf(addr) * r.ways
	slot = -1
	for i := base; i < base+r.ways; i++ {
		if !r.slots[i].Valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = base
		for i := base + 1; i < base+r.ways; i++ {
			if r.slots[i].lru < r.slots[slot].lru {
				slot = i
			}
		}
		for i := slot + 1; i < base+r.ways; i++ {
			if r.slots[i].lru == r.slots[slot].lru {
				r.ties++
				break
			}
		}
		victim, evicted = r.slots[slot], true
		r.evictions++
	}
	r.tick++
	r.slots[slot] = Line{Valid: true, Tag: addr, lru: r.tick}
	return slot, victim, evicted
}

func (r *refCache) invalidate(addr uint64) (Line, bool) {
	i := r.find(addr)
	if i < 0 {
		return Line{}, false
	}
	removed := r.slots[i]
	r.slots[i] = Line{}
	return removed, true
}

func (r *refCache) valid(dirtyOnly bool) []Line {
	var out []Line
	for _, ln := range r.slots {
		if ln.Valid && (!dirtyOnly || ln.Dirty) {
			out = append(out, ln)
		}
	}
	return out
}

// checkAgainst compares every slot, the tag array and the counters.
func checkAgainst(t *testing.T, step int, c *Cache, r *refCache) {
	t.Helper()
	for i := range c.lines {
		if c.lines[i] != r.slots[i] {
			t.Fatalf("step %d slot %d: cache %+v, reference %+v", step, i, c.lines[i], r.slots[i])
		}
		want := uint64(0)
		if c.lines[i].Valid {
			want = c.lines[i].Tag | 1
		}
		if c.tags[i] != want {
			t.Fatalf("step %d slot %d: tag word %#x, line valid=%v tag=%#x", step, i, c.tags[i], c.lines[i].Valid, c.lines[i].Tag)
		}
	}
	if c.Hits != r.hits || c.Misses != r.misses || c.Evictions != r.evictions {
		t.Fatalf("step %d: counters hits/misses/evictions %d/%d/%d, reference %d/%d/%d",
			step, c.Hits, c.Misses, c.Evictions, r.hits, r.misses, r.evictions)
	}
}

func sameLines(a, b []Line) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstReference drives random operation sequences over
// L1/L2-like geometries and LLC slices of every interleave stride the
// simulator uses (powers of two and not), cross-checking each step.
func TestDifferentialAgainstReference(t *testing.T) {
	geoms := []struct {
		name                         string
		size, ways, lineSize, stride int
	}{
		{"l1", 4 << 10, 8, 64, 1},
		{"l2", 16 << 10, 8, 64, 1},
		{"direct", 1 << 10, 1, 64, 1},
		{"llc-s1", 16 << 10, 16, 64, 1},
		{"llc-s6", 16 << 10, 16, 64, 6},
		{"llc-s8", 16 << 10, 16, 64, 8},
		{"llc-s12", 16 << 10, 16, 64, 12},
		{"llc-s128", 16 << 10, 16, 64, 128},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				c := NewGroup(g.name, 1, g.size, g.ways, g.lineSize, g.stride)[0]
				r := &refCache{sets: c.sets, ways: g.ways, lineSize: g.lineSize, stride: g.stride,
					slots: make([]Line, c.sets*g.ways)}
				rng := rand.New(rand.NewSource(seed))
				// Most addresses fall into four sets, three times over
				// their capacity, so those sets fill, evict and (after
				// whole-line rewrites) tie on the LRU stamp; the rest
				// spread over the whole array.
				const hotSets = 4
				hot := 3 * hotSets * g.ways
				pool := make([]uint64, hot+c.Capacity()/2)
				for i := range pool {
					line := uint64(rng.Intn(1 << 20))
					if i < hot {
						line = line*uint64(c.sets*g.stride) + uint64(rng.Intn(hotSets*g.stride))
					}
					pool[i] = line * uint64(g.lineSize)
					if i > 0 && rng.Intn(10) == 0 {
						// An unaligned address shares its aligned
						// neighbour's tag word; the probe must still
						// tell them apart.
						pool[i] = pool[i-1] | 1
					}
				}
				for step := 0; step < 4000; step++ {
					addr := pool[rng.Intn(len(pool))]
					switch op := rng.Intn(100); {
					case op < 30:
						ln, i := c.Lookup(addr), r.lookup(addr)
						if (ln != nil) != (i >= 0) {
							t.Fatalf("step %d: Lookup(%#x) hit=%v, reference hit=%v", step, addr, ln != nil, i >= 0)
						}
						if ln != nil && rng.Intn(2) == 0 {
							ln.Dirty, ln.State, ln.OID = true, Modified, uint64(step)
							r.slots[i].Dirty, r.slots[i].State, r.slots[i].OID = true, Modified, uint64(step)
						}
					case op < 40:
						ln, i := c.Peek(addr), r.find(addr)
						if (ln != nil) != (i >= 0) {
							t.Fatalf("step %d: Peek(%#x) hit=%v, reference hit=%v", step, addr, ln != nil, i >= 0)
						}
					case op < 75:
						ln, victim, ev := c.Insert(addr)
						i, rv, rev := r.insert(addr)
						if ev != rev || victim != rv {
							t.Fatalf("step %d: Insert(%#x) victim %+v/%v, reference %+v/%v", step, addr, victim, ev, rv, rev)
						}
						if op < 60 {
							ln.State, ln.Data = Exclusive, uint64(step)
							r.slots[i].State, r.slots[i].Data = Exclusive, uint64(step)
						} else {
							// The whole-line rewrite some callers do
							// after Insert zeroes lru, creating ties.
							*ln = Line{Valid: true, Tag: addr, State: Modified, Dirty: true, OID: uint64(step)}
							r.slots[i] = *ln
						}
					case op < 85:
						got, ok := c.Invalidate(addr)
						want, rok := r.invalidate(addr)
						if ok != rok || got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %+v/%v, reference %+v/%v", step, addr, got, ok, want, rok)
						}
					case op < 99:
						if got, want := c.CollectValid(), r.valid(false); !sameLines(got, want) {
							t.Fatalf("step %d: CollectValid differs: %d vs %d lines", step, len(got), len(want))
						}
						if c.CountValid() != len(r.valid(false)) || c.CountDirty() != len(r.valid(true)) {
							t.Fatalf("step %d: CountValid/CountDirty %d/%d, reference %d/%d", step,
								c.CountValid(), c.CountDirty(), len(r.valid(false)), len(r.valid(true)))
						}
					default:
						want := r.valid(true)
						if got := c.Flush(); !sameLines(got, want) {
							t.Fatalf("step %d: Flush returned %d dirty lines, reference %d", step, len(got), len(want))
						}
						clear(r.slots)
					}
					checkAgainst(t, step, c, r)
				}
				if r.evictions == 0 || (g.ways > 1 && r.ties == 0) {
					t.Fatalf("sequence too gentle: %d evictions, %d LRU ties", r.evictions, r.ties)
				}
			})
		}
	}
}

// TestSetOfMatchesDivision checks the shift/mask set index against the
// division formula it replaces, for power-of-two and other strides.
func TestSetOfMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lineSize := range []int{1, 32, 64, 128} {
		for _, stride := range []int{1, 2, 3, 6, 8, 12, 128, 255} {
			for _, sets := range []int{1, 2, 64, 512} {
				c := NewGroup("s", 1, sets*4*lineSize, 4, lineSize, stride)[0]
				for i := 0; i < 2000; i++ {
					addr := rng.Uint64()
					if i%2 == 0 {
						addr >>= rng.Intn(64)
					}
					want := int((addr / uint64(lineSize) / uint64(stride)) % uint64(sets))
					if got := c.setOf(addr); got != want {
						t.Fatalf("line=%d stride=%d sets=%d: setOf(%#x) = %d, want %d", lineSize, stride, sets, addr, got, want)
					}
				}
			}
		}
	}
}

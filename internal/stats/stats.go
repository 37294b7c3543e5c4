// Package stats provides counters, named statistic sets, distributions and
// time series used by every simulator component. All containers are plain
// (non-atomic): the simulation engine serialises accesses, so no locking is
// required on the hot path.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a named collection of integer counters. Iteration order is stable
// (sorted by name) so dumps are deterministic. A counter joins the set's
// keys the first time it is touched (any Add, even of zero, or Inc), so a
// set that registers handles up front reports exactly the keys a lazily
// created one would.
//
// Hot paths hold *Counter handles (see Counter) and never hash a string per
// event; the string-keyed Add/Inc remain for cold paths and tests.
type Set struct {
	name  string
	index map[string]*Counter
	free  []Counter // unassigned tail of the current counter block
	first [counterBlock]Counter
}

// Counter is a handle on one counter of a Set. It stays valid for the
// set's lifetime, across Reset.
type Counter struct {
	v       int64
	touched bool
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++; c.touched = true }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v += delta; c.touched = true }

// Value returns the counter's current value.
func (c *Counter) Value() int64 { return c.v }

// counterBlock is how many counters a set carves from one allocation. The
// first block is part of the Set itself and covers every component's
// registered handles, so handles cost no allocation of their own.
const counterBlock = 32

// NewSet returns an empty counter set with the given name.
func NewSet(name string) *Set {
	s := &Set{name: name, index: make(map[string]*Counter)}
	s.free = s.first[:]
	return s
}

// Name returns the name the set was created with.
func (s *Set) Name() string { return s.name }

// Counter returns the handle for key, creating it untouched if absent: it
// does not appear in Keys until it is first incremented.
func (s *Set) Counter(key string) *Counter {
	if c, ok := s.index[key]; ok {
		return c
	}
	if len(s.free) == 0 {
		s.free = make([]Counter, counterBlock)
	}
	c := &s.free[0]
	s.free = s.free[1:]
	s.index[key] = c
	return c
}

// Add increments counter key by delta, creating it if absent.
func (s *Set) Add(key string, delta int64) { s.Counter(key).Add(delta) }

// Inc increments counter key by one.
func (s *Set) Inc(key string) { s.Add(key, 1) }

// Get returns the current value of counter key (zero if absent).
func (s *Set) Get(key string) int64 {
	if c, ok := s.index[key]; ok {
		return c.v
	}
	return 0
}

// Keys returns the names of all touched counters in sorted order.
func (s *Set) Keys() []string {
	keys := make([]string, 0, len(s.index))
	for k, c := range s.index {
		if c.touched {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Merge adds every counter of other into s, in sorted key order. Addition
// commutes, but the deterministic order keeps every observable side effect
// (lazy counter creation, future hooks) independent of map iteration, so a
// merged set is bit-identical however the parallel sweep scheduled the
// runs that produced it.
func (s *Set) Merge(other *Set) {
	for _, k := range other.Keys() {
		s.Add(k, other.index[k].v)
	}
}

// Reset zeroes all counters and removes them from Keys until they are
// touched again. Handles stay valid. Only touched counters can be nonzero,
// so walking Keys covers every counter that needs clearing.
func (s *Set) Reset() {
	for _, k := range s.Keys() {
		*s.index[k] = Counter{}
	}
}

// String renders the set as "name{k1=v1 k2=v2 ...}" with sorted keys.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for i, k := range s.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, s.index[k].v)
	}
	b.WriteByte('}')
	return b.String()
}

// Dump renders one counter per line, sorted, with the given indent prefix.
func (s *Set) Dump(indent string) string {
	var b strings.Builder
	for _, k := range s.Keys() {
		fmt.Fprintf(&b, "%s%-40s %d\n", indent, k, s.index[k].v)
	}
	return b.String()
}

// Distribution tracks min/max/sum/count of an integer-valued sample stream.
type Distribution struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Observe records one sample.
func (d *Distribution) Observe(v int64) {
	if d.Count == 0 || v < d.Min {
		d.Min = v
	}
	if d.Count == 0 || v > d.Max {
		d.Max = v
	}
	d.Count++
	d.Sum += v
}

// Mean returns the arithmetic mean of the observed samples (0 when empty).
func (d *Distribution) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Merge folds other's samples into d. The empty side contributes nothing:
// a naive field-wise merge would clobber the populated side's Min/Max with
// the empty side's zero values (or keep a stale zero Min when d itself is
// empty), which is exactly how per-cell distributions used to vanish from
// parallel-sweep rollups.
func (d *Distribution) Merge(other *Distribution) {
	if other.Count == 0 {
		return
	}
	if d.Count == 0 || other.Min < d.Min {
		d.Min = other.Min
	}
	if d.Count == 0 || other.Max > d.Max {
		d.Max = other.Max
	}
	d.Count += other.Count
	d.Sum += other.Sum
}

// String renders the distribution compactly. An empty distribution says so
// explicitly: "min=0 max=0 mean=0.00" is indistinguishable from a stream
// of genuine zero samples.
func (d *Distribution) String() string {
	if d.Count == 0 {
		return "n=0 (empty)"
	}
	return fmt.Sprintf("n=%d min=%d max=%d mean=%.2f", d.Count, d.Min, d.Max, d.Mean())
}

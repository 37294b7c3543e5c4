package mem

import (
	"fmt"
	"math/bits"
	"sort"
)

// WordMap is an open-addressed uint64 -> uint64 table for the per-access
// address maps of the memory model (persisted words, DRAM side-band, wear
// counters, OMC payloads, the driver's golden image). It follows
// cache.Directory: 16 shards that grow independently, so one growth step
// copies a sixteenth of the table; linear probing over a multiplicative
// hash; tombstone deletion. Each slot interleaves key and value, so a probe
// touches one host cache line, and nothing is allocated per entry.
//
// Keys are addresses aligned to at least 8 bytes. Two unaligned keys are
// reserved: a slot stores its key XOR 1, so a zeroed slot reads as key 1
// (empty) and a tombstone holds the encoding of key 3 (deleted). Put panics
// on either; Get and Delete report them absent. ForEach runs in (shard,
// slot) order, which depends only on the keys inserted and deleted and the
// order of those operations, never on a seed.
//
// The zero value is an empty table ready to use.
type WordMap struct {
	shards [wordShards]wordShard
	n      int // live entries across all shards
}

const (
	wordShards    = 16 // power of two; the top 4 hash bits pick the shard
	wordShardBits = 4
	wordMinSlots  = 16                 // initial slots per shard (power of two)
	wordHashMulti = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

	wordKeyFlip   = 1 // stored key = key ^ wordKeyFlip
	wordEmptyKey  = 1 // reads back from a zeroed slot
	wordDeadKey   = 3 // tombstone
	wordSlotEmpty = wordEmptyKey ^ wordKeyFlip
	wordSlotDead  = wordDeadKey ^ wordKeyFlip
)

type wordSlot struct {
	key uint64 // key ^ wordKeyFlip; wordSlotEmpty or wordSlotDead when free
	val uint64
}

type wordShard struct {
	slots []wordSlot
	shift uint // 64 - log2(len(slots)): index = (h << wordShardBits) >> shift
	used  int  // live entries
	dead  int  // tombstones
}

// reservedKey reports whether key is one of the two slot markers.
func reservedKey(key uint64) bool { return key&^2 == wordEmptyKey }

// locate hashes key to its shard and first probe slot. The multiplicative
// mix leaves the low bits of an aligned address zero, so both the shard and
// the slot come from the well-mixed high bits.
func (m *WordMap) locate(key uint64) (*wordShard, uint64) {
	h := key * wordHashMulti
	s := &m.shards[h>>(64-wordShardBits)]
	return s, s.home(h)
}

// home is the first probe slot of hash h in the shard.
func (s *wordShard) home(h uint64) uint64 { return (h << wordShardBits) >> s.shift }

// Len returns the number of live entries.
func (m *WordMap) Len() int { return m.n }

// Get returns the value stored for key and whether it is present.
func (m *WordMap) Get(key uint64) (uint64, bool) {
	s, i := m.locate(key)
	if s.used == 0 || reservedKey(key) {
		return 0, false
	}
	enc, mask := key^wordKeyFlip, uint64(len(s.slots)-1)
	for ; ; i = (i + 1) & mask {
		switch s.slots[i].key {
		case enc:
			return s.slots[i].val, true
		case wordSlotEmpty:
			return 0, false
		}
	}
}

// Put stores val under key, inserting or overwriting.
func (m *WordMap) Put(key, val uint64) {
	p, _ := m.Ref(key)
	*p = val
}

// Ref returns a pointer to key's value, inserting a zero value when key is
// absent, and whether key was already present. The pointer is valid until
// the next insertion of any key (which may grow the shard).
func (m *WordMap) Ref(key uint64) (*uint64, bool) {
	if reservedKey(key) {
		panic(fmt.Sprintf("mem: WordMap key %#x is reserved", key))
	}
	h := key * wordHashMulti
	s := &m.shards[h>>(64-wordShardBits)]
	if (s.used+s.dead+1)*8 > len(s.slots)*7 {
		s.rehash()
	}
	i, enc, mask := s.home(h), key^wordKeyFlip, uint64(len(s.slots)-1)
	free := -1
	for ; ; i = (i + 1) & mask {
		switch s.slots[i].key {
		case enc:
			return &s.slots[i].val, true
		case wordSlotDead:
			if free < 0 {
				free = int(i)
			}
		case wordSlotEmpty:
			if free >= 0 {
				i = uint64(free)
				s.dead--
			}
			s.slots[i] = wordSlot{key: enc}
			s.used++
			m.n++
			return &s.slots[i].val, false
		}
	}
}

// Delete removes key if present. No other entry moves.
func (m *WordMap) Delete(key uint64) {
	s, i := m.locate(key)
	if s.used == 0 || reservedKey(key) {
		return
	}
	enc, mask := key^wordKeyFlip, uint64(len(s.slots)-1)
	for ; ; i = (i + 1) & mask {
		switch s.slots[i].key {
		case enc:
			s.slots[i] = wordSlot{key: wordSlotDead}
			s.used--
			s.dead++
			m.n--
			return
		case wordSlotEmpty:
			return
		}
	}
}

// Reset empties the table, keeping every shard's capacity for reuse.
func (m *WordMap) Reset() {
	for i := range m.shards {
		s := &m.shards[i]
		clear(s.slots)
		s.used, s.dead = 0, 0
	}
	m.n = 0
}

// Clone returns an independent copy of the table with the same slot
// layout, so it iterates in the same order.
func (m *WordMap) Clone() *WordMap {
	c := &WordMap{n: m.n}
	for i := range m.shards {
		s := &m.shards[i]
		c.shards[i] = *s
		c.shards[i].slots = append([]wordSlot(nil), s.slots...)
	}
	return c
}

// ForEach calls fn on every live entry in (shard, slot) order. fn must not
// insert or delete.
func (m *WordMap) ForEach(fn func(key, val uint64)) {
	for i := range m.shards {
		for _, sl := range m.shards[i].slots {
			if sl.key != wordSlotEmpty && sl.key != wordSlotDead {
				fn(sl.key^wordKeyFlip, sl.val)
			}
		}
	}
}

// SortedKeys returns every live key in ascending order.
func (m *WordMap) SortedKeys() []uint64 {
	keys := make([]uint64, 0, m.n)
	m.ForEach(func(key, _ uint64) { keys = append(keys, key) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// rehash grows the shard, or rebuilds it at its size when tombstones
// rather than live entries filled it.
func (s *wordShard) rehash() {
	size := wordMinSlots
	for size < (s.used+1)*2 {
		size *= 2
	}
	old := s.slots
	s.slots, s.dead = make([]wordSlot, size), 0
	s.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, sl := range old {
		if sl.key == wordSlotEmpty || sl.key == wordSlotDead {
			continue
		}
		i := s.home((sl.key ^ wordKeyFlip) * wordHashMulti)
		for s.slots[i].key != wordSlotEmpty {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

package mem

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// wordModel is the reference the table is checked against.
type wordModel map[uint64]uint64

func (w wordModel) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkWordMap compares every observable of m against the model.
func checkWordMap(t testing.TB, m *WordMap, model wordModel) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", m.Len(), len(model))
	}
	if got, want := m.SortedKeys(), model.sortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	seen := 0
	m.ForEach(func(k, v uint64) {
		seen++
		if want, ok := model[k]; !ok || want != v {
			t.Fatalf("ForEach yields %#x=%d, model has %d (present %v)", k, v, want, ok)
		}
	})
	if seen != len(model) {
		t.Fatalf("ForEach visited %d entries, want %d", seen, len(model))
	}
	for k, want := range model {
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("Get(%#x) = %d,%v, want %d", k, v, ok, want)
		}
	}
}

// slotOrder lists the live keys in iteration order.
func slotOrder(m *WordMap) []uint64 {
	var keys []uint64
	m.ForEach(func(k, _ uint64) { keys = append(keys, k) })
	return keys
}

func deadSlots(m *WordMap) (dead, slots int) {
	for i := range m.shards {
		dead += m.shards[i].dead
		slots += len(m.shards[i].slots)
	}
	return dead, slots
}

// TestWordMapDifferential runs random Put/Ref/Get/Delete/Reset sequences
// against a Go map. The key pool is large enough that every shard grows
// several times and small enough that deletes leave tombstones later
// inserts reuse.
func TestWordMapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := make([]uint64, 6000)
	for i := range pool {
		switch i % 3 {
		case 0:
			pool[i] = uint64(i) * 64 // dense line addresses
		case 1:
			pool[i] = rng.Uint64() &^ 7 // sparse word addresses
		default:
			pool[i] = uint64(i) << 12 // page addresses
		}
	}
	var m WordMap
	model := wordModel{}
	reused, resets := 0, 0
	for step := 0; step < 200000; step++ {
		k := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(100); {
		case op < 45:
			v := rng.Uint64()
			_, present := model[k]
			dead, slots := deadSlots(&m)
			m.Put(k, v)
			model[k] = v
			if d, s := deadSlots(&m); !present && s == slots && d < dead {
				reused++
			}
		case op < 55:
			p, ok := m.Ref(k)
			_, want := model[k]
			if ok != want {
				t.Fatalf("step %d: Ref(%#x) found=%v, model %v", step, k, ok, want)
			}
			*p += 3
			model[k] += 3
		case op < 75:
			m.Delete(k)
			delete(model, k)
		case op < 99:
			v, ok := m.Get(k)
			if want, present := model[k]; ok != present || v != want {
				t.Fatalf("step %d: Get(%#x) = %d,%v, model %d,%v", step, k, v, ok, want, present)
			}
		default:
			if rng.Intn(200) == 0 {
				_, before := deadSlots(&m)
				m.Reset()
				model = wordModel{}
				if _, after := deadSlots(&m); after != before {
					t.Fatalf("Reset changed capacity %d -> %d", before, after)
				}
				resets++
			}
		}
		if step%20000 == 0 {
			checkWordMap(t, &m, model)
		}
	}
	checkWordMap(t, &m, model)
	for i := range m.shards {
		if n := len(m.shards[i].slots); n <= wordMinSlots*4 {
			t.Errorf("shard %d never grew past %d slots", i, n)
		}
	}
	if reused == 0 || resets == 0 {
		t.Fatalf("sequence never reused a tombstone (%d) or reset (%d)", reused, resets)
	}
}

// TestWordMapCloneIndependent: a clone iterates like its source and shares
// no storage with it.
func TestWordMapCloneIndependent(t *testing.T) {
	var m WordMap
	model := wordModel{}
	for i := uint64(0); i < 3000; i++ {
		m.Put(i*8, i)
		model[i*8] = i
	}
	for i := uint64(0); i < 3000; i += 7 {
		m.Delete(i * 8)
		delete(model, i*8)
	}
	c := m.Clone()
	if !slices.Equal(slotOrder(c), slotOrder(&m)) {
		t.Fatal("clone iterates in a different order than its source")
	}
	frozen := wordModel{}
	for k, v := range model {
		frozen[k] = v
	}
	for i := uint64(0); i < 3000; i += 3 {
		m.Put(i*8, ^i)
		model[i*8] = ^i
		m.Delete(i*8 + 8)
		delete(model, i*8+8)
	}
	checkWordMap(t, c, frozen)
	c.Reset()
	c.Put(0x40, 1)
	checkWordMap(t, &m, model)
}

// TestWordMapReservedKeys: the two slot markers cannot be stored, read or
// deleted as keys.
func TestWordMapReservedKeys(t *testing.T) {
	for _, k := range []uint64{wordEmptyKey, wordDeadKey} {
		var m WordMap
		m.Put(0, 9) // key 0 is an ordinary address
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%d) did not panic", k)
				}
			}()
			m.Put(k, 1)
		}()
		m.Delete(k)
		if _, ok := m.Get(k); ok || m.Len() != 1 {
			t.Errorf("reserved key %d visible: len %d", k, m.Len())
		}
		if v, ok := m.Get(0); !ok || v != 9 {
			t.Errorf("key 0 lost: %d %v", v, ok)
		}
	}
}

// TestWordMapDeterministicOrder: the same operation sequence yields the
// same iteration order, whatever the process.
func TestWordMapDeterministicOrder(t *testing.T) {
	build := func() []uint64 {
		var m WordMap
		for i := uint64(0); i < 500; i++ {
			m.Put(i*0x1040, i)
			if i%5 == 0 {
				m.Delete(i * 0x820)
			}
		}
		return slotOrder(&m)
	}
	if a, b := build(), build(); !slices.Equal(a, b) {
		t.Fatal("iteration order differs between identical builds")
	}
}

// FuzzWordMap drives the table with an arbitrary op stream over a small
// aligned key space (so deletes and re-inserts collide), checking each Get
// against a Go map and every observable at the end.
func FuzzWordMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 2, 2, 1, 0, 3})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m WordMap
		model := wordModel{}
		for len(data) >= 3 {
			op := data[0] % 5
			k := uint64(binary.LittleEndian.Uint16(data[1:3])) << 3
			data = data[3:]
			switch op {
			case 0, 1:
				v := k ^ uint64(op)<<60
				m.Put(k, v)
				model[k] = v
			case 2:
				m.Delete(k)
				delete(model, k)
			case 3:
				v, ok := m.Get(k)
				if want, present := model[k]; ok != present || v != want {
					t.Fatalf("Get(%#x) = %d,%v, model %d,%v", k, v, ok, want, present)
				}
			case 4:
				if k&0xf8 == 0 {
					m.Reset()
					model = wordModel{}
				}
			}
		}
		checkWordMap(t, &m, model)
	})
}

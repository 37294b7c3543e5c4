package mem

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func contentNVM(t *testing.T) (*NVM, *sim.Config) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.NVMBanks = 4
	return NewNVM(&cfg), &cfg
}

// TestPersistTimingMatchesWrite: with faults off, Persist must book exactly
// what Write books — the content plane is timing-invisible.
func TestPersistTimingMatchesWrite(t *testing.T) {
	a, cfg := contentNVM(t)
	b, _ := contentNVM(t)
	_ = cfg
	for i := uint64(0); i < 200; i++ {
		addr := i * 64 * 3
		now := i * 50
		sa := a.Write(WData, addr, 24, now)
		sb := b.Persist(WData, addr, 24, []uint64{i, i + 1, i + 2}, now)
		if sa != sb {
			t.Fatalf("write %d: stall %d (Write) vs %d (Persist)", i, sa, sb)
		}
	}
	if a.Stats().Get("nvm_writes") != b.Stats().Get("nvm_writes") {
		t.Fatal("accounting diverged between Write and Persist")
	}
}

// TestPersistDurabilityWatermark: a word persisted at time t sits in the
// volatile bank queue — exposed to bank loss — until a full device latency
// has passed, after which no fault class can take it.
func TestPersistDurabilityWatermark(t *testing.T) {
	n, _ := contentNVM(t)
	n.AttachFaults(fault.New(fault.Config{Seed: 1, LossPer100: 100}))
	n.Persist(WData, 0x1000, 8, []uint64{7}, 100)
	if img := n.PowerCut(100); img.Len() != 0 {
		t.Fatalf("in-flight write survived a lost bank: %d words", img.Len())
	}
	n2, cfg := contentNVM(t)
	n2.AttachFaults(fault.New(fault.Config{Seed: 1, LossPer100: 100}))
	n2.Persist(WData, 0x1000, 8, []uint64{7}, 100)
	img := n2.PowerCut(100 + cfg.NVMWriteLat)
	if v, ok := img.Word(0x1000); !ok || v != 7 {
		t.Fatalf("completed write not durable after full latency: %v %v", v, ok)
	}
}

// TestPersistSilentPiggybacks: silent writes become durable at the bank
// watermark without moving it.
func TestPersistSilentPiggybacks(t *testing.T) {
	n, cfg := contentNVM(t)
	n.Persist(WMeta, 0x2000, 8, []uint64{1}, 0)
	n.PersistSilent(0x2008, []uint64{2}, 0)
	img := n.PowerCut(cfg.NVMWriteLat)
	if _, ok := img.Word(0x2008); !ok {
		t.Fatal("silent write did not ride the booked watermark")
	}
}

// TestPowerCutCleanADR: without an injector, in-flight writes drain whole.
func TestPowerCutCleanADR(t *testing.T) {
	n, _ := contentNVM(t)
	for i := uint64(0); i < 50; i++ {
		n.Persist(WData, 0x4000+i*64, 24, []uint64{i, i, i}, 0)
	}
	img := n.PowerCut(0) // nothing completed yet: ADR drains everything
	if img.Len() != 150 {
		t.Fatalf("clean cut lost words: %d/150", img.Len())
	}
}

// TestPowerCutTearsPrefix: a torn write keeps an 8-byte-word prefix; later
// words of the burst never reach the array.
func TestPowerCutTearsPrefix(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, TornPer100: 100})
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	n.Persist(WData, 0x5000, 24, []uint64{10, 11, 12}, 0)
	img := n.PowerCut(0)
	if inj.Count(fault.Torn) != 1 {
		t.Fatalf("tear did not fire: %d", inj.Count(fault.Torn))
	}
	keep := inj.Events()[0].Arg
	for i := uint64(0); i < 3; i++ {
		_, ok := img.Word(0x5000 + i*8)
		if want := i < keep; ok != want {
			t.Fatalf("word %d present=%v, torn prefix keep=%d", i, ok, keep)
		}
	}
}

// TestPowerCutBankLoss: a lost bank drops its whole volatile queue while
// other banks drain normally.
func TestPowerCutBankLoss(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 1, LossPer100: 100})
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	for i := uint64(0); i < 40; i++ {
		n.Persist(WData, 0x8000+i*64, 8, []uint64{i + 1}, 0)
	}
	img := n.PowerCut(0)
	if img.Len() != 0 {
		t.Fatalf("LossPer100=100 must drop every bank queue, %d words survive", img.Len())
	}
	if inj.Count(fault.BankLoss) == 0 {
		t.Fatal("no bank-loss events recorded")
	}
}

// TestNAKDropNeverReachesArray: a write abandoned after the retry budget
// leaves no content behind.
func TestNAKDropNeverReachesArray(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 2, NAKPer10k: 10_000}) // always NAK
	n, _ := contentNVM(t)
	n.AttachFaults(inj)
	stall := n.Persist(WData, 0x9000, 8, []uint64{5}, 0)
	if stall == 0 {
		t.Fatal("NAK retries must cost backoff cycles")
	}
	if inj.Count(fault.NAKDrop) != 1 {
		t.Fatalf("write was not dropped: %d", inj.Count(fault.NAKDrop))
	}
	if img := n.PowerCut(1 << 30); img.Len() != 0 {
		t.Fatal("dropped write reached the array")
	}
}

// TestImageIncludesPending: the fault-free Image() sees queued writes as if
// they had completed, and does not consume the queues.
func TestImageIncludesPending(t *testing.T) {
	n, _ := contentNVM(t)
	n.Persist(WData, 0xA000, 8, []uint64{9}, 0)
	if v, ok := n.Image().Word(0xA000); !ok || v != 9 {
		t.Fatalf("Image missed pending write: %v %v", v, ok)
	}
	if v, ok := n.Image().Word(0xA000); !ok || v != 9 {
		t.Fatalf("second Image read diverged: %v %v", v, ok)
	}
}

// TestPersistSteadyStateAllocFree: once the bank queues and the plane have
// grown to their working size, Persist and PersistSilent allocate nothing —
// the queue copies each burst into storage it owns, so the callers' word
// literals stay on the stack.
func TestPersistSteadyStateAllocFree(t *testing.T) {
	n, cfg := contentNVM(t)
	var now uint64
	persist := func() {
		addr := (now / cfg.NVMWriteLat % 256) * uint64(cfg.LineSize)
		n.Persist(WData, addr, 24, []uint64{now, now + 1, now + 2}, now)
		now += cfg.NVMWriteLat
	}
	silent := func() {
		addr := 1<<20 + (now/cfg.NVMWriteLat%256)*8
		n.PersistSilent(addr, []uint64{now}, now)
		now += cfg.NVMWriteLat
	}
	for i := 0; i < 4096; i++ {
		persist()
		silent()
	}
	if a := testing.AllocsPerRun(1000, persist); a != 0 {
		t.Errorf("steady-state Persist allocates %.2f times per write", a)
	}
	if a := testing.AllocsPerRun(1000, silent); a != 0 {
		t.Errorf("steady-state PersistSilent allocates %.2f times per write", a)
	}
}

// recordingPlane is a durable RAM plane that logs every applied burst.
type recordingPlane struct {
	*RAMPlane
	applied [][]uint64 // one entry per burst: [addr, words...]
}

func (p *recordingPlane) Apply(addr uint64, words []uint64) {
	p.applied = append(p.applied, append([]uint64{addr}, words...))
	p.RAMPlane.Apply(addr, words)
}

func (p *recordingPlane) Durable() bool { return true }

// queuedBank builds a one-bank device holding writes k = 1..K (value k,
// completing at k*lat, addresses cycling over three words, writes 5 and
// 12 seven words long) in a queue whose head has advanced past drained
// writes and whose full backing array was then compacted in place. It
// returns K and D, the last write drained before the compaction.
func queuedBank(t *testing.T) (n *NVM, plane *recordingPlane, cfg *sim.Config, K, D uint64) {
	t.Helper()
	c := sim.DefaultConfig()
	c.NVMBanks = 1
	n = NewNVM(&c)
	plane = &recordingPlane{RAMPlane: NewRAMPlane()}
	n.AttachPlane(plane)
	lat := c.NVMWriteLat
	push := func(now uint64) {
		K++
		words := []uint64{K}
		if K == 5 || K == 12 {
			words = []uint64{K, K, K, K, K, K, K}
		}
		n.Persist(WMeta, 0x1000+K%3*64, len(words)*8, words, now)
	}
	q := &n.pending[0]
	for K < 8 {
		push(0)
	}
	push(2 * lat) // drains 1..2; the array is full but head is small: it grows
	if q.head != 2 || len(q.buf) != 9 {
		t.Fatalf("after a partial drain: head %d, len %d", q.head, len(q.buf))
	}
	for len(q.buf) < cap(q.buf) || K < 16 {
		push(2 * lat)
	}
	full := cap(q.buf)
	D = K - 6
	push(D * lat) // drains 3..D, then compacts the last six to the front
	if q.head != 0 || len(q.buf) != 7 || cap(q.buf) != full {
		t.Fatalf("after compaction: head %d, len %d, cap %d (was %d)", q.head, len(q.buf), cap(q.buf), full)
	}
	return n, plane, &c, K, D
}

// checkFIFO asserts the plane saw writes 1..K in order, each whole.
func checkFIFO(t *testing.T, plane *recordingPlane, K uint64) {
	t.Helper()
	want := uint64(1)
	for _, b := range plane.applied {
		if b[1] != want || b[0] != 0x1000+want%3*64 {
			t.Fatalf("applied %v, want write %d next", b, want)
		}
		if wantLen := 1 + 1 + 6*btoi(want == 5 || want == 12); len(b) != wantLen {
			t.Fatalf("write %d applied %d words", want, len(b)-1)
		}
		want++
	}
	if want != K+1 {
		t.Fatalf("plane saw writes 1..%d, want 1..%d", want-1, K)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestQueueFIFOAfterCompaction: after partial drains and an in-place
// compaction, PowerCut, SealDurable and Image all apply the queued writes
// in issue order.
func TestQueueFIFOAfterCompaction(t *testing.T) {
	n, plane, _, K, D := queuedBank(t)
	img := n.Image()
	for a := uint64(0); a < 3; a++ {
		addr := 0x1000 + a*64
		last := K - (K+3-a)%3 // newest k with k%3 == a
		if v, ok := img.Word(addr); !ok || v != last {
			t.Fatalf("Image word %#x = %d,%v, want %d", addr, v, ok, last)
		}
	}
	if uint64(len(plane.applied)) != D {
		t.Fatalf("Image consumed the queue: %d bursts applied, %d drained", len(plane.applied), D)
	}

	cut, cplane, cfg, K, D := queuedBank(t)
	cut.PowerCut((D + 3) * cfg.NVMWriteLat)
	checkFIFO(t, cplane, K)

	seal, splane, cfg, K, D := queuedBank(t)
	seal.SealDurable(1, (D+1)*cfg.NVMWriteLat)
	checkFIFO(t, splane, K)
	if q := &seal.pending[0]; q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("SealDurable left head %d, len %d", q.head, len(q.buf))
	}
}

// TestTornTailKeepsPrefix: across seeds, a torn tail — inline or a long
// record — persists exactly its keep-word prefix, after every earlier
// write of the bank persisted whole.
func TestTornTailKeepsPrefix(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, tail := range [][]uint64{{21, 22, 23}, {31, 32, 33, 34, 35, 36, 37}} {
			inj := fault.New(fault.Config{Seed: seed, TornPer100: 100})
			n, plane, cfg, K, D := queuedBank(t)
			n.AttachFaults(inj)
			n.Persist(WMeta, 0x9000, len(tail)*8, tail, D*cfg.NVMWriteLat)
			img := n.PowerCut((D + 2) * cfg.NVMWriteLat)
			if inj.Count(fault.Torn) != 1 {
				t.Fatalf("seed %d: tear did not fire", seed)
			}
			keep := int(inj.Events()[0].Arg)
			last := plane.applied[len(plane.applied)-1]
			if last[0] != 0x9000 || len(last)-1 != keep {
				t.Fatalf("seed %d: torn tail applied as %v, keep %d", seed, last, keep)
			}
			for i, v := range tail {
				got, ok := img.Word(0x9000 + uint64(i)*8)
				if want := i < keep; ok != want || (ok && got != v) {
					t.Fatalf("seed %d: word %d = %d,%v, keep %d", seed, i, got, ok, keep)
				}
			}
			plane.applied = plane.applied[:len(plane.applied)-1]
			checkFIFO(t, plane, K)
		}
	}
}

// TestDrainedPrefixSkipped: with the head past a committed long record,
// Image, PowerCut and SealDurable read only the queued writes and apply
// them after the drained ones.
func TestDrainedPrefixSkipped(t *testing.T) {
	for _, settle := range []string{"image", "cut", "seal"} {
		cfg := sim.DefaultConfig()
		cfg.NVMBanks = 1
		n := NewNVM(&cfg)
		plane := &recordingPlane{RAMPlane: NewRAMPlane()}
		n.AttachPlane(plane)
		long := []uint64{1, 2, 3, 4, 5, 6, 7}
		n.Persist(WMeta, 0x1000, 56, long, 0)                      // done lat
		n.Persist(WMeta, 0x1000, 8, []uint64{8}, 0)                // done 2 lat
		n.Persist(WMeta, 0x1008, 8, []uint64{9}, 0)                // done 3 lat
		n.Persist(WMeta, 0x1010, 8, []uint64{10}, cfg.NVMWriteLat) // drains the long record
		if q := &n.pending[0]; q.head != 1 {
			t.Fatalf("head %d, want 1", q.head)
		}
		var img *Image
		switch settle {
		case "image":
			img = n.Image()
		case "cut":
			img = n.PowerCut(cfg.NVMWriteLat)
		case "seal":
			n.SealDurable(1, cfg.NVMWriteLat)
			img = plane.Snapshot()
		}
		want := map[uint64]uint64{0x1000: 8, 0x1008: 9, 0x1010: 10, 0x1018: 4, 0x1030: 7}
		for a, w := range want {
			if v, ok := img.Word(a); !ok || v != w {
				t.Fatalf("%s: word %#x = %d,%v, want %d", settle, a, v, ok, w)
			}
		}
		if settle != "image" && len(plane.applied) != 4 {
			t.Fatalf("%s: %d bursts applied, want 4", settle, len(plane.applied))
		}
	}
}

// TestPlaneAlignsLikeImage: the RAM plane and its snapshots resolve an
// unaligned address to the same 8-byte word.
func TestPlaneAlignsLikeImage(t *testing.T) {
	p := NewRAMPlane()
	p.Apply(0x2000, []uint64{5, 6})
	p.XorWord(0x2009, 1) // second word
	for _, a := range []uint64{0x2008, 0x2009, 0x200f} {
		if v, ok := p.Word(a); !ok || v != 7 {
			t.Fatalf("plane Word(%#x) = %d,%v, want 7", a, v, ok)
		}
		if v, ok := p.Snapshot().Word(a); !ok || v != 7 {
			t.Fatalf("image Word(%#x) = %d,%v, want 7", a, v, ok)
		}
	}
	for _, a := range []uint64{1, 3} { // the table's reserved keys align to 0
		if _, ok := p.Word(a); ok {
			t.Fatalf("Word(%d) found a word at 0", a)
		}
		p.XorWord(a, 1)
	}
	if p.Words() != 2 {
		t.Fatalf("plane holds %d words, want 2", p.Words())
	}
}

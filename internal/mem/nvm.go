// Package mem models the off-chip memory devices of the simulated machine:
// a banked NVDIMM (write latency, bank queueing, per-class byte accounting,
// wear counters, bandwidth time series) and a DRAM working-memory model with
// the per-line OID side-band that NVOverlay requires (§IV-A4).
package mem

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WriteClass labels NVM traffic so write amplification can be decomposed the
// way the paper's Figure 12 does.
type WriteClass int

const (
	// WData is snapshot/working data written in cache-line units.
	WData WriteClass = iota
	// WLog is undo/redo log traffic (72-byte entries in PiCL and SW logging).
	WLog
	// WMeta is persistent mapping-table traffic (8-byte entry writes).
	WMeta
	// WContext is processor context dumped at epoch boundaries.
	WContext
	numWriteClasses
)

// String returns the counter-key name of the class.
func (c WriteClass) String() string {
	switch c {
	case WData:
		return "data"
	case WLog:
		return "log"
	case WMeta:
		return "meta"
	case WContext:
		return "context"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// NVM models a banked non-volatile DIMM with a cumulative-work bandwidth
// model: each bank accumulates the busy time of the writes booked on it;
// when accumulated work runs ahead of the issuer's clock by more than the
// configured backlog (the controller's write-buffer depth), the issuer is
// charged the excess as a stall. Idle bank time acts as buffer credit,
// which matches the paper's assumption of a write-back DRAM buffer large
// enough to absorb bursts (§VI-B): only *sustained* oversubscription
// back-pressures execution.
type NVM struct {
	cfg *sim.Config

	bankBusy []uint64 // cumulative booked work per bank (cycles)
	lastLine []uint64 // last line buffered per bank (write combining)

	wear     WordMap // per-page write counts (line writes land here)
	series   *stats.TimeSeries
	progress func() float64 // supplied by the driver; nil means no series
	stat     *stats.Set
	ctr      nvmCounters

	// Content plane (durability model). The timing model above books bank
	// occupancy; the content plane additionally tracks what the array
	// would actually hold after a power cut. plane is the persisted word
	// array (in RAM by default, mirrored to disk when a FilePlane is
	// attached); pending holds per-bank FIFO queues of writes whose device
	// completion watermark has not passed yet — those are the writes a
	// power cut can tear or lose. bankDone is the per-bank completion
	// clock: unlike bankBusy (cumulative work, which grants idle credit
	// for the *stall* model), a write issued at cycle t can never be
	// durable before t+latency.
	plane    DurablePlane
	pending  []bankQueue
	bankDone []uint64
	inj      *fault.Injector
	bus      *obs.Bus // nil when the run is unobserved
}

// classKeys are the per-class byte and write counter keys.
var classKeys = func() (k [numWriteClasses]struct{ bytes, writes string }) {
	for c := range k {
		k[c].bytes = "bytes_" + WriteClass(c).String()
		k[c].writes = "writes_" + WriteClass(c).String()
	}
	return k
}()

// nvmCounters holds the device's counter handles; the per-class pairs are
// also the source of Bytes and Writes.
type nvmCounters struct {
	bytes, writes              [numWriteClasses]*stats.Counter
	stallCycles, stalledWrites *stats.Counter
}

func newNVMCounters(s *stats.Set) nvmCounters {
	c := nvmCounters{
		stallCycles:   s.Counter("stall_cycles"),
		stalledWrites: s.Counter("stalled_writes"),
	}
	for class, k := range classKeys {
		c.bytes[class] = s.Counter(k.bytes)
		c.writes[class] = s.Counter(k.writes)
	}
	return c
}

// pendingWrite is one word burst sitting in a bank's volatile queue, 64
// bytes. The queue owns the payload: bursts of up to len(inline) words
// (data lines, mapping-table slots) are stored inline, longer records
// (commit, seal) take a heap copy.
type pendingWrite struct {
	addr   uint64 // first word address (8-byte aligned)
	done   uint64 // device completion cycle; durable once done <= now
	n      int    // payload length in 8-byte words
	inline [4]uint64
	long   *[]uint64 // payload when n > len(inline); nil once committed
}

// words returns the payload.
func (w *pendingWrite) words() []uint64 {
	if w.long != nil {
		return (*w.long)[:w.n]
	}
	return w.inline[:w.n]
}

// bankQueue is one bank's FIFO of pending writes: buf[head:] are queued,
// oldest first. Draining advances head; the backing array is reused, and
// compacted in place only when it is full and at least half drained, so
// each write is copied O(1) times on average however long the queue gets.
type bankQueue struct {
	buf  []pendingWrite
	head int
}

// push appends a copy of the burst words at addr completing at done.
func (q *bankQueue) push(addr uint64, words []uint64, done uint64) {
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf):
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, pendingWrite{addr: addr, done: done, n: len(words)})
	w := &q.buf[len(q.buf)-1]
	if len(words) > len(w.inline) {
		long := append([]uint64(nil), words...)
		w.long = &long
	} else {
		copy(w.inline[:], words)
	}
}

// empty drops every queued write, keeping the backing array.
func (q *bankQueue) empty() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}

// NewNVM constructs the device from the machine config.
func NewNVM(cfg *sim.Config) *NVM {
	n := &NVM{
		cfg:      cfg,
		bankBusy: make([]uint64, cfg.NVMBanks),
		lastLine: make([]uint64, cfg.NVMBanks),
		series:   stats.NewTimeSeries(cfg.TimeSeriesBuckets),
		stat:     stats.NewSet("nvm"),
		plane:    NewRAMPlane(),
		pending:  make([]bankQueue, cfg.NVMBanks),
		bankDone: make([]uint64, cfg.NVMBanks),
		bus:      cfg.Obs,
	}
	n.ctr = newNVMCounters(n.stat)
	return n
}

// SetProgress installs the driver's progress callback (fraction of the trace
// issued so far); it positions bandwidth samples on the Fig-17 axis.
func (n *NVM) SetProgress(f func() float64) { n.progress = f }

func (n *NVM) bankOf(addr uint64) int {
	line := addr / uint64(n.cfg.LineSize)
	return int(line % uint64(n.cfg.NVMBanks))
}

// bookLine queues one device write on addr's bank and returns its backlog
// stall. Sub-line writes (8-byte mapping-table entries) that hit the same
// line as the bank's pending write coalesce in the controller's write
// buffer: bytes are accounted but no extra bank time is consumed.
func (n *NVM) bookLine(addr uint64, size int, now uint64) (stall uint64) {
	b := n.bankOf(addr)
	line := addr / uint64(n.cfg.LineSize)
	occ := n.cfg.NVMWriteLat
	if size < n.cfg.LineSize {
		if n.lastLine[b] == line && n.bankBusy[b] > now {
			return 0 // write-combined with the buffered line
		}
		occ = n.cfg.NVMWriteLat / 4
		if occ == 0 {
			occ = 1
		}
	}
	n.lastLine[b] = line
	n.bankBusy[b] += occ
	if n.bus != nil {
		var depth uint64
		if n.bankBusy[b] > now {
			depth = n.bankBusy[b] - now
		}
		n.bus.Emit(obs.KindNVMEnqueue, now, b, 0, addr, uint64(size), depth)
	}
	if n.bankBusy[b] > now+n.cfg.NVMMaxBacklog {
		stall = n.bankBusy[b] - now - n.cfg.NVMMaxBacklog
		n.ctr.stallCycles.Add(int64(stall))
		n.ctr.stalledWrites.Inc()
	}
	return stall
}

// Write books a write of size bytes at address addr, issued at cycle now.
// Multi-line transfers stripe line by line across banks. It returns the
// stall charged to the issuer: zero while the device keeps up, positive
// once a bank's backlog exceeds the configured limit. Synchronous callers
// (software persistence barriers) should use WriteSync instead.
func (n *NVM) Write(class WriteClass, addr uint64, size int, now uint64) (stall uint64) {
	n.account(class, addr, size)
	if size <= n.cfg.LineSize {
		return n.bookLine(addr, size, now)
	}
	for off := 0; off < size; off += n.cfg.LineSize {
		chunk := n.cfg.LineSize
		if size-off < chunk {
			chunk = size - off // partial tail (e.g. a 72-byte log entry's tag)
		}
		stall += n.bookLine(addr+uint64(off), chunk, now+stall)
	}
	return stall
}

// WriteSync books a write and returns the full completion latency relative
// to now. It models a software persistence barrier: the issuing thread waits
// for the line to be durable.
func (n *NVM) WriteSync(class WriteClass, addr uint64, size int, now uint64) (latency uint64) {
	n.account(class, addr, size)
	if size <= n.cfg.LineSize {
		return n.syncLine(addr, size, now)
	}
	for off := 0; off < size; off += n.cfg.LineSize {
		chunk := n.cfg.LineSize
		if size-off < chunk {
			chunk = size - off
		}
		latency += n.syncLine(addr+uint64(off), chunk, now+latency)
	}
	return latency
}

func (n *NVM) syncLine(addr uint64, size int, now uint64) uint64 {
	b := n.bankOf(addr)
	occ := n.cfg.NVMWriteLat
	if size < n.cfg.LineSize {
		occ = n.cfg.NVMWriteLat / 4
		if occ == 0 {
			occ = 1
		}
	}
	n.lastLine[b] = addr / uint64(n.cfg.LineSize)
	// The barrier waits for everything queued ahead plus this write.
	var queued uint64
	if n.bankBusy[b] > now {
		queued = n.bankBusy[b] - now
	}
	n.bankBusy[b] += occ
	return queued + occ
}

func (n *NVM) account(class WriteClass, addr uint64, size int) {
	n.ctr.bytes[class].Add(int64(size))
	n.ctr.writes[class].Inc()
	w, _ := n.wear.Ref(n.cfg.PageAddr(addr))
	*w++
	if n.progress != nil {
		n.series.Record(n.progress(), int64(size))
	}
}

// Read returns the read latency of the device; NVM reads during recovery and
// time-travel use this. Reads are not bandwidth-modelled (the paper's
// evaluation is write-bound).
func (n *NVM) Read() uint64 { return n.cfg.NVMReadLat }

// Tick attributes elapsed simulated time to the bandwidth series.
func (n *NVM) Tick(now uint64) {
	if n.progress != nil {
		n.series.Tick(n.progress(), now)
	}
}

// Bytes returns bytes written for a class.
func (n *NVM) Bytes(class WriteClass) int64 { return n.ctr.bytes[class].Value() }

// TotalBytes returns all bytes written across classes.
func (n *NVM) TotalBytes() int64 {
	var sum int64
	for _, b := range n.ctr.bytes {
		sum += b.Value()
	}
	return sum
}

// Writes returns the number of write operations for a class.
func (n *NVM) Writes(class WriteClass) int64 { return n.ctr.writes[class].Value() }

// TotalWrites returns write operations across all classes.
func (n *NVM) TotalWrites() int64 {
	var sum int64
	for _, w := range n.ctr.writes {
		sum += w.Value()
	}
	return sum
}

// MaxWear returns the highest per-page write count (endurance proxy).
func (n *NVM) MaxWear() int64 {
	var m uint64
	n.wear.ForEach(func(_, w uint64) { m = max(m, w) })
	return int64(m)
}

// PagesTouched returns how many distinct NVM pages have been written.
func (n *NVM) PagesTouched() int { return n.wear.Len() }

// Series exposes the bandwidth time series (Fig 17).
func (n *NVM) Series() *stats.TimeSeries { return n.series }

// Stats exposes the device counter set.
func (n *NVM) Stats() *stats.Set { return n.stat }

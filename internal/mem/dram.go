package mem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// DRAM models the working-memory device. It is latency-only (the paper
// assumes a write-back DRAM buffer large enough for the whole working set),
// but it carries the per-line OID side-band that NVOverlay stores in ECC
// bits or reserved words (§IV-A4). OIDs may be tracked per line or per
// 4-line "super block" (§V-F); with super blocks the stored OID is only
// raised, never lowered, exactly as the paper specifies.
type DRAM struct {
	cfg  *sim.Config
	oids WordMap // line (or super-block) address -> version
	data WordMap // line address -> payload token
	// dataOID orders write-backs per line: a stale dirty copy evicted from
	// the LLC after a newer version already reached DRAM (e.g. via the tag
	// walker's working-copy refresh) must not clobber the newer data. Real
	// systems get this ordering from coherence; the model enforces it here.
	dataOID WordMap
	stat    *stats.Set
	ctr     dramCounters
}

// dramCounters holds the device's counter handles.
type dramCounters struct {
	writebacks, staleWritebacksDropped, bytesWritten, oidLookups *stats.Counter
}

// NewDRAM constructs the device.
func NewDRAM(cfg *sim.Config) *DRAM {
	d := &DRAM{
		cfg:  cfg,
		stat: stats.NewSet("dram"),
	}
	d.ctr = dramCounters{
		writebacks:             d.stat.Counter("writebacks"),
		staleWritebacksDropped: d.stat.Counter("stale_writebacks_dropped"),
		bytesWritten:           d.stat.Counter("bytes_written"),
		oidLookups:             d.stat.Counter("oid_lookups"),
	}
	return d
}

// key maps a line address onto its OID tracking granule.
func (d *DRAM) key(addr uint64) uint64 {
	granule := uint64(d.cfg.LineSize * d.cfg.SuperBlock)
	return addr &^ (granule - 1)
}

// Latency returns the access latency of the device.
func (d *DRAM) Latency() uint64 { return d.cfg.DRAMLatency }

// WriteBack records a dirty line landing in DRAM with the given version and
// payload token. With super-block tracking the existing OID is only updated
// if the incoming OID is larger; the payload is always the newest data.
func (d *DRAM) WriteBack(addr uint64, oid uint64, data uint64) {
	if cur, ok := d.oids.Ref(d.key(addr)); !ok || oid > *cur {
		*cur = oid
	}
	line := d.cfg.LineAddr(addr)
	if cur, ok := d.dataOID.Ref(line); !ok || oid >= *cur {
		*cur = oid
		d.data.Put(line, data)
	} else {
		d.ctr.staleWritebacksDropped.Inc()
	}
	d.ctr.writebacks.Inc()
	d.ctr.bytesWritten.Add(int64(d.cfg.LineSize))
}

// Data returns the payload token last written back to addr's line (zero for
// untouched memory).
func (d *DRAM) Data(addr uint64) uint64 {
	v, _ := d.data.Get(d.cfg.LineAddr(addr))
	return v
}

// OID returns the version tag stored for addr's granule (0 if never written:
// version 0 predates all epochs, so fetching untouched memory never advances
// anyone's epoch).
func (d *DRAM) OID(addr uint64) uint64 {
	d.ctr.oidLookups.Inc()
	v, _ := d.oids.Get(d.key(addr))
	return v
}

// TaggedLines returns how many OID granules DRAM currently tracks; the
// experiment harness uses it to report the side-band overhead trade-off of
// super-block tracking.
func (d *DRAM) TaggedLines() int { return d.oids.Len() }

// SideBandBytes returns the bytes of OID metadata implied by the current
// tracked set (2 bytes per granule, mirroring the 16-bit tag).
func (d *DRAM) SideBandBytes() int64 { return int64(d.oids.Len()) * 2 }

// Stats exposes the device counter set.
func (d *DRAM) Stats() *stats.Set { return d.stat }

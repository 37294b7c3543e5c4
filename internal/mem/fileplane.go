package mem

import (
	"fmt"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/obs"
)

// File-backed durable plane: an append/checkpoint on-disk format with
// manifest discipline, modelled on LSM manifest/WAL layering (NoKV) and
// CoW base-image + delta overlays (dh-cli). Every file is built from the
// shared framing of check.go; the directory holds
//
//   - MANIFEST — one header record [FileManifestMagic, version,
//     sealedEpoch, ckptSeq+1, ckptEpoch, segBase, segCount] naming the
//     durable state: newest sealed epoch, the base checkpoint (if any) and
//     the contiguous range of sealed delta segments layered on top of it.
//     Every epoch seal rewrites it atomically: write MANIFEST.tmp, fsync
//     the file, rename over MANIFEST, fsync the parent directory.
//   - delta-NNNNNN.log — frames of word bursts [addr, n, words...] with
//     recs = bursts (the committed NVM writes of one seal interval), then
//     a seal frame [epoch, bursts in segment] with recs 0; no end marker.
//     The segment is fsynced before the manifest lists it; the highest-
//     numbered segment is the active one and may have a torn tail after
//     kill -9.
//   - checkpoint-NNNNNN.img — a full base image: header [FileCkptMagic,
//     version, epoch, nwords], frames of sorted (addr, word) pairs, the
//     end marker. Written every CheckpointEvery seals so unchanged words
//     are shared across epochs on disk instead of replayed from
//     ever-growing logs. Superseded segments and checkpoints are deleted
//     only after the manifest that stops referencing them is durable.
//
// Every filesystem operation goes through the fault.FS seam: production
// runs over fault.OS, the crash-consistency sweep over a MemFS wrapped in
// a FaultFS. Transient write faults are absorbed by retryFile (retry.go);
// any permanent write-path failure wounds the plane (ErrPlaneWounded):
// writes stop, the RAM mirror and everything already sealed stay readable.
const (
	// FileFormatVersion is the store format version, carried by the
	// manifest and checkpoint headers.
	FileFormatVersion = 2

	// FileManifestMagic marks the manifest record ("NVO-MFS1").
	FileManifestMagic uint64 = 0x4e564f2d4d465331
	// FileCkptMagic marks a checkpoint header and seeds its frame checks
	// ("NVO-CKP1").
	FileCkptMagic uint64 = 0x4e564f2d434b5031
	// FileDeltaMagic seeds delta-segment frame checks ("NVO-DLT1").
	FileDeltaMagic uint64 = 0x4e564f2d444c5431

	// manifestWords is the manifest record size before its check word.
	manifestWords = 7
	// deltaFrameBytes is the payload size at which a delta frame is written
	// out: the granularity at which kill -9 tears the active segment.
	deltaFrameBytes = 4 << 10
	// ckptFramePairs is the (addr, word) pairs per checkpoint frame: 64 KiB.
	ckptFramePairs = 4 << 10

	// maxDeltaWords bounds one Apply burst on disk; anything larger in a
	// burst header is corruption, not data.
	maxDeltaWords = 1 << 16

	// DefaultCheckpointEvery is the checkpoint cadence (epoch seals per
	// base-image rewrite) when the config leaves it zero.
	DefaultCheckpointEvery = 8

	manifestName = "MANIFEST"
	manifestTemp = "MANIFEST.tmp"
)

// DeltaFileName returns the delta segment file name for a sequence number.
func DeltaFileName(seq int) string { return fmt.Sprintf("delta-%06d.log", seq) }

// CheckpointFileName returns the checkpoint file name for a sequence number.
func CheckpointFileName(seq int) string { return fmt.Sprintf("checkpoint-%06d.img", seq) }

// ManifestFileName returns the manifest file name.
func ManifestFileName() string { return manifestName }

// FilePlane is the file-backed DurablePlane implementation. It keeps the
// live word array in RAM (Snapshot and fault-flip reads stay cheap) and
// mirrors every committed burst into the active delta segment.
type FilePlane struct {
	fsys fault.FS
	dir  string
	ram  *RAMPlane

	seg       *retryFile
	seq       int // active segment sequence number
	segBase   int // first sealed segment still referenced
	segCount  int // sealed segments in [segBase, segBase+segCount)
	recsInSeg uint64

	payload    []byte // bursts not yet written as a delta frame
	payloadRec uint64 // bursts in payload
	frame      []byte // reusable encoded frames

	ckptSeq        int // -1: no checkpoint yet
	ckptEpoch      uint64
	ckptEvery      int
	sealsSinceCkpt int
	sealedEpoch    uint64

	err  error
	hook func(point string, epoch uint64)

	bus *obs.Bus // nil when unobserved
}

// OpenFilePlaneFS creates a fresh durable store in dir (created if needed)
// of the given filesystem. It refuses a directory that already holds a
// manifest or delta segments: writers always start clean, recovery of an
// old store goes through LoadDirFS / recovery.SalvageDirFS.
// checkpointEvery <= 0 selects DefaultCheckpointEvery.
func OpenFilePlaneFS(fsys fault.FS, dir string, checkpointEvery int) (*FilePlane, error) {
	if checkpointEvery <= 0 {
		checkpointEvery = DefaultCheckpointEvery
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("mem: store dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mem: store dir: %w", err)
	}
	for _, name := range names {
		switch {
		case name == manifestName, isDeltaName(name), isCkptName(name):
			return nil, fmt.Errorf("mem: store dir %s already holds %s; refusing to overwrite an existing store", dir, name)
		}
	}
	p := &FilePlane{
		fsys:      fsys,
		dir:       dir,
		ram:       NewRAMPlane(),
		seq:       0,
		ckptSeq:   -1,
		ckptEvery: checkpointEvery,
	}
	if err := p.openSegment(); err != nil {
		return nil, err
	}
	return p, nil
}

func isDeltaName(name string) bool {
	var seq int
	_, err := fmt.Sscanf(name, "delta-%06d.log", &seq)
	return err == nil && filepath.Ext(name) == ".log"
}

func isCkptName(name string) bool {
	var seq int
	_, err := fmt.Sscanf(name, "checkpoint-%06d.img", &seq)
	return err == nil && filepath.Ext(name) == ".img"
}

// SetSealHook installs a callback invoked at the durable-path boundaries of
// every epoch seal: "segment-synced" (delta log fsynced, manifest not yet
// rewritten), "checkpoint-written" (base image renamed into place),
// "manifest-temp" (MANIFEST.tmp fsynced, rename pending) and
// "manifest-renamed" (manifest and parent directory durable). The crash
// soak parks the child writer on these points so kill -9 lands on exact,
// seeded boundaries.
func (p *FilePlane) SetSealHook(f func(point string, epoch uint64)) { p.hook = f }

// AttachBus forwards the plane's I/O-fault, retry and wound events to the
// observability bus. The plane holds the bus, not a wrapper, so the
// zero-cost nil-bus guard applies.
func (p *FilePlane) AttachBus(b *obs.Bus) { p.bus = b }

func (p *FilePlane) at(point string, epoch uint64) {
	if p.hook != nil {
		p.hook(point, epoch)
	}
}

// fail latches the first permanent write-path error and degrades the plane
// to read-only wounded mode: the latched error wraps ErrPlaneWounded, every
// later Apply/SealEpoch is a no-op on disk, and the error is what Err,
// Close and the sweep's typed-refusal check observe. The RAM mirror stays
// live so the in-process run can continue, and nothing already sealed is
// touched — wounded stores salvage to their last published manifest.
func (p *FilePlane) fail(err error) {
	if p.err == nil && err != nil {
		p.err = fmt.Errorf("%w: %w", ErrPlaneWounded, err)
		p.bus.EmitNote(obs.KindPlaneWound, 0, -1, p.sealedEpoch, 0, 0, 0, err.Error())
	}
}

// Wounded reports whether a permanent write-path failure has degraded the
// plane to read-only mode.
func (p *FilePlane) Wounded() bool { return p.err != nil }

func (p *FilePlane) openSegment() error {
	f, err := p.fsys.CreateExcl(filepath.Join(p.dir, DeltaFileName(p.seq)))
	if err != nil {
		return fmt.Errorf("mem: delta segment: %w", err)
	}
	p.seg = &retryFile{f: f, p: p}
	p.recsInSeg = 0
	return nil
}

// Apply implements DurablePlane: mirror to RAM, append the word burst to
// the pending delta frame, and write the frame out once it reaches
// deltaFrameBytes.
func (p *FilePlane) Apply(addr uint64, words []uint64) {
	p.ram.Apply(addr, words)
	if p.err != nil {
		return
	}
	p.payload = AppendWords(AppendWords(p.payload, addr, uint64(len(words))), words...)
	p.payloadRec++
	p.recsInSeg++
	if len(p.payload) >= deltaFrameBytes {
		p.writeFrames(nil)
	}
}

// writeFrames writes the pending delta frame, if any, followed by a seal
// frame carrying seal when seal is non-nil, in one write.
func (p *FilePlane) writeFrames(seal []byte) {
	p.frame = p.frame[:0]
	if p.payloadRec > 0 {
		p.frame = AppendFrame(p.frame, FileDeltaMagic, p.payloadRec, p.payload)
	}
	if seal != nil {
		p.frame = AppendFrame(p.frame, FileDeltaMagic, 0, seal)
	}
	p.payload, p.payloadRec = p.payload[:0], 0
	if len(p.frame) == 0 {
		return
	}
	if _, err := p.seg.Write(p.frame); err != nil {
		p.fail(err)
	}
}

// SealEpoch implements DurablePlane: terminate and fsync the active
// segment, periodically rewrite the base checkpoint, atomically publish a
// new manifest (temp + rename + parent-directory fsync), then open the
// next segment. Obsolete segments and checkpoints are removed only after
// the manifest that drops them is durable.
//
// Sync errors are never retried anywhere on this path (fsyncgate: a
// failed fsync may have dropped the dirty pages, and retrying can falsely
// succeed); the first one wounds the plane with the segment unsealed and
// the old manifest still in force.
//
// nvlint:durable
func (p *FilePlane) SealEpoch(epoch uint64) {
	if p.err != nil {
		return
	}
	if epoch > p.sealedEpoch {
		p.sealedEpoch = epoch
	}
	p.writeFrames(AppendWords(nil, epoch, p.recsInSeg))
	if p.err != nil {
		return
	}
	if err := p.seg.Sync(); err != nil {
		p.fail(err)
		return
	}
	if err := p.seg.Close(); err != nil {
		p.fail(err)
		return
	}
	p.seg = nil
	p.segCount++
	p.sealsSinceCkpt++
	p.at("segment-synced", epoch)

	var obsolete []string
	if p.sealsSinceCkpt >= p.ckptEvery {
		if err := p.writeCheckpoint(p.seq); err != nil {
			p.fail(err)
			return
		}
		for s := p.segBase; s <= p.seq; s++ {
			obsolete = append(obsolete, DeltaFileName(s))
		}
		if p.ckptSeq >= 0 {
			obsolete = append(obsolete, CheckpointFileName(p.ckptSeq))
		}
		p.ckptSeq = p.seq
		p.ckptEpoch = p.sealedEpoch
		p.segBase = p.seq + 1
		p.segCount = 0
		p.sealsSinceCkpt = 0
		p.at("checkpoint-written", epoch)
	}

	if err := p.writeManifest(epoch); err != nil {
		p.fail(err)
		return
	}
	// The durable manifest no longer references these; losing them now can
	// only waste space, never state. Removal failures still count: a store
	// that cannot clean up is a store whose disk is misbehaving.
	for _, name := range obsolete {
		if err := p.fsys.Remove(filepath.Join(p.dir, name)); err != nil {
			p.fail(err)
			return
		}
	}
	p.seq++
	if err := p.openSegment(); err != nil {
		p.fail(err)
	}
}

// writeCheckpoint dumps the full word array as checkpoint seq: a header
// [magic, version, epoch, nwords], frames of sorted (addr, word) pairs,
// the end marker. Written to a temp name, fsynced, renamed, parent
// directory fsynced.
//
// nvlint:durable
func (p *FilePlane) writeCheckpoint(seq int) error {
	name := CheckpointFileName(seq)
	tmp := filepath.Join(p.dir, name+".tmp")
	f, err := p.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	rf := &retryFile{f: f, p: p}
	addrs := p.ram.SortedAddrs()
	buf := AppendHeader(nil, FileCkptMagic, FileFormatVersion, p.sealedEpoch, uint64(len(addrs)))
	var payload []byte
	for done := false; !done; buf = buf[:0] {
		n := min(ckptFramePairs, len(addrs))
		payload = payload[:0]
		for _, a := range addrs[:n] {
			v, _ := p.ram.Word(a)
			payload = AppendWords(payload, a, v)
		}
		if addrs = addrs[n:]; n > 0 {
			buf = AppendFrame(buf, FileCkptMagic, uint64(n), payload)
		}
		if done = len(addrs) == 0; done {
			buf = AppendFrame(buf, FileCkptMagic, 0, nil) // end marker
		}
		if _, err := rf.Write(buf); err != nil {
			_ = rf.Close() // the write error is the one worth reporting
			return fmt.Errorf("mem: checkpoint: %w", err)
		}
	}
	if err := rf.Sync(); err != nil {
		_ = rf.Close() // the sync error is the one worth reporting
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := rf.Close(); err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := p.fsys.Rename(tmp, filepath.Join(p.dir, name)); err != nil {
		return fmt.Errorf("mem: checkpoint: %w", err)
	}
	if err := p.fsys.SyncDir(p.dir); err != nil {
		return fmt.Errorf("mem: dir sync: %w", err)
	}
	return nil
}

// writeManifest atomically publishes the current durable state. The
// sequence is the classic one: write MANIFEST.tmp, fsync it, rename over
// MANIFEST, fsync the parent directory so the rename itself is durable —
// a kill -9 at any point leaves either the old or the new manifest,
// never a torn one.
//
// nvlint:durable
func (p *FilePlane) writeManifest(epoch uint64) error {
	tmp := filepath.Join(p.dir, manifestTemp)
	f, err := p.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	rf := &retryFile{f: f, p: p}
	rec := AppendHeader(nil, FileManifestMagic, FileFormatVersion, p.sealedEpoch,
		uint64(p.ckptSeq+1), // 0: no checkpoint
		p.ckptEpoch, uint64(p.segBase), uint64(p.segCount))
	if _, err := rf.Write(rec); err != nil {
		_ = rf.Close() // the write error is the one worth reporting
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := rf.Sync(); err != nil {
		_ = rf.Close() // the sync error is the one worth reporting
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := rf.Close(); err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	p.at("manifest-temp", epoch)
	if err := p.fsys.Rename(tmp, filepath.Join(p.dir, manifestName)); err != nil {
		return fmt.Errorf("mem: manifest: %w", err)
	}
	if err := p.fsys.SyncDir(p.dir); err != nil {
		return fmt.Errorf("mem: dir sync: %w", err)
	}
	p.at("manifest-renamed", epoch)
	return nil
}

// Durable implements DurablePlane.
func (p *FilePlane) Durable() bool { return true }

// SealedEpoch returns the newest epoch a published manifest claims.
func (p *FilePlane) SealedEpoch() uint64 { return p.sealedEpoch }

// Dir returns the store directory.
func (p *FilePlane) Dir() string { return p.dir }

// Word implements DurablePlane.
func (p *FilePlane) Word(addr uint64) (uint64, bool) { return p.ram.Word(addr) }

// Words implements DurablePlane.
func (p *FilePlane) Words() int { return p.ram.Words() }

// SortedAddrs implements DurablePlane.
func (p *FilePlane) SortedAddrs() []uint64 { return p.ram.SortedAddrs() }

// XorWord implements DurablePlane. Fault-injection flips mutate only the
// RAM mirror: on-disk corruption is modelled by the torn-file tests
// mutating the files directly.
func (p *FilePlane) XorWord(addr, mask uint64) { p.ram.XorWord(addr, mask) }

// Snapshot implements DurablePlane.
func (p *FilePlane) Snapshot() *Image { return p.ram.Snapshot() }

// Err implements DurablePlane. After a permanent write failure it wraps
// ErrPlaneWounded around the root cause.
func (p *FilePlane) Err() error { return p.err }

// Close implements DurablePlane: flush and close the active segment
// without sealing it (durability is defined by sealed epochs, and a
// clean Close is indistinguishable from a kill right after it — exactly
// the guarantee the soak verifies).
func (p *FilePlane) Close() error {
	if p.seg != nil {
		p.writeFrames(nil)
		if p.err == nil {
			if err := p.seg.Sync(); err != nil {
				p.fail(err)
			}
		}
		if err := p.seg.Close(); err != nil {
			p.fail(err)
		}
		p.seg = nil
	}
	return p.err
}

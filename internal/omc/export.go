package omc

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/mem"
)

// Snapshot export/import: the paper's snapshots are random-accessible NVM
// images; for a software library the equivalent artifact is a portable
// binary file. Export serialises the consistent image of the recoverable
// epoch (and, with retention, every accessible epoch delta); Import
// reconstructs a read-only view for offline inspection — the "archive them
// for future accesses" path of §V-E.
//
// The archive is internal/mem's shared framing (checks seeded by
// archiveMagic): a header [archiveMagic, archiveVersion, recEpoch,
// nEpochs], then per epoch one or more frames [epoch, (addr, data)
// pairs...] with recs = pairs in address order, then the end marker. Epoch
// 0 holds the master image; further epochs are retained deltas. A flipped
// byte or a torn tail fails its frame, and Import refuses the archive.
const (
	archiveMagic   uint64 = 0x4e564f2d41524331 // "NVO-ARC1"
	archiveVersion        = 1
	// archiveFramePairs bounds the entries per frame: 64 KiB payloads.
	archiveFramePairs = 4 << 10
)

// Export writes the group's persistent snapshot state to w.
func (g *Group) Export(w io.Writer) error {
	img, _ := g.RecoverImage()
	epochs := g.Epochs()
	buf := mem.AppendHeader(nil, archiveMagic, archiveVersion, g.RecEpoch(), uint64(len(epochs))+1)
	buf = appendEpoch(buf, 0, img)
	for _, e := range epochs {
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = appendEpoch(buf[:0], e, g.EpochDelta(e))
	}
	_, err := w.Write(mem.AppendFrame(buf, archiveMagic, 0, nil))
	return err
}

// appendEpoch appends one epoch's entries, in address order, as frames;
// an empty delta still gets one frame so it survives the round trip.
func appendEpoch(dst []byte, epoch uint64, delta map[uint64]uint64) []byte {
	addrs := make([]uint64, 0, len(delta))
	for a := range delta {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var payload []byte
	for start := 0; start == 0 || start < len(addrs); start += archiveFramePairs {
		pairs := addrs[start:min(start+archiveFramePairs, len(addrs))]
		payload = mem.AppendWords(payload[:0], epoch)
		for _, a := range pairs {
			payload = mem.AppendWords(payload, a, delta[a])
		}
		dst = mem.AppendFrame(dst, archiveMagic, uint64(len(pairs)), payload)
	}
	return dst
}

// SnapshotFile is a deserialised snapshot archive.
type SnapshotFile struct {
	RecEpoch uint64
	Master   map[uint64]uint64            // consistent image at RecEpoch
	Deltas   map[uint64]map[uint64]uint64 // per-epoch incremental changes
}

// Import parses a snapshot archive written by Export. A damaged archive is
// refused whole with an error wrapping mem.ErrTruncated, mem.ErrChecksum or
// mem.ErrFormat.
func Import(r io.Reader) (*SnapshotFile, error) {
	h, err := mem.ReadHeader(r, archiveMagic, archiveVersion, 4, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("omc: archive header: %w", err)
	}
	epochs := make(map[uint64]map[uint64]uint64)
	frames := mem.NewFrameReader(r, archiveMagic)
	for {
		n, p, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("omc: archive: %w", err)
		}
		if uint64(len(p)) != 8+16*n {
			return nil, fmt.Errorf("omc: archive: %w: frame of %d bytes claims %d entries", mem.ErrFormat, len(p), n)
		}
		epoch := binary.LittleEndian.Uint64(p)
		delta := epochs[epoch]
		if delta == nil {
			delta = make(map[uint64]uint64, n)
			epochs[epoch] = delta
		}
		for p = p[8:]; len(p) > 0; p = p[16:] {
			delta[binary.LittleEndian.Uint64(p)] = binary.LittleEndian.Uint64(p[8:])
		}
	}
	master, ok := epochs[0]
	if !ok {
		return nil, fmt.Errorf("omc: archive: %w: missing the master image", mem.ErrFormat)
	}
	delete(epochs, 0)
	if uint64(len(epochs))+1 != h[3] {
		return nil, fmt.Errorf("omc: archive: %w: holds %d epochs, header lists %d", mem.ErrFormat, len(epochs)+1, h[3])
	}
	return &SnapshotFile{RecEpoch: h[2], Master: master, Deltas: epochs}, nil
}

// ReadAt returns the value of addr as of the given epoch using fall-through
// semantics over the archived deltas, falling back to the master image.
func (sf *SnapshotFile) ReadAt(addr, epoch uint64) (uint64, bool) {
	var best uint64
	found := false
	var bestEpoch uint64
	//nvlint:allow maprange commutative max-selection: the largest qualifying epoch wins regardless of visit order
	for e, delta := range sf.Deltas {
		if e > epoch || (found && e <= bestEpoch) {
			continue
		}
		if d, ok := delta[addr]; ok {
			best, bestEpoch, found = d, e, true
		}
	}
	if found {
		return best, true
	}
	// The master holds the image of RecEpoch; it answers queries at or
	// beyond it for addresses no retained delta covers.
	if epoch >= sf.RecEpoch {
		d, ok := sf.Master[addr]
		return d, ok
	}
	return 0, false
}

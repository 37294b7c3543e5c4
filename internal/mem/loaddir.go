package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// FileDamage records one piece of evidence LoadDirFS found while replaying a
// store directory cold. Kinds mirror the image-level salvage damage
// vocabulary but are file-scoped; recovery.SalvageDirFS prefixes them with
// "file-" when merging into a SalvageReport.
type FileDamage struct {
	Kind string `json:"kind"`
	Path string `json:"path"`
	Note string `json:"note"`
}

// DirReport summarises a cold replay of a store directory.
type DirReport struct {
	// SealedEpoch is the newest epoch the manifest claims durable (0 when
	// no manifest was found).
	SealedEpoch uint64 `json:"sealed_epoch"`
	// CheckpointSeq is the base checkpoint sequence replayed (-1: none).
	CheckpointSeq int `json:"checkpoint_seq"`
	// Segments counts delta segments fully replayed (seal record seen).
	Segments int `json:"segments"`
	// ActiveRecords counts valid records replayed from the unsealed
	// active segment's prefix.
	ActiveRecords int `json:"active_records"`
	// Truncated reports that replay stopped early at damaged or missing
	// sealed state; words after the stop point are absent from the image
	// and image-level salvage decides how far to walk back.
	Truncated bool `json:"truncated"`
	// Fatal names the damage kind that prevented building any image at
	// all (manifest or base checkpoint unusable); empty on success.
	Fatal string `json:"fatal,omitempty"`
	// Damage lists everything abnormal in the directory.
	Damage []FileDamage `json:"damage,omitempty"`
}

func (r *DirReport) addDamage(kind, path, note string) {
	r.Damage = append(r.Damage, FileDamage{Kind: kind, Path: path, Note: note})
}

// errReplayStop marks non-fatal replay termination (torn or missing sealed
// state): the image built so far is returned and image-level salvage walks
// back to an epoch whose records fully survive.
var errReplayStop = errors.New("replay stopped")

// LoadDirFS opens a store directory of fsys cold — typically in a fresh
// process after the writer was killed — and replays manifest → checkpoint
// → delta segments into an Image of the persisted word array.
//
// Damage below the manifest/checkpoint layer is never fatal here: a torn
// or missing delta segment stops replay at the last intact boundary and
// the caller's image-level salvage decides which epoch survives whole.
// Fatal returns (nil image) happen only when no trustworthy base exists:
// the manifest is corrupt, of another format version, or references a
// checkpoint that is missing or fails its checks.
//
// The crash-consistency sweep passes an in-memory fsys and so replays the
// post-crash durable state of a store exactly the way a fresh process
// would replay a real directory.
func LoadDirFS(fsys fault.FS, dir string) (*Image, *DirReport, error) {
	rep := &DirReport{CheckpointSeq: -1}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		rep.Fatal = "store-missing"
		rep.addDamage("store-missing", dir, "cannot read store directory")
		return nil, rep, fmt.Errorf("mem: open store: %w", err)
	}
	sealedState := false // a checkpoint or a segment past the first exists
	for _, name := range names {
		var seq int
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// An interrupted temp write: the rename never happened, so the
			// published state does not reference it. Evidence, not damage.
			rep.addDamage("stale-temp", name, "interrupted temp-file write; ignored")
		case isCkptName(name):
			sealedState = true
		case isDeltaName(name):
			_, err := fmt.Sscanf(name, "delta-%06d.log", &seq)
			sealedState = sealedState || err == nil && seq > 0
		}
	}

	raw, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, iofs.ErrNotExist) && sealedState:
		rep.Fatal = "manifest-missing"
		rep.addDamage("manifest-missing", manifestName, "sealed store state present but manifest destroyed")
		return nil, rep, errors.New("mem: manifest missing from non-empty store")
	case errors.Is(err, iofs.ErrNotExist):
		// A run killed before its first epoch seal legitimately leaves only
		// its active segment, delta-000000.log.
		return replayActive(fsys, dir, 0, new(WordMap), rep)
	case err != nil:
		rep.Fatal = "manifest-unreadable"
		rep.addDamage("manifest-unreadable", manifestName, err.Error())
		return nil, rep, fmt.Errorf("mem: manifest: %w", err)
	}
	m, err := ReadHeader(bytes.NewReader(raw), FileManifestMagic, FileFormatVersion, manifestWords, 0, 0)
	switch {
	case err != nil:
	case len(raw) != (manifestWords+1)*8:
		err = fmt.Errorf("%w: size %d, want %d", ErrFormat, len(raw), (manifestWords+1)*8)
	case m[3] > 1<<20 || m[5] > 1<<20 || m[6] > 1<<20:
		err = fmt.Errorf("%w: implausible sequence numbers", ErrFormat)
	}
	if err != nil {
		kind := "manifest-corrupt"
		if errors.Is(err, errVersion) {
			kind = "manifest-version"
		}
		rep.Fatal = kind
		rep.addDamage(kind, manifestName, err.Error())
		return nil, rep, fmt.Errorf("mem: manifest: %w", err)
	}
	rep.SealedEpoch = m[2]
	ckptSeq, segBase, segCount := int(m[3])-1, int(m[5]), int(m[6])

	words := new(WordMap)
	if ckptSeq >= 0 {
		name := CheckpointFileName(ckptSeq)
		if err := replayCheckpoint(fsys, filepath.Join(dir, name), words); err != nil {
			if errors.Is(err, iofs.ErrNotExist) {
				rep.Fatal = "checkpoint-missing"
				rep.addDamage("checkpoint-missing", name, "manifest references a checkpoint that does not exist")
				return nil, rep, fmt.Errorf("mem: checkpoint missing: %w", err)
			}
			rep.Fatal = "checkpoint-corrupt"
			rep.addDamage("checkpoint-corrupt", name, err.Error())
			return nil, rep, err
		}
		rep.CheckpointSeq = ckptSeq
	}

	// Sealed segments in manifest order; damage stops replay at the last
	// intact boundary (a hole in the middle would build a frankenimage of
	// old and new words that never coexisted).
	for seq := segBase; seq < segBase+segCount; seq++ {
		name := DeltaFileName(seq)
		_, sealed, err := replaySegment(fsys, filepath.Join(dir, name), words, true, rep)
		switch {
		case errors.Is(err, iofs.ErrNotExist):
			rep.addDamage("segment-missing", name, "manifest references a sealed delta segment that does not exist")
		case errors.Is(err, errReplayStop):
		case err != nil:
			return nil, rep, err
		case !sealed:
			rep.addDamage("segment-unsealed", name, "sealed delta segment has no seal frame")
		default:
			rep.Segments++
			continue
		}
		rep.Truncated = true
		return NewImage(words), rep, nil
	}
	return replayActive(fsys, dir, segBase+segCount, words, rep)
}

// replayActive replays active segment seq — the writer's open log when it
// died — on top of words. A torn tail here is the expected kill -9 shape;
// the valid prefix still holds committed (but unsealed) writes that
// image-level salvage may use.
func replayActive(fsys fault.FS, dir string, seq int, words *WordMap, rep *DirReport) (*Image, *DirReport, error) {
	n, _, err := replaySegment(fsys, filepath.Join(dir, DeltaFileName(seq)), words, false, rep)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, rep, err
	}
	rep.ActiveRecords = n
	return NewImage(words), rep, nil
}

// replaySegment applies one delta log's valid frame prefix into words.
// sealed selects strict mode: damage in a manifest-listed segment is
// reported as segment-torn and replay stops (errReplayStop); in the active
// segment a torn tail is normal kill -9 evidence (active-torn) and the
// valid prefix is kept. Returns the burst count and whether a seal frame
// terminated the segment.
func replaySegment(fsys fault.FS, path string, words *WordMap, sealed bool, rep *DirReport) (int, bool, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	recs, sawSeal, damage := readSegment(bytes.NewReader(raw), words)
	switch {
	case damage != nil && sealed:
		rep.addDamage("segment-torn", filepath.Base(path), damage.Error())
		return recs, sawSeal, errReplayStop
	case damage != nil:
		rep.addDamage("active-torn", filepath.Base(path), damage.Error())
	}
	return recs, sawSeal, nil
}

// readSegment applies delta frames until the input ends at a frame
// boundary, returning the bursts applied, whether the seal frame — last,
// counting every burst before it — was seen, and any damage that stopped
// replay early.
func readSegment(r io.Reader, words *WordMap) (int, bool, error) {
	frames := NewFrameReader(r, FileDeltaMagic)
	recs, sawSeal := 0, false
	for {
		n, p, err := frames.Next()
		switch {
		case err == errUnterminated:
			return recs, sawSeal, nil
		case err == io.EOF, err == nil && sawSeal:
			err = fmt.Errorf("%w: end marker or frame after the seal frame", ErrFormat)
		case err == nil && n == 0: // the seal frame: [epoch, bursts in segment]
			if sawSeal = len(p) == 16 && binary.LittleEndian.Uint64(p[8:]) == uint64(recs); !sawSeal {
				err = fmt.Errorf("%w: seal frame does not count the segment's %d bursts", ErrFormat, recs)
			}
		case err == nil:
			if err = applyBursts(p, n, words); err == nil {
				recs += int(n)
			}
		}
		if err != nil {
			return recs, sawSeal, err
		}
	}
}

// applyBursts applies a delta frame's n bursts [addr, count, words...].
func applyBursts(p []byte, n uint64, words *WordMap) error {
	for ; n > 0 && len(p) >= 16; n-- {
		addr, cnt := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
		if cnt == 0 || cnt > maxDeltaWords || addr&7 != 0 || uint64(len(p)-16) < 8*cnt {
			return fmt.Errorf("%w: implausible burst (addr %#x, %d words)", ErrFormat, addr, cnt)
		}
		for p = p[16:]; cnt > 0; cnt, addr, p = cnt-1, addr+8, p[8:] {
			words.Put(addr, binary.LittleEndian.Uint64(p))
		}
	}
	if n != 0 || len(p) != 0 {
		return fmt.Errorf("%w: delta frame does not hold exactly its bursts", ErrFormat)
	}
	return nil
}

// replayCheckpoint loads a base image into words, verifying the header,
// every frame, and the header's word count. Any mismatch is an error: a
// checkpoint is all-or-nothing, there is no older state underneath it.
func replayCheckpoint(fsys fault.FS, path string, words *WordMap) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	if err := readCheckpoint(f, words); err != nil {
		_ = f.Close() // the corruption is the error worth reporting
		return fmt.Errorf("mem: checkpoint %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// readCheckpoint decodes one checkpoint stream into words.
func readCheckpoint(r io.Reader, words *WordMap) error {
	h, err := ReadHeader(r, FileCkptMagic, FileFormatVersion, 4, 0, 0)
	if err != nil {
		return err
	}
	frames := NewFrameReader(r, FileCkptMagic)
	for got := uint64(0); ; {
		n, p, err := frames.Next()
		switch {
		case err == io.EOF && got != h[3]:
			return fmt.Errorf("%w: checkpoint holds %d words, header claims %d", ErrFormat, got, h[3])
		case err == io.EOF:
			if _, _, err := frames.Next(); err != errUnterminated {
				return fmt.Errorf("%w: bytes after the end marker", ErrFormat)
			}
			return nil
		case err != nil:
			return err
		case uint64(len(p)) != 16*n:
			return fmt.Errorf("%w: checkpoint frame of %d bytes claims %d pairs", ErrFormat, len(p), n)
		}
		for ; len(p) > 0; p = p[16:] {
			a := binary.LittleEndian.Uint64(p)
			if a&7 != 0 {
				return fmt.Errorf("%w: misaligned word address %#x", ErrFormat, a)
			}
			words.Put(a, binary.LittleEndian.Uint64(p[8:]))
		}
		got += n
	}
}

package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Checksummed encoding shared by every durable byte the repository
// writes: the OMC's commit/seal/genesis records inside a raw NVM image
// (ValidRecord), and one on-disk framing for TRC1 traces
// (internal/tracefile), the file plane's manifest, checkpoints and delta
// segments, and the snapshot archive (omc.Export). In little-endian words:
//
//	header record: [magic, version, fields..., RecordCheck(words)]
//	frame:         [len | recs<<32] payload[len] [FrameCheck]
//	end marker:    [0] [FrameCheck]
//
// The frame header word packs the payload byte length and a format-defined
// record count; the check is seeded per format, so a frame of one format
// never validates as another. Formats define only payloads.

// Typed decode errors: every framing failure wraps exactly one.
var (
	// ErrFormat marks structural corruption: a bad magic or version, an
	// out-of-range length, or a payload that does not decode.
	ErrFormat = errors.New("mem: malformed file")
	// ErrChecksum marks a header record or frame failing its check word.
	ErrChecksum = errors.New("mem: checksum mismatch")
	// ErrTruncated marks input that ends mid-header, mid-frame, or before
	// its end marker.
	ErrTruncated = errors.New("mem: truncated file")

	// errVersion marks a well-formed header of another format version.
	errVersion = fmt.Errorf("%w: unsupported format version", ErrFormat)
	// errUnterminated: the input ends at a frame boundary with no end
	// marker, which delta segments (they have none) read as a clean end.
	errUnterminated = fmt.Errorf("%w: no end marker", ErrTruncated)
)

// MaxFrameBytes and MaxFrameRecs bound a frame; a header word claiming
// more is corruption, not data.
const MaxFrameBytes, MaxFrameRecs = 1 << 20, 1 << 20

// mix64 is the splitmix64 finalizer: a cheap full-avalanche word mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PairMix combines two words into one avalanche-mixed digest word. It is
// the unit of record checksums, frame checks and table digests.
func PairMix(a, b uint64) uint64 {
	return mix64(a*0x9e3779b97f4a7c15 ^ mix64(b))
}

// RecordCheck folds a record's payload words into its trailing checksum.
func RecordCheck(words []uint64) uint64 {
	c := uint64(0x5245434b53554d31) // "RECKSUM1"
	for _, w := range words {
		c = PairMix(c, w)
	}
	return c
}

// ValidRecord reports whether a full record slot (checksum in the last
// word) is internally consistent and carries the expected magic.
func ValidRecord(words []uint64, magic uint64) bool {
	n := len(words)
	if n < 2 || words[0] != magic {
		return false
	}
	return words[n-1] == RecordCheck(words[:n-1])
}

// AppendWords appends words to dst little-endian.
func AppendWords(dst []byte, words ...uint64) []byte {
	dst = slices.Grow(dst, 8*len(words))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// AppendHeader appends a header record: words, then their RecordCheck.
func AppendHeader(dst []byte, words ...uint64) []byte {
	return binary.LittleEndian.AppendUint64(AppendWords(dst, words...), RecordCheck(words))
}

// ReadHeader reads a header record of n words, plus the number of extra
// words given by word extraAt (0: none) up to maxExtra, and returns it
// without its check word. Magic and version are checked before the
// checksum, so a file of another format or version is ErrFormat.
func ReadHeader(r io.Reader, magic, version uint64, n, extraAt int, maxExtra uint64) ([]uint64, error) {
	words, err := readWords(r, nil, n)
	switch {
	case err != nil:
		return nil, err
	case words[0] != magic:
		return nil, fmt.Errorf("%w: bad magic %#x", ErrFormat, words[0])
	case words[1] != version:
		return nil, fmt.Errorf("%w %d, reader supports %d", errVersion, words[1], version)
	case extraAt > 0 && words[extraAt] > maxExtra:
		return nil, fmt.Errorf("%w: %d extra header words exceed the %d-word bound", ErrFormat, words[extraAt], maxExtra)
	}
	if extraAt > 0 {
		n += int(words[extraAt])
	}
	if words, err = readWords(r, words, n+1-len(words)); err != nil {
		return nil, err
	}
	if words[n] != RecordCheck(words[:n]) {
		return nil, fmt.Errorf("%w: header", ErrChecksum)
	}
	return words[:n], nil
}

// readWords appends n words read from r to dst.
func readWords(r io.Reader, dst []uint64, n int) ([]uint64, error) {
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, readErr(err, "header")
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return dst, nil
}

// readErr types a failed io.ReadFull: running out of input is truncation,
// anything else an untyped I/O failure.
func readErr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: torn %s", ErrTruncated, what)
	}
	return fmt.Errorf("reading %s: %w", what, err)
}

// FrameCheck folds a frame's header word and payload, eight bytes at a
// time, into its check word. The final partial word is zero-padded; the
// header word carries the true length, so padding cannot alias.
func FrameCheck(seed, hdr uint64, payload []byte) uint64 {
	c := PairMix(seed, hdr)
	for ; len(payload) >= 8; payload = payload[8:] {
		c = PairMix(c, binary.LittleEndian.Uint64(payload))
	}
	if len(payload) > 0 {
		var w [8]byte
		copy(w[:], payload)
		c = PairMix(c, binary.LittleEndian.Uint64(w[:]))
	}
	return c
}

// AppendFrame appends a frame of recs records; recs 0 with no payload is
// the end marker.
func AppendFrame(dst []byte, seed, recs uint64, payload []byte) []byte {
	hdr := uint64(len(payload)) | recs<<32
	dst = append(binary.LittleEndian.AppendUint64(dst, hdr), payload...)
	return binary.LittleEndian.AppendUint64(dst, FrameCheck(seed, hdr, payload))
}

// FrameReader reads one format's frames, holding one frame in memory.
type FrameReader struct {
	r    io.Reader
	seed uint64
	buf  []byte
}

// NewFrameReader reads frames checked against seed from r.
func NewFrameReader(r io.Reader, seed uint64) *FrameReader {
	return &FrameReader{r: r, seed: seed}
}

// Next returns the next frame's record count and verified payload, valid
// until the next call. It returns io.EOF at the end marker, else a typed
// error: ErrTruncated for input ending mid-frame or without an end marker,
// ErrChecksum for a failed check word, ErrFormat for a header word
// claiming more than MaxFrameBytes or MaxFrameRecs.
func (fr *FrameReader) Next() (uint64, []byte, error) {
	var h [8]byte
	if n, err := io.ReadFull(fr.r, h[:]); n == 0 && err == io.EOF {
		return 0, nil, errUnterminated
	} else if err != nil {
		return 0, nil, readErr(err, "frame header")
	}
	hdr := binary.LittleEndian.Uint64(h[:])
	plen, recs := hdr&0xffffffff, hdr>>32
	if plen > MaxFrameBytes || recs > MaxFrameRecs {
		return 0, nil, fmt.Errorf("%w: frame claims %d payload bytes, %d records", ErrFormat, plen, recs)
	}
	if cap(fr.buf) < int(plen)+8 {
		fr.buf = make([]byte, plen+8)
	}
	fr.buf = fr.buf[:plen+8]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, readErr(err, "frame")
	}
	if binary.LittleEndian.Uint64(fr.buf[plen:]) != FrameCheck(fr.seed, hdr, fr.buf[:plen]) {
		return 0, nil, fmt.Errorf("%w: frame", ErrChecksum)
	}
	if hdr == 0 {
		return 0, nil, io.EOF
	}
	return recs, fr.buf[:plen], nil
}

package tracefile

import (
	"errors"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/trace"
)

// FuzzTraceFileRoundTrip drives the codec from both ends. The fuzzer's
// bytes are used twice per input:
//
//  1. as a synthetic access stream (decoded field-by-field from the raw
//     bytes) that must round-trip encode → decode exactly, and
//  2. as a raw candidate trace file fed straight to the Reader, which must
//     either decode cleanly or return one of the typed errors — never
//     panic, never loop, never hand back records from a damaged chunk.
func FuzzTraceFileRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	// A well-formed one-record trace, so the corpus starts with valid
	// structure for the mutator to damage.
	{
		fsys := fault.NewMemFS()
		w, err := Create(fsys, "seed.trc", Shape{Cores: 4, CoresPerVD: 2, LineSize: 64, Seed: 9})
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Append(trace.Access{Tid: 1, Addr: 1 << 30, Write: true, Data: 5}); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := fsys.ReadFile("seed.trc")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Leg 1: raw bytes as an access stream, round-tripped.
		var accs []trace.Access
		for b := raw; len(b) >= 10; b = b[10:] {
			a := trace.Access{
				Tid:   int(b[0]) % 8,
				Addr:  uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<24 | uint64(b[4])<<56,
				Write: b[5]&1 == 0,
			}
			if a.Write {
				a.Data = uint64(b[6]) | uint64(b[7])<<16 | uint64(b[8])<<40 | uint64(b[9])<<60
			}
			accs = append(accs, a)
		}
		fsys := fault.NewMemFS()
		shape := Shape{Cores: 8, CoresPerVD: 2, LineSize: 64, Seed: 7}
		w, err := Create(fsys, "t.trc", shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range accs {
			if err := w.Append(a); err != nil {
				t.Fatalf("append %+v: %v", a, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(fsys, "t.trc")
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		for i, want := range accs {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("record %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("trailing state = %v, want io.EOF", err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		// Leg 2: raw bytes as a candidate trace file.
		cand := fault.NewMemFS()
		cf, err := cand.Create("raw.trc")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cf.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := cf.Close(); err != nil {
			t.Fatal(err)
		}
		rr, err := OpenReader(cand, "raw.trc")
		if err != nil {
			requireTyped(t, err)
			return
		}
		for n := 0; ; n++ {
			if n > len(raw)+1 {
				t.Fatalf("decoder yielded more records than input bytes (%d)", n)
			}
			_, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				requireTyped(t, err)
				break
			}
		}
		if err := rr.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// requireTyped asserts a decode failure is one of the three typed error
// classes — the contract callers branch on.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, mem.ErrFormat) && !errors.Is(err, mem.ErrChecksum) && !errors.Is(err, mem.ErrTruncated) {
		t.Fatalf("untyped decode error: %v", err)
	}
}

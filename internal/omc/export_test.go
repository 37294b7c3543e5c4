package omc

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func exportGroup(t *testing.T) *Group {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	g := NewGroup(&cfg, mem.NewNVM(&cfg), 2, WithRetention())
	for e := uint64(1); e <= 3; e++ {
		for i := uint64(0); i < 10; i++ {
			g.ReceiveVersion(Version{Addr: i << 12, Epoch: e, Data: e*100 + i}, 0)
		}
	}
	g.Seal(0)
	return g
}

func TestExportImportRoundTrip(t *testing.T) {
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sf, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sf.RecEpoch != 3 {
		t.Fatalf("rec epoch = %d", sf.RecEpoch)
	}
	img, _ := g.RecoverImage()
	if len(sf.Master) != len(img) {
		t.Fatalf("master has %d lines, want %d", len(sf.Master), len(img))
	}
	for a, d := range img {
		if sf.Master[a] != d {
			t.Fatalf("master[%#x] = %d, want %d", a, sf.Master[a], d)
		}
	}
	if len(sf.Deltas) != 3 {
		t.Fatalf("deltas = %d", len(sf.Deltas))
	}
}

func TestSnapshotFileReadAt(t *testing.T) {
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sf, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(2 << 12)
	// Fall-through matches the live group's time-travel semantics.
	for epoch := uint64(1); epoch <= 3; epoch++ {
		want, _, ok := g.TimeTravelRead(addr, epoch)
		got, gok := sf.ReadAt(addr, epoch)
		if ok != gok || got != want {
			t.Fatalf("epoch %d: archive %d,%v vs live %d,%v", epoch, got, gok, want, ok)
		}
	}
	if _, ok := sf.ReadAt(0xDEAD000, 3); ok {
		t.Fatal("phantom address resolved")
	}
	// Reads beyond the newest delta fall back to the master image.
	if d, ok := sf.ReadAt(addr, 99); !ok || d != 302 {
		t.Fatalf("future read = %d,%v", d, ok)
	}
}

func TestImportRejectsCorruptInput(t *testing.T) {
	if _, err := Import(strings.NewReader("notasnapshot")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Import(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncated archive.
	if _, err := Import(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated archive accepted")
	}
	// A byte flipped mid-archive fails its frame's check.
	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[len(flipped)/2] ^= 0x04
	if _, err := Import(bytes.NewReader(flipped)); !errors.Is(err, mem.ErrChecksum) {
		t.Fatalf("flipped byte: error %v, want mem.ErrChecksum", err)
	}
	// A cut inside the last frame (its check word) is a torn tail.
	if _, err := Import(bytes.NewReader(buf.Bytes()[:buf.Len()-20])); !errors.Is(err, mem.ErrTruncated) {
		t.Fatalf("cut inside a frame: error %v, want mem.ErrTruncated", err)
	}
}

func TestExportDeterministic(t *testing.T) {
	g := exportGroup(t)
	var a, b bytes.Buffer
	if err := g.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export is not deterministic")
	}
}

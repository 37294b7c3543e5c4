package mem

import (
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// dirDamageKinds is LoadDirFS's damage vocabulary.
var dirDamageKinds = map[string]bool{
	"store-missing": true, "stale-temp": true,
	"manifest-missing": true, "manifest-unreadable": true, "manifest-corrupt": true, "manifest-version": true,
	"checkpoint-missing": true, "checkpoint-corrupt": true,
	"segment-missing": true, "segment-torn": true, "segment-unsealed": true, "active-torn": true,
}

// FuzzLoadDir feeds arbitrary bytes as the base checkpoint, the sealed
// delta segment and the active segment of a store whose manifest is valid.
// LoadDirFS must never panic: it returns an image, or refuses with a named
// fatal kind, and every finding it reports is a known damage kind.
func FuzzLoadDir(f *testing.F) {
	// A real store: checkpoints every 2 seals, so after 3 seals the
	// manifest names checkpoint 1 and sealed segment 2; segment 3 is the
	// active one.
	mfs := fault.NewMemFS()
	p, err := OpenFilePlaneFS(mfs, "store", 2)
	if err != nil {
		f.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		applyBurst(p, e, 40)
		p.SealEpoch(e)
	}
	applyBurst(p, 4, 3)
	if err := p.Close(); err != nil {
		f.Fatal(err)
	}
	names := []string{CheckpointFileName(1), DeltaFileName(2), DeltaFileName(3), manifestName}
	files := make([][]byte, len(names))
	for i, name := range names {
		if files[i], err = mfs.ReadFile(filepath.Join("store", name)); err != nil {
			f.Fatal(err)
		}
	}
	manifest := files[3]
	f.Add(files[0], files[1], files[2])
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(files[0][:len(files[0])/2], files[1][:len(files[1])-11], append(files[2], 0xff))

	f.Fuzz(func(t *testing.T, ckpt, sealed, active []byte) {
		fsys := fault.NewMemFS()
		if err := fsys.MkdirAll("store"); err != nil {
			t.Fatal(err)
		}
		for i, b := range [][]byte{ckpt, sealed, active, manifest} {
			w, err := fsys.Create(filepath.Join("store", names[i]))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		img, rep, err := LoadDirFS(fsys, "store")
		if (err != nil) != (img == nil) || (err != nil) != (rep.Fatal != "") {
			t.Fatalf("error %v, image %v, fatal %q: want an image or a fatal refusal", err, img != nil, rep.Fatal)
		}
		if rep.Fatal != "" && !dirDamageKinds[rep.Fatal] {
			t.Fatalf("unknown fatal kind %q", rep.Fatal)
		}
		for _, d := range rep.Damage {
			if !dirDamageKinds[d.Kind] {
				t.Fatalf("unknown damage kind %q", d.Kind)
			}
		}
	})
}

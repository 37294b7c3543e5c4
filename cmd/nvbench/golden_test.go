package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenArgs is the figure-suite invocation the committed golden output
// was produced with. Output is byte-identical for every -j.
var goldenArgs = []string{"-exp", "all", "-scale", "smoke", "-j", "2", "-time=false"}

// TestSmokeFiguresGolden regenerates every paper figure at smoke scale and
// requires the output to match the committed golden file byte for byte,
// so no figure number can move without the golden file changing in the
// same commit.
func TestSmokeFiguresGolden(t *testing.T) {
	golden := filepath.Join("testdata", "smoke_all.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags(goldenArgs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(o, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	t.Fatalf("smoke figure output differs from %s:\n%s\nIf the change is intended, explain it in CHANGES.md and regenerate:\n  go run ./cmd/nvbench %s > cmd/nvbench/%s",
		golden, firstDiffs(string(want), got.String(), 8), strings.Join(goldenArgs, " "), golden)
}

// firstDiffs renders up to limit differing lines of two texts, by line
// number, as want/got pairs.
func firstDiffs(want, got string, limit int) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if n == limit {
			b.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&b, "  line %d\n    want: %q\n    got:  %q\n", i+1, wl, gl)
		n++
	}
	return b.String()
}

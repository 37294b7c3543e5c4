package recovery_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/soak"
)

// TestMain routes the re-exec: when the soak parent spawns this test
// binary with the child environment set, it becomes the deterministic
// store writer instead of running the test suite.
func TestMain(m *testing.M) {
	if soak.IsChild() {
		os.Exit(soak.ChildMain())
	}
	os.Exit(m.Run())
}

// killGrid is the milestone-index grid the soak kills at. The early
// indices land before any durability was promised (justified refusals),
// the middle of the grid lands on segment-sync/manifest-rename
// boundaries, and the tail lands deep in the run after checkpoints have
// been written and old segments compacted away.
var killGrid = []int{0, 1, 2, 4, 6, 9, 13, 18, 24, 31, 45}

var soakSeeds = []int64{1, 2, 3}

// TestCrashRestartSoak is the real thing: a child process writes a
// file-backed store, the parent SIGKILLs it parked on a seeded milestone,
// and a cold salvage of the directory must either restore an epoch at
// least as new as every fully-acknowledged manifest rename — matching the
// golden model byte-for-byte — or refuse with findings when nothing was
// durable yet.
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child writer processes")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	for _, seed := range soakSeeds {
		for _, killAt := range killGrid {
			t.Run(fmt.Sprintf("seed%d_kill%02d", seed, killAt), func(t *testing.T) {
				t.Parallel()
				dir := filepath.Join(t.TempDir(), "store")
				p := soak.DefaultParams(dir, seed)
				res, err := soak.Run(bin, nil, p, killAt)
				if err != nil {
					t.Fatalf("soak run: %v", err)
				}
				if !res.Killed {
					t.Fatalf("kill index %d not reached (%d milestones)", killAt, res.Milestones)
				}
				rep, err := soak.CheckDirFS(fault.OS, dir, res.DurableEpoch, soak.Golden(p))
				if err != nil {
					if rep != nil {
						if js, jerr := rep.JSON(); jerr == nil {
							t.Logf("salvage report:\n%s", js)
						}
					}
					t.Fatalf("killed at %d (%s, epoch %d), durable %d: %v",
						res.KillIndex, res.KillPoint, res.KillEpoch, res.DurableEpoch, err)
				}
			})
		}
	}
}

// TestCrashSoakCompletes is the control case: an unkilled child finishes,
// every epoch's seal is acknowledged by all members, and cold salvage
// restores exactly the final epoch.
func TestCrashSoakCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child writer process")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	p := soak.DefaultParams(dir, 99)
	res, err := soak.Run(bin, nil, p, 1<<30)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if res.Killed {
		t.Fatal("control run was killed")
	}
	if res.DurableEpoch != uint64(p.Epochs) {
		t.Fatalf("durable epoch %d, want %d", res.DurableEpoch, p.Epochs)
	}
	// The kill grid must fit inside the run with margin: every index is a
	// real boundary, not a no-op past the end.
	if max := killGrid[len(killGrid)-1]; res.Milestones <= max {
		t.Fatalf("run has %d milestones, kill grid reaches %d", res.Milestones, max)
	}
	rep, err := soak.CheckDirFS(fault.OS, dir, res.DurableEpoch, soak.Golden(p))
	if err != nil {
		t.Fatalf("salvage after clean run: %v", err)
	}
	if rep.RestoredEpoch != uint64(p.Epochs) {
		t.Fatalf("restored epoch %d, want %d", rep.RestoredEpoch, p.Epochs)
	}
}

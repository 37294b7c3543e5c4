package diffcheck

import (
	"reflect"
	"testing"

	"repro/internal/fault"
)

// TestFaultGrid is the acceptance grid: every fault class x seed x crash
// point must satisfy the salvage-or-refuse contract with zero silent
// corruptions. Loose shape assertions on top make sure the grid actually
// exercises both outcomes rather than degenerating into all-clean runs.
func TestFaultGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("fault grid is a long test")
	}
	seeds := []int64{1, 2, 3, 4}
	perClass := make(map[string]int)
	perClassDirty := make(map[string]int)
	perClassClean := make(map[string]int)
	for _, class := range fault.Classes {
		for _, seed := range seeds {
			p := FaultRegimeParams(class, seed)
			res, d := RunFaulted(p, 1, nil)
			if d != nil {
				t.Fatalf("class=%s seed=%d: %s at step %d: %s\n  reproduce: %s",
					class, seed, d.Kind, d.Step, d.Detail, p.FlagString())
			}
			if len(res.Points) != p.CrashPoints+1 {
				t.Fatalf("class=%s seed=%d: %d points, want %d",
					class, seed, len(res.Points), p.CrashPoints+1)
			}
			perClass[class] += res.Events
			perClassDirty[class] += res.WalkedBack + res.Refusals
			perClassClean[class] += res.Restored
			if res.Restored+res.WalkedBack+res.Refusals != len(res.Points) {
				t.Fatalf("class=%s seed=%d: tally mismatch %+v", class, seed, res)
			}
		}
	}
	for _, class := range fault.Classes {
		if perClass[class] == 0 {
			t.Errorf("class=%s: zero faults injected across the grid", class)
		}
		if perClassClean[class] == 0 {
			t.Errorf("class=%s: no cell across the grid restored its claimed epoch cleanly", class)
		}
		// Torn/lost in-flight state beyond the commit point is survivable
		// cleanly, so not every seed forces a walk-back — but across four
		// seeds each destructive class must hurt at least once. NAKs only
		// add latency unless the (rare) retry budget is exhausted.
		if class != "nak" && perClassDirty[class] == 0 {
			t.Errorf("class=%s: faults never forced a walk-back or refusal across the grid", class)
		}
	}
}

// TestFaultReplayDeterminism proves the headline robustness claim: the same
// Params replay the same fault schedule byte-for-byte and reach identical
// salvage outcomes.
func TestFaultReplayDeterminism(t *testing.T) {
	p := FaultRegimeParams("all", 7)
	a, d1 := RunFaulted(p, 1, nil)
	b, d2 := RunFaulted(p, 1, nil)
	if d1 != nil || d2 != nil {
		t.Fatalf("unexpected divergence: %v / %v", d1, d2)
	}
	if a.Schedule == "" {
		t.Fatal("empty fault schedule: injector never fired")
	}
	if a.Schedule != b.Schedule {
		t.Fatalf("fault schedule not byte-identical across replays:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			a.Schedule, b.Schedule)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("salvage outcomes differ across replays:\n%+v\n%+v", a.Points, b.Points)
	}
}

// TestFaultFreeSweep checks the degenerate grid cell: with no fault class
// configured every power cut still loses in-flight queue contents, so
// salvage must restore or walk back — never corrupt — and no fault events
// may be recorded.
func TestFaultFreeSweep(t *testing.T) {
	p := FaultRegimeParams("", 11)
	res, d := RunFaulted(p, 1, nil)
	if d != nil {
		t.Fatalf("%s at step %d: %s\n  reproduce: %s", d.Kind, d.Step, d.Detail, p.FlagString())
	}
	if res.Events != 0 {
		t.Fatalf("fault-free sweep recorded %d fault events", res.Events)
	}
	if res.Restored == 0 {
		t.Fatal("fault-free sweep never restored cleanly")
	}
}

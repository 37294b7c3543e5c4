package diffcheck

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// FaultPoint is the outcome of one (trace prefix, power cut) cell of the
// fault grid.
type FaultPoint struct {
	Step          int    // trace step at which power was cut
	RestoredEpoch uint64 // epoch salvage proved (0 on refusal)
	WalkedBack    bool   // restored below the claimed epoch
	Refused       bool   // typed-error refusal
	Err           string // typed error text ("" on success)
	Lines         int    // lines in the restored image
	Events        int    // faults injected during this cell
}

// FaultResult aggregates one fault-sweep run: every crash point of the
// trace cut under the configured fault class, salvaged, and cross-checked
// against the golden model.
type FaultResult struct {
	Params     Params
	Points     []FaultPoint
	Restored   int // cells restoring the claimed epoch cleanly
	WalkedBack int // cells that salvaged an older sealed epoch
	Refusals   int // cells refusing with a typed error
	Events     int // total faults injected across cells
	// Schedule is the concatenated canonical fault schedule of every
	// cell. Byte-identical across replays of the same Params.
	Schedule string
}

// faultCuts returns the power-cut schedule: every swept crash point plus
// the full trace length (cut after the final drain-less step).
func faultCuts(p Params) []int {
	cuts := make([]int, 0, p.CrashPoints+1)
	for i := 1; i <= p.CrashPoints; i++ {
		cuts = append(cuts, i*p.Steps/(p.CrashPoints+1))
	}
	return append(cuts, p.Steps)
}

// RunFaulted sweeps power cuts across the trace under the configured fault
// class, with the crash-point cells fanned over jobs workers. Every cell
// must satisfy the salvage-or-refuse contract; the first violation is
// returned as a Divergence with a deterministic reproducer. Each cell
// replays its own trace prefix from the shared Params (no mutable state
// crosses cells) and results merge in cut order, so the aggregate —
// including the concatenated Schedule string and which Divergence is
// reported first — is byte-identical for every jobs value.
//
// A non-nil bus narrates every cell's replay, injected faults and salvage
// decisions on the one stream. The cells then run serially so the stream
// is in cut order (and byte-identical across replays); the verdict is the
// same as without a bus.
func RunFaulted(p Params, jobs int, bus *obs.Bus) (FaultResult, *Divergence) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if bus != nil {
		jobs = 1 // cells share the bus; serialise so the stream stays canonical
	}
	cuts := faultCuts(p)
	res := FaultResult{Params: p}
	var sched strings.Builder
	type cell struct {
		pt    FaultPoint
		sched string
		d     *Divergence
	}
	var firstDiv *Divergence
	parallel.ForEachOrdered(jobs, len(cuts), func(i int) cell {
		pt, cellSched, d := RunFaultPoint(p, cuts[i], nil, bus)
		return cell{pt, cellSched, d}
	}, func(i int, c cell) bool {
		if c.d != nil {
			firstDiv = c.d
			return false
		}
		res.Points = append(res.Points, c.pt)
		res.Events += c.pt.Events
		switch {
		case c.pt.Refused:
			res.Refusals++
		case c.pt.WalkedBack:
			res.WalkedBack++
		default:
			res.Restored++
		}
		fmt.Fprintf(&sched, "# cut=%d\n%s\n", cuts[i], c.sched)
		return true
	})
	if firstDiv != nil {
		return res, firstDiv
	}
	res.Schedule = sched.String()
	return res, nil
}

// RunFaultPoint replays the first cut steps, cuts power under the fault
// injector, optionally mutates the surviving image further (the fuzz
// harness's hook), and salvages. The contract it enforces is the sweep's
// acceptance bar: salvage either restores an image byte-equal to the
// golden model at exactly its reported epoch, or refuses with a typed
// error and a non-empty report — never a silently wrong image. A non-nil
// bus receives the replay's emissions, the injector's faults and the
// salvage decisions on the one stream.
func RunFaultPoint(p Params, cut int, mutate func(*mem.Image), bus *obs.Bus) (FaultPoint, string, *Divergence) {
	cfg := p.Config()
	cfg.Obs = bus
	ops := p.Ops()[:cut]
	nv := core.New(&cfg, core.WithRetention(), core.WithOMCs(p.OMCs))
	clocks := sim.NewClocks(cfg.Cores)
	nv.Bind(clocks)
	g := NewGolden()
	div := func(kind string, format string, args ...interface{}) *Divergence {
		return &Divergence{Params: p, Scheme: "NVOverlay+fault", Kind: kind, Step: cut - 1,
			Detail: fmt.Sprintf(format, args...)}
	}
	for i, op := range ops {
		lat := nv.Access(op.Tid, op.Addr, op.Write, op.Data)
		clocks.Advance(op.Tid, lat+pipelineCost)
		if op.Write {
			oid := nv.LastStoreOID()
			if oid == 0 {
				return FaultPoint{}, "", div("store-oid", "store to %#x was assigned no epoch tag at step %d", op.Addr, i)
			}
			if err := g.Store(i, cfg.LineAddr(op.Addr), oid, op.Data); err != nil {
				return FaultPoint{}, "", div("epoch-monotonicity", "%v", err)
			}
		}
	}
	img := nv.PowerCut(clocks.Max())
	if mutate != nil {
		mutate(img)
	}
	pt := FaultPoint{Step: cut}
	sched := ""
	if inj := nv.Injector(); inj != nil {
		pt.Events = inj.Total()
		sched = inj.Schedule()
	}
	restored, rep, err := recovery.SalvageObserved(img, bus)
	if err != nil {
		if !errors.Is(err, recovery.ErrTornEpoch) &&
			!errors.Is(err, recovery.ErrChecksum) &&
			!errors.Is(err, recovery.ErrUnrecoverable) {
			return pt, sched, div("untyped-error", "salvage failed with untyped error: %v", err)
		}
		if !rep.NonEmpty() || !rep.Refused {
			return pt, sched, div("empty-salvage-report", "refusal without findings: %v", err)
		}
		pt.Refused = true
		pt.Err = err.Error()
		return pt, sched, nil
	}
	if rep == nil {
		return pt, sched, div("missing-salvage-report", "salvage succeeded without a report")
	}
	want := g.ImageAt(rep.RestoredEpoch)
	if verr := recovery.Verify(restored, want); verr != nil {
		return pt, sched, div("silent-corruption",
			"salvaged image claims epoch %d (walked_back=%v) but diverges from golden: %v\n  %s",
			rep.RestoredEpoch, rep.WalkedBack, verr, diffImages(restored, want))
	}
	pt.RestoredEpoch = rep.RestoredEpoch
	pt.WalkedBack = rep.WalkedBack
	pt.Lines = rep.LinesRestored
	return pt, sched, nil
}

// FaultRegimeParams is the canonical compact trace of the fault grid: big
// enough to seal multiple epochs per partition and keep bank queues busy,
// small enough that a 4-class x 8-cut x 4-seed grid runs inside the test
// budget.
func FaultRegimeParams(class string, seed int64) Params {
	return Params{
		Seed:        seed,
		Cores:       4,
		CoresPerVD:  2,
		Steps:       600,
		Lines:       48,
		SharePct:    30,
		WritePct:    60,
		EpochSize:   12,
		Pattern:     PatternUniform,
		Walker:      true,
		OMCs:        2,
		CrashPoints: 8,
		Fault:       class,
	}
}

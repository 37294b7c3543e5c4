package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// cellSpec is one (scheme, workload, machine) simulation of a round.
type cellSpec struct {
	scheme   string
	workload string    // live generator; empty for a replay cell
	record   *cellSpec // a replay cell's stream, recorded to a TRC1 trace during set-up
	accesses uint64
	epoch    int  // stores per epoch
	cores    int  // 0: the 16-core quick Table II machine
	durable  bool // back the NVM content plane with a FilePlane on fault.MemFS
}

func (c cellSpec) name() string {
	if c.record != nil {
		return c.record.workload + "-replay/" + c.scheme
	}
	return c.workload + "/" + c.scheme
}

// config builds the cell's machine: sim.DefaultConfig shrunk by the quick
// scale's Machine hook, grown to c.cores with the scale256 recipe
// (constant per-core pressure, one core per versioned domain).
func (c cellSpec) config(seed int64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.EpochSize = c.epoch
	cfg.Seed = seed
	experiments.Quick.Machine(&cfg)
	if c.cores > 0 {
		base := cfg
		cfg.Cores = c.cores
		cfg.CoresPerVD = 1
		cfg.LLCSlices = c.cores / 2
		cfg.LLCSize = base.LLCSize / 16 * c.cores
		cfg.NVMBanks = max(2, base.NVMBanks/16*c.cores)
		cfg.OMCs = c.cores / 4
	}
	return cfg
}

// benchWorkload is one benchmark workload: a fixed list of cells run
// serially, closed-loop, as one round; rounds repeat until time is up.
type benchWorkload struct {
	name   string
	window uint64 // simulated accesses per latency window
	// windowScheme, when set, limits latency windows to that scheme's
	// cells, so window percentiles do not straddle two cell populations
	// of equal size.
	windowScheme string
	cells        []cellSpec
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each was chosen and metrics.go which layer numbers each should move.
// Each repeats its cells over several inputs so that one run's numbers
// average over inputs rather than hang on one seed's quirks.
var workloads = []benchWorkload{
	{
		// Baseline coherence+cache and live workload generation dominate;
		// kmeans makes almost no NVM traffic.
		name:   "paper16",
		window: 100_000,
		cells:  paper16Cells(),
	},
	{
		// High-frequency snapshotting: OMC version intake and merge and the
		// mem plane dominate; the workload layer does no work.
		name:   "hotwrite-replay",
		window: 25_000,
		cells: repeat(3, cellSpec{scheme: "NVOverlay", accesses: 200_000, epoch: 1_500,
			record: &cellSpec{scheme: "Ideal", workload: "hashtable", accesses: 200_000, epoch: 1_500}}),
	},
	{
		// The only load where the 256-thread clock argmin, multi-word
		// SharerSet and the 256-VD min-ver ledger matter; 200-store epochs
		// give every versioned domain several epoch boundaries.
		name:         "scale256",
		window:       20_000,
		windowScheme: "NVOverlay",
		cells: repeat(3,
			cellSpec{scheme: "Ideal", workload: "social", accesses: 100_000, epoch: 200, cores: 256},
			cellSpec{scheme: "NVOverlay", workload: "social", accesses: 100_000, epoch: 200, cores: 256}),
	},
	{
		// The on-disk format is written (seals, checkpoints) and read
		// (cold salvage); MemFS keeps host fsync noise out. A latency window
		// is a whole cell: shorter windows split into modes by how many
		// checkpoints they happen to contain.
		name:   "durable-store",
		window: 200_000,
		cells:  repeat(3, cellSpec{scheme: "NVOverlay", workload: "btree", accesses: 200_000, epoch: 3_000, durable: true}),
	},
}

var paperSchemes = []string{"Ideal", "SWLog", "SWShadow", "HWShadow", "PiCL", "PiCL-L2", "NVOverlay"}

func paper16Cells() []cellSpec {
	var cells []cellSpec
	for _, wl := range []string{"btree", "kmeans"} {
		for _, s := range paperSchemes {
			cells = append(cells, cellSpec{scheme: s, workload: wl, accesses: 300_000, epoch: experiments.Quick.EpochSize})
		}
	}
	return cells
}

// shrunk divides the workload's access budgets, epoch lengths and window
// by n, keeping the number of epochs per cell; tests run at this size.
func (w benchWorkload) shrunk(n uint64) benchWorkload {
	div := func(c cellSpec) cellSpec {
		c.accesses = max(1, c.accesses/n)
		c.epoch = max(1, c.epoch/int(n))
		return c
	}
	w.window = max(1, w.window/n)
	w.cells = append([]cellSpec(nil), w.cells...)
	for i, c := range w.cells {
		if c.record != nil {
			rec := div(*c.record)
			c.record = &rec
		}
		w.cells[i] = div(c)
	}
	return w
}

// repeat lists cells n times; each copy runs on its own input.
func repeat(n int, cells ...cellSpec) []cellSpec {
	var out []cellSpec
	for i := 0; i < n; i++ {
		out = append(out, cells...)
	}
	return out
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

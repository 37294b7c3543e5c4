package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// options configures one benchmark run.
type options struct {
	workload  string
	seed      int64
	seconds   float64 // length of the measured phase
	traced    bool    // alternate untraced and traced rounds; report per-layer metrics
	minRounds int     // rounds of each kind run even past the deadline
	shrink    uint64  // scales every cell down by this factor (tests run at tiny size)
}

// roundStats is what one round measured on the host.
type roundStats struct {
	traced   bool
	setup    time.Duration // cell construction, workload Setup, trace recording
	run      time.Duration // Driver.Run/RunReplay minus workload Setup
	recover  time.Duration // recovery of every NVOverlay cell's consistent image
	accesses uint64
	mallocs  uint64
	bytes    uint64
	gcs      uint32
}

// roundCounts are the simulated outputs of one round that metrics are
// derived from. Rounds are identical (the digest check enforces it), so
// the first untraced round's counts stand for all of them.
type roundCounts struct {
	accesses        uint64
	ops             uint64 // workload operations of live cells
	liveAccesses    uint64
	overlayAccesses uint64
	overlayStores   uint64
	overlayCycles   uint64
	overlayNVMBytes int64
	durableStores   uint64
	recordRecords   uint64
	recordBytes     int64
	all             *stats.Set // counters of every cell
	overlay         *stats.Set // counters of NVOverlay cells
}

// recording is a replay cell's trace, recorded during the cell's set-up.
type recording struct {
	fs      *fault.MemFS
	records uint64
	bytes   int64
}

const (
	tracePath = "hotwrite.trc"
	storeDir  = "store"
	// cellSeeds spaces the workload seeds of different runs: cell i of a
	// round runs on input seed*cellSeeds+i, so a round averages over as
	// many inputs as it has cells and every round repeats the same inputs.
	cellSeeds = 64
)

type runner struct {
	opts options
	wl   benchWorkload
	out  io.Writer

	ref       []string // cell digests of the first untraced round
	counts    roundCounts
	attempted int
	failed    int
	rounds    []roundStats
	windows   []time.Duration
	tr        *tracer

	// finalMismatch lists the reference round's NVOverlay cells whose
	// recovered image is not the run's final write state. After Drain it
	// should be (core's end-to-end test asserts it), but some inputs break
	// it in the program itself; the run reports them instead of counting
	// them failed, so the benchmark stays usable until that is fixed.
	finalMismatch []string
}

func newRunner(opts options, out io.Writer) (*runner, error) {
	wl, err := findWorkload(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.shrink > 1 {
		wl = wl.shrunk(opts.shrink)
	}
	if opts.minRounds < 1 {
		opts.minRounds = 1
	}
	return &runner{opts: opts, wl: wl, out: out, tr: newTracer()}, nil
}

// run repeats rounds until the measured phase has lasted opts.seconds and
// at least opts.minRounds rounds of each kind ran. The first round is
// always untraced: its digests are the reference every later round,
// traced or not, must reproduce.
func (r *runner) run() {
	start := time.Now()
	for i := 0; ; i++ {
		traced := r.opts.traced && i%2 == 1
		r.rounds = append(r.rounds, r.round(traced))
		untraced, traced2 := r.roundCount(false), r.roundCount(true)
		enough := untraced >= r.opts.minRounds && (!r.opts.traced || traced2 >= r.opts.minRounds)
		if enough && time.Since(start).Seconds() >= r.opts.seconds {
			return
		}
	}
}

func (r *runner) roundCount(traced bool) int {
	n := 0
	for _, rs := range r.rounds {
		if rs.traced == traced {
			n++
		}
	}
	return n
}

func (r *runner) round(traced bool) roundStats {
	rs := roundStats{traced: traced}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	gc0 := readMem().NumGC
	first := r.ref == nil
	digests := make([]string, len(r.wl.cells))
	for i, c := range r.wl.cells {
		r.attempted++
		res, err := r.runCell(c, r.opts.seed*cellSeeds+int64(i), tr, &rs)
		if err == nil && !first && res.digest != r.ref[i] {
			err = fmt.Errorf("simulated outputs differ from the first untraced round: digest %s, want %s", res.digest, r.ref[i])
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(r.out, "FAIL round %d cell %s: %v\n", len(r.rounds), c.name(), err)
			continue
		}
		digests[i] = res.digest
		if first {
			r.count(c, res)
		}
	}
	if first {
		r.ref = digests
	}
	rs.gcs = readMem().NumGC - gc0
	return rs
}

// record runs a replay cell's recording cell with a tracefile.Writer sink
// on a fresh in-memory filesystem. It is part of the replay cell's set-up
// and is not traced.
func (r *runner) record(c cellSpec, seed int64) (*recording, error) {
	cfg := c.config(seed)
	s, err := experiments.NewScheme(c.scheme, &cfg)
	if err != nil {
		return nil, err
	}
	wl, err := workload.Get(c.workload)
	if err != nil {
		return nil, err
	}
	fsys := fault.NewMemFS()
	w, err := tracefile.Create(fsys, tracePath, tracefile.Shape{
		Cores: cfg.Cores, CoresPerVD: cfg.CoresPerVD, LineSize: cfg.LineSize, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	d := trace.NewDriver(&cfg, s, wl, c.accesses)
	d.SetSink(w)
	sum := d.Run()
	if err := d.SinkErr(); err != nil {
		_ = w.Close() // the sink error is the one to report
		return nil, fmt.Errorf("recording: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("recording: %w", err)
	}
	if w.Records() != sum.Accesses {
		return nil, fmt.Errorf("recording holds %d records, driver issued %d", w.Records(), sum.Accesses)
	}
	return &recording{fs: fsys, records: w.Records(), bytes: w.Bytes()}, nil
}

type cellResult struct {
	sum    trace.Summary
	stats  *stats.Set
	digest string
	rec    *recording // the replayed recording, nil for live cells
}

// runCell builds, runs, checks and digests one cell. A returned error is a
// failed output check or a cell that could not run.
func (r *runner) runCell(c cellSpec, seed int64, tr *tracer, rs *roundStats) (cellResult, error) {
	traced := tr != nil
	if traced {
		defer tr.end(tr.begin("cell " + c.name()))
	}

	// Set-up: recording, machine, scheme, durable plane, workload, driver,
	// reader.
	start := time.Now()
	setupSpan := -1
	if traced {
		setupSpan = tr.begin("setup")
	}
	var rec *recording
	if c.record != nil {
		var err error
		if rec, err = r.record(*c.record, seed); err != nil {
			return cellResult{}, err
		}
	}
	cfg := c.config(seed)
	if err := cfg.Validate(); err != nil {
		return cellResult{}, err
	}
	var s trace.Scheme
	if traced && c.scheme == "NVOverlay" {
		s = newTracedOverlay(&cfg, tr)
	} else {
		var err error
		if s, err = experiments.NewScheme(c.scheme, &cfg); err != nil {
			return cellResult{}, err
		}
	}
	var store *fault.MemFS
	var plane mem.DurablePlane
	switch {
	case c.durable:
		store = fault.NewMemFS()
		var fsys fault.FS = store
		if traced {
			fsys = tracedFS{FS: store, tr: tr}
		}
		fp, err := mem.OpenFilePlaneFS(fsys, storeDir, cfg.CheckpointEvery)
		if err != nil {
			return cellResult{}, err
		}
		plane = fp
	case traced && c.scheme == "NVOverlay":
		plane = mem.NewRAMPlane()
	}
	if plane != nil {
		if traced {
			plane = tracedPlane{DurablePlane: plane, tr: tr}
		}
		s.NVM().AttachPlane(plane)
	}
	var driven trace.Scheme
	if traced {
		layer := lBaseline
		if c.scheme == "NVOverlay" {
			layer = lCST
		}
		driven = &tracedScheme{Scheme: s, tr: tr, layer: layer}
	} else if r.wl.windowScheme == "" || r.wl.windowScheme == c.scheme {
		driven = &meteredScheme{Scheme: s, window: r.wl.window, windows: &r.windows}
	} else {
		driven = s
	}
	var wl *timedWorkload
	var gen trace.Workload
	if c.workload != "" {
		w, err := workload.Get(c.workload)
		if err != nil {
			return cellResult{}, err
		}
		wl = &timedWorkload{Workload: w, tr: tr}
		gen = wl
	}
	d := trace.NewDriver(&cfg, driven, gen, c.accesses)
	var reader *tracefile.Reader
	if rec != nil {
		var err error
		if reader, err = tracefile.OpenReader(rec.fs, tracePath); err != nil {
			return cellResult{}, err
		}
	}
	if traced {
		tr.end(setupSpan)
	}
	rs.setup += time.Since(start)

	// Measured simulation.
	m0 := readMem()
	start = time.Now()
	if traced {
		tr.enter(lDriver)
	}
	var sum trace.Summary
	var runErr error
	if reader == nil {
		sum = d.Run()
	} else {
		var src trace.Source = reader
		if traced {
			src = tracedSource{src: reader, tr: tr}
		}
		sum, runErr = d.RunReplay(src)
	}
	if traced {
		tr.exit()
	}
	elapsed := time.Since(start)
	m1 := readMem()
	var ws setupCost
	if wl != nil {
		ws = wl.setup
	}
	rs.run += elapsed - ws.dur
	rs.setup += ws.dur
	rs.mallocs += m1.Mallocs - m0.Mallocs - ws.mallocs
	rs.bytes += m1.TotalAlloc - m0.TotalAlloc - ws.byts
	rs.accesses += sum.Accesses

	// Output checks.
	if runErr != nil {
		return cellResult{}, fmt.Errorf("replay: %w", runErr)
	}
	if reader != nil {
		if err := reader.Close(); err != nil {
			return cellResult{}, fmt.Errorf("replay reader: %w", err)
		}
		if sum.Accesses != rec.records || reader.Records() != rec.records {
			return cellResult{}, fmt.Errorf("replayed %d accesses (reader decoded %d), recorded %d", sum.Accesses, reader.Records(), rec.records)
		}
	}
	if ov, ok := s.(overlay); ok {
		if err := ov.Frontend().CheckInvariants(); err != nil {
			return cellResult{}, err
		}
		img, err := r.recover(ov, s.NVM(), store, tr, rs)
		if err != nil {
			return cellResult{}, err
		}
		if r.ref == nil && recovery.Verify(img, sum.Final) != nil {
			r.finalMismatch = append(r.finalMismatch, fmt.Sprintf("%s@%d", c.name(), seed))
		}
	}
	st := s.Stats()
	return cellResult{sum: sum, stats: st, digest: cellDigest(sum, st), rec: rec}, nil
}

// recoverReps is how often each cell's recovery is repeated; recover_s
// takes the median, so one GC pause does not decide it.
const recoverReps = 3

// recover rebuilds the NVOverlay cell's consistent image recoverReps times
// and adds the median time to recover_s. A cell over a FilePlane is
// salvaged cold from its store directory, the way a restarted process
// would, and must restore exactly what salvaging the run's persisted plane
// in process gives, at the group's recoverable epoch; the others recover
// from the OMC master tables (recovery.Recover, the paper's crash-recovery
// procedure). It returns the recovered image.
func (r *runner) recover(ov overlay, nvm *mem.NVM, store *fault.MemFS, tr *tracer, rs *roundStats) (map[uint64]uint64, error) {
	want := ov.Group().RecEpoch()
	var persisted map[uint64]uint64
	if store != nil {
		if err := nvm.ClosePlane(); err != nil {
			return nil, fmt.Errorf("closing the durable plane: %w", err)
		}
		img, rep, err := recovery.Salvage(nvm.Image())
		if err != nil {
			return nil, fmt.Errorf("salvaging the persisted plane in process: %w", err)
		}
		if rep.RestoredEpoch != want {
			return nil, fmt.Errorf("persisted plane restores epoch %d, the group's recoverable epoch is %d", rep.RestoredEpoch, want)
		}
		persisted = img
	}
	if tr != nil {
		defer tr.end(tr.begin("recover"))
	}
	var times []float64
	var out map[uint64]uint64
	for i := 0; i < recoverReps; i++ {
		start := time.Now()
		img, epoch, err := recoverImage(ov, store)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		if epoch != want {
			return nil, fmt.Errorf("recovered epoch %d, the group's recoverable epoch is %d", epoch, want)
		}
		out = img
	}
	if persisted != nil {
		if err := recovery.Verify(out, persisted); err != nil {
			return nil, fmt.Errorf("cold salvage at epoch %d differs from the persisted plane: %w", want, err)
		}
	}
	rs.recover += time.Duration(median(times) * float64(time.Second))
	return out, nil
}

func recoverImage(ov overlay, store *fault.MemFS) (map[uint64]uint64, uint64, error) {
	if store == nil {
		out, rep := recovery.Recover(ov.Group())
		return out, rep.RecEpoch, nil
	}
	out, rep, err := recovery.SalvageDirFS(store, storeDir)
	if err != nil {
		return nil, 0, fmt.Errorf("cold salvage: %w", err)
	}
	if rep.StoreSealedEpoch != rep.RestoredEpoch {
		return nil, 0, fmt.Errorf("store manifest sealed epoch %d, salvage restored %d", rep.StoreSealedEpoch, rep.RestoredEpoch)
	}
	return out, rep.RestoredEpoch, nil
}

// count records the reference round's simulated outputs.
func (r *runner) count(c cellSpec, res cellResult) {
	k := &r.counts
	if k.all == nil {
		k.all, k.overlay = stats.NewSet("all"), stats.NewSet("overlay")
	}
	sum := res.sum
	k.accesses += sum.Accesses
	k.all.Merge(res.stats)
	if c.workload != "" {
		k.ops += sum.Ops
		k.liveAccesses += sum.Accesses
	}
	if res.rec != nil {
		k.recordRecords += res.rec.records
		k.recordBytes += res.rec.bytes
	}
	if c.scheme == "NVOverlay" {
		k.overlay.Merge(res.stats)
		k.overlayAccesses += sum.Accesses
		k.overlayStores += sum.Stores
		k.overlayCycles += sum.Cycles
		k.overlayNVMBytes += sum.NVMBytes
		if c.durable {
			k.durableStores += sum.Stores
		}
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

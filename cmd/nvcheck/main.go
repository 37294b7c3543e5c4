// Command nvcheck runs the differential verification harness outside the
// test suite: long soak sweeps over the regime rotation, fault-injection
// soaks over the crash-point x fault-class grid, or a single fully
// specified trace (the mode every divergence reproducer uses). Exit status
// is non-zero when any trace diverges from the golden model, and soak runs
// flush their partial tallies before exiting when interrupted.
//
//	nvcheck -traces 5000 -seed 1           # soak: 5000 traces over the rotation
//	nvcheck -seed 17 -cores 4 -steps 1400  # single trace, explicit parameters
//	nvcheck -faults -fseeds 4              # fault soak: classes x seeds x crash points
//	nvcheck -seed 3 -fault torn -crash 8   # single faulted trace (reproducer mode)
//	nvcheck -seed 17 -events ev.jsonl      # single trace + its JSONL event stream
//	nvcheck -validate-events ev.jsonl      # schema-check a captured stream
//	nvcheck -crashsoak -loops 30           # kill -9 crash-restart soak on a file store
//	nvcheck -diskfaults -dseeds 3          # disk-fault soak: classes x seeds x crash cuts
//
// The crash soak is the one mode that leaves the process: each loop
// re-execs this binary as a child writer streaming epochs into a
// file-backed durable store, SIGKILLs it at a seeded milestone, then
// cold-salvages the directory in the parent and diffs the restored image
// against the golden model. Failures archive their salvage reports under
// -reports for CI artifact upload.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"repro/internal/diffcheck"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/soak"
)

// options is the parsed command line.
type options struct {
	traces   int
	seed     int64
	every    int
	jobs     int              // sweep workers; output is identical for every value
	faults   bool             // fault-soak mode: sweep the fault grid
	classes  string           // comma-separated fault classes for the soak
	fseeds   int              // seeds per fault class in the soak
	single   bool             // an explicit per-trace flag switches to single-trace mode
	p        diffcheck.Params // single-trace parameters
	events   string           // capture the single trace's JSONL event stream here
	timeline bool             // print the single trace's per-epoch rollup timeline
	vevents  string           // standalone mode: schema-check this JSONL file and exit
	record   string           // record the single trace to this TRC1 file, then cross-check the file replay
	replay   string           // standalone mode: replay a recorded TRC1 trace file

	crashsoak bool   // kill -9 crash-restart soak over a file-backed store
	loops     int    // crash-soak iterations
	store     string // crash-soak store base directory ("": a temp dir)
	reports   string // where failing salvage reports are archived

	diskfaults bool   // disk-fault soak: classes x seeds x crash cuts over an in-memory store
	dclasses   string // comma-separated disk fault classes
	dseeds     int    // seeds per disk fault class
	dcuts      int    // crash cut points per (class, seed) regime

	cpuProfile string // write a CPU profile here
	memProfile string // write a heap profile here at exit
	traceOut   string // write a runtime execution trace here
}

// traceFlags are the per-trace parameter flags; setting any of them runs
// one explicit trace instead of the regime sweep.
var traceFlags = map[string]bool{
	"cores": true, "vdcores": true, "steps": true, "lines": true,
	"share": true, "write": true, "epoch": true, "pattern": true,
	"omcs": true, "crash": true, "nowalker": true, "buffer": true,
	"wrap": true, "wrapwidth": true, "fault": true,
}

// parseFlags decodes the command line without touching the process-global
// flag set, so tests can drive it directly.
func parseFlags(args []string, errOut io.Writer) (options, error) {
	fs := flag.NewFlagSet("nvcheck", flag.ContinueOnError)
	fs.SetOutput(errOut)
	o := options{}
	fs.IntVar(&o.traces, "traces", 600, "traces to sweep across the regime rotation")
	fs.Int64Var(&o.seed, "seed", 1, "base seed (sweep) or trace seed (single mode)")
	fs.IntVar(&o.every, "every", 100, "print progress every N traces")
	fs.IntVar(&o.jobs, "j", 0, "sweep workers; verdicts and output are identical for every value (0: GOMAXPROCS, 1: serial)")
	fs.BoolVar(&o.faults, "faults", false, "fault soak: sweep fault classes x seeds x crash points")
	fs.StringVar(&o.classes, "fclasses", "torn,flip,loss,nak,all", "fault classes for the -faults soak")
	fs.IntVar(&o.fseeds, "fseeds", 4, "seeds per fault class in the -faults soak")
	fs.StringVar(&o.events, "events", "", "write the single trace's JSONL event stream to this file (implies single-trace mode)")
	fs.BoolVar(&o.timeline, "timeline", false, "print the single trace's per-epoch rollup timeline (implies single-trace mode)")
	fs.StringVar(&o.vevents, "validate-events", "", "schema-check a captured JSONL event stream and exit")
	fs.StringVar(&o.record, "record", "", "record the single trace to this TRC1 file, then verify the file replay matches the in-memory run (implies single-trace mode)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded TRC1 trace file through the differential harness (standalone mode)")
	fs.BoolVar(&o.crashsoak, "crashsoak", false, "crash-restart soak: re-exec child writers onto a file store, kill -9, salvage, diff")
	fs.IntVar(&o.loops, "loops", 30, "crash-soak iterations")
	fs.StringVar(&o.store, "store", "", "crash-soak store base directory (default: a temp dir, removed afterwards)")
	fs.StringVar(&o.reports, "reports", "crash-reports", "directory for salvage reports of failing crash-soak loops")
	fs.BoolVar(&o.diskfaults, "diskfaults", false, "disk-fault soak: sweep disk fault classes x seeds x crash cuts over a fault-injecting in-memory store")
	fs.StringVar(&o.dclasses, "dclasses", strings.Join(fault.DiskClasses, ","), "disk fault classes for the -diskfaults soak")
	fs.IntVar(&o.dseeds, "dseeds", 3, "seeds per disk fault class in the -diskfaults soak")
	fs.IntVar(&o.dcuts, "dcuts", 8, "crash cut points per (class, seed) regime in the -diskfaults soak")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime execution trace to this file")

	base := diffcheck.RegimeParams(0, 0)
	fs.IntVar(&o.p.Cores, "cores", base.Cores, "cores (single-trace mode)")
	fs.IntVar(&o.p.CoresPerVD, "vdcores", base.CoresPerVD, "cores per versioned domain")
	fs.IntVar(&o.p.Steps, "steps", base.Steps, "trace length in accesses")
	fs.IntVar(&o.p.Lines, "lines", base.Lines, "working-set lines per region")
	fs.IntVar(&o.p.SharePct, "share", base.SharePct, "percent of accesses to the shared region")
	fs.IntVar(&o.p.WritePct, "write", base.WritePct, "percent of accesses that are stores")
	fs.IntVar(&o.p.EpochSize, "epoch", base.EpochSize, "stores per epoch")
	fs.StringVar(&o.p.Pattern, "pattern", base.Pattern, "access pattern: uniform, hotspot or stride")
	fs.IntVar(&o.p.OMCs, "omcs", base.OMCs, "OMC address partitions")
	fs.IntVar(&o.p.CrashPoints, "crash", base.CrashPoints, "swept mid-run crash probes")
	nowalker := fs.Bool("nowalker", false, "disable the tag walker")
	fs.BoolVar(&o.p.Buffered, "buffer", false, "enable the battery-backed OMC buffer")
	fs.BoolVar(&o.p.Wrap, "wrap", false, "enable the epoch wrap-around protocol")
	wrapWidth := fs.Uint("wrapwidth", 5, "epoch wire width in bits (with -wrap)")
	fs.StringVar(&o.p.Fault, "fault", "", "fault class for a single faulted trace (torn, flip, loss, nak, all)")

	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("nvcheck: unexpected arguments %v", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) {
		if traceFlags[f.Name] {
			o.single = true
		}
	})
	if o.events != "" || o.timeline {
		o.single = true
	}
	if o.record != "" {
		o.single = true
		if o.events != "" || o.timeline {
			return options{}, fmt.Errorf("nvcheck: -record runs the trace twice (memory + file) and cannot also capture events; drop -events/-timeline")
		}
	}
	if o.replay != "" && (o.faults || o.single || o.vevents != "" || o.crashsoak || o.diskfaults) {
		return options{}, fmt.Errorf("nvcheck: -replay is a standalone mode (the trace file supplies all parameters)")
	}
	if o.faults && o.single {
		return options{}, fmt.Errorf("nvcheck: -faults soak and single-trace flags are mutually exclusive")
	}
	if o.vevents != "" && (o.faults || o.single) {
		return options{}, fmt.Errorf("nvcheck: -validate-events is a standalone mode")
	}
	if o.crashsoak && (o.faults || o.single || o.vevents != "") {
		return options{}, fmt.Errorf("nvcheck: -crashsoak is a standalone mode")
	}
	if o.crashsoak && o.loops <= 0 {
		return options{}, fmt.Errorf("nvcheck: -loops must be positive, got %d", o.loops)
	}
	if o.diskfaults && (o.faults || o.single || o.vevents != "" || o.crashsoak) {
		return options{}, fmt.Errorf("nvcheck: -diskfaults is a standalone mode")
	}
	if o.diskfaults {
		if o.dseeds <= 0 {
			return options{}, fmt.Errorf("nvcheck: -dseeds must be positive, got %d", o.dseeds)
		}
		if o.dcuts < 1 {
			return options{}, fmt.Errorf("nvcheck: -dcuts must be at least 1, got %d", o.dcuts)
		}
		for _, c := range strings.Split(o.dclasses, ",") {
			if c == "" || !fault.ValidDiskClass(c) {
				return options{}, fmt.Errorf("nvcheck: unknown disk fault class %q in -dclasses", c)
			}
		}
	}
	o.p.Seed = o.seed
	o.p.Walker = !*nowalker
	o.p.WrapWidth = uint(*wrapWidth)
	if o.single {
		if err := o.p.Validate(); err != nil {
			return options{}, err
		}
	}
	if o.record != "" && o.p.Fault != "" {
		return options{}, fmt.Errorf("nvcheck: -record cannot capture a fault regime (the fault schedule is not part of the access stream)")
	}
	if o.faults {
		if o.fseeds <= 0 {
			return options{}, fmt.Errorf("nvcheck: -fseeds must be positive, got %d", o.fseeds)
		}
		for _, c := range strings.Split(o.classes, ",") {
			if c == "" || !fault.ValidClass(c) {
				return options{}, fmt.Errorf("nvcheck: unknown fault class %q in -fclasses", c)
			}
		}
	}
	return o, nil
}

// faultTally accumulates fault-soak results across regimes so a partial
// flush on interrupt still reports everything completed so far.
type faultTally struct {
	regimes, cells, restored, walkedBack, refused, events int
}

func (ft *faultTally) add(res diffcheck.FaultResult) {
	ft.regimes++
	ft.cells += len(res.Points)
	ft.restored += res.Restored
	ft.walkedBack += res.WalkedBack
	ft.refused += res.Refusals
	ft.events += res.Events
}

func (ft *faultTally) flush(w io.Writer, elapsed time.Duration) {
	fmt.Fprintf(w, "fault soak: %d regimes, %d cells (%d restored, %d walked back, %d refused), %d faults injected, 0 silent corruptions (%v)\n",
		ft.regimes, ft.cells, ft.restored, ft.walkedBack, ft.refused, ft.events, elapsed.Round(time.Millisecond))
}

// runFaults executes the fault-soak grid: every configured class x fseeds
// seeds, each swept across its crash points. The (class, seed) regimes fan
// over -j workers; verdicts and tallies merge in grid order, so the report
// — including which regime is blamed for a divergence — is identical for
// every -j. The tally is flushed even when a regime diverges or the
// context is cancelled, and both of those paths return a non-nil error so
// main exits non-zero.
func runFaults(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	var ft faultTally
	classes := strings.Split(o.classes, ",")
	type cell struct {
		res diffcheck.FaultResult
		d   *diffcheck.Divergence
	}
	var ferr error
	parallel.ForEachOrdered(o.jobs, len(classes)*o.fseeds, func(i int) cell {
		p := diffcheck.FaultRegimeParams(classes[i/o.fseeds], o.seed+int64(i%o.fseeds))
		res, d := diffcheck.RunFaulted(p, 1, nil)
		return cell{res, d}
	}, func(i int, c cell) bool {
		class := classes[i/o.fseeds]
		if err := ctx.Err(); err != nil {
			ft.flush(w, time.Since(start))
			ferr = fmt.Errorf("interrupted after %d regimes: %w", ft.regimes, err)
			return false
		}
		if c.d != nil {
			fmt.Fprintln(w, c.d.Error())
			ft.flush(w, time.Since(start))
			ferr = fmt.Errorf("fault regime class=%s seed=%d diverged", class, c.res.Params.Seed)
			return false
		}
		ft.add(c.res)
		if o.every > 0 && i%o.fseeds == o.fseeds-1 {
			fmt.Fprintf(w, "class %s ok (%d regimes so far, %v)\n",
				class, ft.regimes, time.Since(start).Round(time.Millisecond))
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	ft.flush(w, time.Since(start))
	return nil
}

// diskTally accumulates disk-fault soak results across regimes, mirroring
// faultTally: a partial flush on interrupt or divergence still reports
// everything completed so far.
type diskTally struct {
	regimes, cells, restored, refused, wounded, faults int
}

func (dt *diskTally) add(res diffcheck.DiskResult) {
	dt.regimes++
	dt.cells += len(res.Points)
	dt.restored += res.Restored
	dt.refused += res.Refusals
	dt.wounded += res.Wounded
	dt.faults += res.Faults
}

func (dt *diskTally) flush(w io.Writer, elapsed time.Duration) {
	fmt.Fprintf(w, "disk-fault soak: %d regimes, %d cells (%d restored, %d refused, %d wounded planes), %d disk faults injected, 0 silent corruptions (%v)\n",
		dt.regimes, dt.cells, dt.restored, dt.refused, dt.wounded, dt.faults, elapsed.Round(time.Millisecond))
}

// runDiskFaults executes the disk-fault grid: every configured class x
// dseeds seeds, each swept across dcuts crash cut points plus the no-cut
// cell. Regimes fan over -j workers and merge in grid order, so the report
// is identical for every -j. A diverging cell archives its salvage report
// (when one exists) under -reports, flushes the tally, and fails the run.
func runDiskFaults(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	var dt diskTally
	classes := strings.Split(o.dclasses, ",")
	type cell struct {
		res diffcheck.DiskResult
		d   *diffcheck.DiskDivergence
	}
	var ferr error
	parallel.ForEachOrdered(o.jobs, len(classes)*o.dseeds, func(i int) cell {
		p := diffcheck.DiskParams{
			Classes: []string{classes[i/o.dseeds]},
			Seeds:   []int64{o.seed + int64(i%o.dseeds)},
			Cuts:    o.dcuts,
		}
		res, d := diffcheck.RunDiskFaults(p, 1)
		return cell{res, d}
	}, func(i int, c cell) bool {
		class := classes[i/o.dseeds]
		if err := ctx.Err(); err != nil {
			dt.flush(w, time.Since(start))
			ferr = fmt.Errorf("interrupted after %d regimes: %w", dt.regimes, err)
			return false
		}
		if c.d != nil {
			fmt.Fprintln(w, c.d.Error())
			if c.d.Report != nil {
				archiveReport(o.reports, i, c.d.Report)
			}
			dt.flush(w, time.Since(start))
			ferr = fmt.Errorf("disk-fault regime class=%s seed=%d diverged", class, c.d.Seed)
			return false
		}
		dt.add(c.res)
		if o.every > 0 && i%o.dseeds == o.dseeds-1 {
			fmt.Fprintf(w, "disk class %s ok (%d cells so far, %v)\n",
				class, dt.cells, time.Since(start).Round(time.Millisecond))
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	dt.flush(w, time.Since(start))
	return nil
}

// archiveReport writes a failing loop's salvage report under the reports
// directory so CI can upload it as an artifact.
func archiveReport(dir string, loop int, rep interface{ JSON() ([]byte, error) }) {
	if rep == nil {
		return
	}
	js, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: report json:", err)
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: reports dir:", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("salvage-loop-%03d.json", loop))
	if err := os.WriteFile(path, js, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nvcheck: writing report:", err)
	}
}

// runCrashSoak loops start child -> write -> kill -9 -> cold salvage ->
// diff against golden. One control run (never killed) both validates the
// happy path and measures the milestone count; each loop then kills at a
// seeded milestone index, so a given -seed replays the same kill schedule
// exactly. Any contract violation archives its salvage report and fails
// the run.
func runCrashSoak(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	bin, err := os.Executable()
	if err != nil {
		return fmt.Errorf("nvcheck: locating binary: %w", err)
	}
	base := o.store
	if base == "" {
		base, err = os.MkdirTemp("", "nvsoak-*")
		if err != nil {
			return err
		}
		defer func() {
			if err := os.RemoveAll(base); err != nil {
				fmt.Fprintln(os.Stderr, "nvcheck: cleanup:", err)
			}
		}()
	} else if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}

	// Control run: full completion, salvage must restore the final epoch.
	p := soak.DefaultParams(filepath.Join(base, "control"), o.seed)
	res, err := soak.Run(bin, nil, p, 1<<30)
	if err != nil {
		return fmt.Errorf("nvcheck: control run: %w", err)
	}
	rep, err := soak.CheckDirFS(fault.OS, p.Dir, res.DurableEpoch, soak.Golden(p))
	if err != nil {
		archiveReport(o.reports, -1, rep)
		return fmt.Errorf("nvcheck: control run salvage: %w", err)
	}
	total := res.Milestones
	fmt.Fprintf(w, "control run: %d milestones, restored epoch %d\n", total, rep.RestoredEpoch)

	rng := sim.NewRNG(o.seed)
	restored, refused := 0, 0
	// Any mid-run failure — interrupt, a child dying (ENOSPC included), a
	// salvage contract violation — flushes the partial tally before the
	// non-zero exit, so an aborted soak still reports what it proved.
	flush := func() {
		fmt.Fprintf(w, "crash soak aborted: %d/%d loops completed (%d restored, %d justified refusals, %v)\n",
			restored+refused, o.loops, restored, refused, time.Since(start).Round(time.Millisecond))
	}
	for i := 0; i < o.loops; i++ {
		if err := ctx.Err(); err != nil {
			flush()
			return fmt.Errorf("nvcheck: interrupted after %d loops: %w", i, err)
		}
		killAt := int(rng.Uint64n(uint64(total)))
		dir := filepath.Join(base, fmt.Sprintf("store-%03d", i))
		lp := soak.DefaultParams(dir, o.seed+int64(i)+1)
		res, err := soak.Run(bin, nil, lp, killAt)
		if err != nil {
			flush()
			if soak.IsNoSpace(err) {
				// The typed out-of-space path: the environment, not the store,
				// is to blame, but the run still fails loudly.
				return fmt.Errorf("nvcheck: loop %d ran out of disk space: %w", i, err)
			}
			return fmt.Errorf("nvcheck: loop %d: %w", i, err)
		}
		rep, err := soak.CheckDirFS(fault.OS, dir, res.DurableEpoch, soak.Golden(lp))
		if err != nil {
			archiveReport(o.reports, i, rep)
			flush()
			return fmt.Errorf("nvcheck: loop %d (killed at %d: %s, epoch %d; durable %d): %w",
				i, res.KillIndex, res.KillPoint, res.KillEpoch, res.DurableEpoch, err)
		}
		if rep.Refused {
			refused++
		} else {
			restored++
		}
		if err := os.RemoveAll(dir); err != nil {
			flush()
			return fmt.Errorf("nvcheck: loop %d cleanup: %w", i, err)
		}
		if o.every > 0 && (i+1)%o.every == 0 {
			fmt.Fprintf(w, "%d/%d loops ok (%v)\n", i+1, o.loops, time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Fprintf(w, "crash soak: %d kill-9 loops ok (%d restored, %d justified refusals, %d milestones/run, %v)\n",
		o.loops, restored, refused, total, time.Since(start).Round(time.Millisecond))
	return nil
}

// traceOkLine renders the standard per-trace verdict line.
func traceOkLine(res diffcheck.Result) string {
	return fmt.Sprintf("trace ok: epochs=%d rec-epoch=%d boundary-verifies=%d crash-verifies=%d wrap-flushes=%d lines=%d baselines=%v",
		res.MaxEpoch, res.RecEpoch, res.BoundaryVerifies, res.CrashVerifies,
		res.WrapFlushes, res.Lines, res.Baselines)
}

// runRecord records the single trace as a TRC1 file, runs the trace both
// in memory and from the recording, and requires the two runs to agree
// exactly — the CLI form of the record → replay → diffcheck cross-check.
func runRecord(o options, w io.Writer, start time.Time) error {
	info, err := diffcheck.RecordTrace(fault.OS, o.record, o.p)
	if err != nil {
		return fmt.Errorf("nvcheck: recording %s: %w", o.record, err)
	}
	fmt.Fprintf(w, "recorded %d accesses in %d chunks (%d bytes) to %s\n",
		info.Records, info.Chunks, info.Bytes, o.record)
	res, d := diffcheck.Run(o.p, nil)
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fres, fd, err := diffcheck.RunFile(fault.OS, o.record, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.record, err)
	}
	if fd != nil {
		fmt.Fprintln(w, fd.Error())
		return fmt.Errorf("1 divergence (file replay)")
	}
	if !reflect.DeepEqual(res, fres) {
		return fmt.Errorf("nvcheck: file replay of %s does not match the in-memory run:\n  memory %+v\n  file   %+v", o.record, res, fres)
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "file replay matches the in-memory run; 0 divergences in 2 runs (%v)\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runReplay replays a recorded trace file through the full differential
// harness; every parameter comes from the file's checksummed header.
func runReplay(o options, w io.Writer, start time.Time) error {
	p, err := diffcheck.ReadParams(fault.OS, o.replay)
	if err != nil {
		return fmt.Errorf("nvcheck: reading %s: %w", o.replay, err)
	}
	fmt.Fprintf(w, "replaying %s: %s\n", o.replay, p.FlagString())
	res, d, err := diffcheck.RunFile(fault.OS, o.replay, nil)
	if err != nil {
		return fmt.Errorf("nvcheck: replaying %s: %w", o.replay, err)
	}
	if d != nil {
		fmt.Fprintln(w, d.Error())
		return fmt.Errorf("1 divergence")
	}
	fmt.Fprintf(w, "%s\n", traceOkLine(res))
	fmt.Fprintf(w, "0 divergences in 1 replayed trace (%v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// run executes the requested sweep or single trace, reporting to w. A
// divergence is printed in full (with its reproducer) and returned as an
// error so main can exit non-zero; an interrupted soak flushes its partial
// tally first.
func run(ctx context.Context, o options, w io.Writer) error {
	start := time.Now()
	if o.vevents != "" {
		return validateEvents(o.vevents, w)
	}
	if o.replay != "" {
		return runReplay(o, w, start)
	}
	if o.crashsoak {
		return runCrashSoak(ctx, o, w)
	}
	if o.diskfaults {
		return runDiskFaults(ctx, o, w)
	}
	if o.faults {
		return runFaults(ctx, o, w)
	}
	if o.single {
		// The bus only exists when -events or -timeline asked for it; nil
		// keeps the replay on the unobserved fast path.
		var bus *obs.Bus
		var agg *obs.Aggregator
		var evbuf bytes.Buffer
		if o.events != "" || o.timeline {
			bus = obs.NewBus(0)
			if o.timeline {
				agg = obs.NewAggregator()
				bus.Attach(agg)
			}
			if o.events != "" {
				bus.Attach(obs.NewJSONLSink(&evbuf, ""))
			}
		}
		report := func() error {
			if o.timeline {
				cell := experiments.TimelineCell{Scheme: "NVOverlay", Workload: "diffcheck",
					Emitted: bus.Emitted(), Rolls: agg.Timeline(),
					BankDepth: agg.BankDepth, WalkSpan: agg.WalkSpan}
				experiments.PrintTimeline(w, []experiments.TimelineCell{cell})
			}
			if o.events == "" {
				return nil
			}
			if err := os.WriteFile(o.events, evbuf.Bytes(), 0o644); err != nil {
				return fmt.Errorf("writing event stream: %w", err)
			}
			fmt.Fprintf(w, "events: %d written to %s\n", bus.Emitted(), o.events)
			return nil
		}
		if o.p.Fault != "" {
			res, d := diffcheck.RunFaulted(o.p, o.jobs, bus)
			if d != nil {
				fmt.Fprintln(w, d.Error())
				return fmt.Errorf("1 divergence")
			}
			fmt.Fprintf(w, "faulted trace ok: %d cells (%d restored, %d walked back, %d refused), %d faults injected\n",
				len(res.Points), res.Restored, res.WalkedBack, res.Refusals, res.Events)
			if err := report(); err != nil {
				return err
			}
			fmt.Fprintf(w, "0 divergences in 1 trace (%v)\n", time.Since(start).Round(time.Millisecond))
			return nil
		}
		if o.record != "" {
			return runRecord(o, w, start)
		}
		res, d := diffcheck.Run(o.p, bus)
		if d != nil {
			fmt.Fprintln(w, d.Error())
			return fmt.Errorf("1 divergence")
		}
		fmt.Fprintf(w, "%s\n", traceOkLine(res))
		if err := report(); err != nil {
			return err
		}
		fmt.Fprintf(w, "0 divergences in 1 trace (%v)\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	// Regime soak: traces fan over -j workers. Verdicts are consumed in
	// trace order, so tallies, progress lines and — on failure — which
	// trace is blamed first all match the serial sweep exactly.
	var boundary, crash int
	type cell struct {
		res diffcheck.Result
		d   *diffcheck.Divergence
	}
	var ferr error
	parallel.ForEachOrdered(o.jobs, o.traces, func(i int) cell {
		res, d := diffcheck.Run(diffcheck.RegimeParams(i, o.seed), nil)
		return cell{res, d}
	}, func(i int, c cell) bool {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(w, "interrupted: %d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
			ferr = fmt.Errorf("interrupted after %d traces: %w", i, err)
			return false
		}
		if c.d != nil {
			fmt.Fprintln(w, c.d.Error())
			fmt.Fprintf(w, "interrupted: %d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
			ferr = fmt.Errorf("divergence at trace %d of %d", i+1, o.traces)
			return false
		}
		boundary += c.res.BoundaryVerifies
		crash += c.res.CrashVerifies
		if o.every > 0 && (i+1)%o.every == 0 {
			fmt.Fprintf(w, "%d/%d traces ok (%d boundary + %d crash verifies, %v)\n",
				i+1, o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
		}
		return true
	})
	if ferr != nil {
		return ferr
	}
	fmt.Fprintf(w, "0 divergences in %d traces (%d boundary + %d crash verifies, %v)\n",
		o.traces, boundary, crash, time.Since(start).Round(time.Millisecond))
	return nil
}

// validateEvents schema-checks a captured JSONL event stream: known kinds,
// fixed field order, per-cell sequence numbers gapless from zero. A stream
// that fails validation returns a non-nil error so main exits non-zero.
func validateEvents(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side: validation already decided
	n, err := obs.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: %d events ok\n", path, n)
	return nil
}

func main() {
	if soak.IsChild() {
		// Spawned by a -crashsoak parent: become the store writer. This
		// happens before flag parsing so the child is immune to the
		// parent's own command line.
		os.Exit(soak.ChildMain())
	}
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = profile.Run("nvcheck", o.cpuProfile, o.memProfile, o.traceOut,
		func() error { return run(ctx, o, os.Stdout) })
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

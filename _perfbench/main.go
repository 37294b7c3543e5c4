// Command perfbench is the repository's benchmark: it runs one workload of
// the NVOverlay simulator for a fixed host time and prints every metric by
// name with its unit, a digest of all simulated outputs, and, as its last
// line, a JSON result.
//
//	bash _perfbench/run.sh --workload paper16 --seed 1 --seconds 25 --trace 0
//
// One process, one simulation goroutine: cells run serially, closed-loop,
// in rounds (a fixed list of cells built from the seed) until the time is
// up. With --trace 0 the end-to-end metrics come from untraced rounds. With
// --trace 1 untraced and traced rounds alternate; the traced rounds wrap
// each layer boundary from outside and report per-layer host time, call
// counts and simulated counters, plus the tracing overhead. Every round
// must reproduce the first untraced round's simulated outputs exactly.
//
// Run with --list to print the metric vocabulary: name, unit, layer and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"

	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var list bool
	fs.StringVar(&o.workload, "workload", "", "workload: paper16, hotwrite-replay, scale256, durable-store")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: alternate untraced and traced rounds and report per-layer metrics")
	fs.BoolVar(&list, "list", false, "print the metric vocabulary and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if list {
		printVocabulary(os.Stdout)
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		os.Exit(2)
	}
	o.traced = traceFlag == 1
	o.minRounds = 3
	r, err := newRunner(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	printProvenance(os.Stdout, o)
	r.run()
	res := r.result()
	if o.traced {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, r.tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d coarse spans written to %s\n", len(r.tr.spans), path)
	}
	if err := r.report(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the metrics the run reports: the end-to-end set
// untraced, the per-layer set traced.
func (r *runner) result() result {
	defs, values := endToEnd, r.endToEndValues()
	if r.opts.traced {
		defs, values = perLayer, r.perLayerValues()
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// report prints the run summary, the digest and every metric by name with
// its unit, then the JSON result as the last line.
func (r *runner) report(w io.Writer, res result) error {
	untraced, traced := r.roundCount(false), r.roundCount(true)
	fmt.Fprintf(w, "rounds %d untraced, %d traced; %d latency windows of %d accesses\n",
		untraced, traced, len(r.windows), r.wl.window)
	fmt.Fprintf(w, "error_rate %g (%d of %d cells failed)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Fprintf(w, "digest %s seed=%d %s\n", r.wl.name, r.opts.seed, r.digest())
	if len(r.finalMismatch) > 0 {
		fmt.Fprintf(w, "known defect: recovered image differs from the final write state in %v\n", r.finalMismatch)
	}
	defs := endToEnd
	if r.opts.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "metric %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// digest folds the first untraced round's cell digests, in cell order, into
// one digest of every simulated output of the workload at this seed.
func (r *runner) digest() string {
	h := sha256.New()
	for _, d := range r.ref {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cellDigest hashes a cell's simulated outputs: the run summary, the final
// memory image and every scheme counter.
func cellDigest(sum trace.Summary, st *stats.Set) string {
	var final, n uint64 // a commutative sum: independent of map order
	for addr, data := range sum.Final {
		final += mix(addr, data)
		n++
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s %s cycles=%d accesses=%d stores=%d ops=%d nvm=%d data=%d log=%d meta=%d ctx=%d footprint=%d final=%d/%x\n",
		sum.Scheme, sum.Workload, sum.Cycles, sum.Accesses, sum.Stores, sum.Ops, sum.NVMBytes,
		sum.DataBytes, sum.LogBytes, sum.MetaBytes, sum.CtxBytes, sum.Footprint, n, final)
	for _, k := range st.Keys() {
		fmt.Fprintf(h, "%s=%d\n", k, st.Get(k))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mix is a splitmix64 finalizer over one (address, payload) pair.
func mix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// printProvenance writes the header every result carries: commit, binary
// hash, seed, workload and host.
func printProvenance(w io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	fmt.Fprintf(w, "provenance commit=%s binary=%s workload=%s seed=%d seconds=%g trace=%t cpus=%d gomaxprocs=%d go=%s os=%s/%s\n",
		commit, binaryHash(), o.workload, o.seed, o.seconds, o.traced,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// binaryHash identifies the code that ran when the checkout carries no
// version-control stamp: the benchmark is built with -trimpath, so equal
// sources and toolchain give an equal binary.
func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func printVocabulary(w io.Writer) {
	for _, set := range []struct {
		kind string
		defs []metricDef
	}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
		for _, d := range set.defs {
			detail := d.better + " is better"
			if d.moves != "" {
				detail += "; should move " + d.moves
			}
			fmt.Fprintf(w, "%s %s unit=%s layer=%s %s\n", set.kind, d.name, strconv.Quote(d.unit), d.layer, detail)
		}
	}
}

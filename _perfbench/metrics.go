package main

import (
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// metricDef is one entry of the benchmark's metric vocabulary. BENCHMARK.json
// lists the same names and units (a test keeps the two in step); layer and
// moves are recorded here because BENCHMARK.json's schema has no room for
// them.
type metricDef struct {
	name  string
	unit  string
	layer string
	// better is "higher" or "lower".
	better string
	// moves names, for a per-layer metric, the end-to-end metrics it should
	// move and on which workload, and where it should not move.
	moves string
}

// endToEnd are measured with tracing off. error_rate is printed but not
// listed: it is zero on a correct tree, and the result line already
// carries it as failed/attempted cells.
var endToEnd = []metricDef{
	{name: "accesses_per_s", unit: "1/s", layer: "end-to-end", better: "higher"},
	{name: "setup_s", unit: "s", layer: "end-to-end", better: "lower"},
	{name: "window_ms_p50", unit: "ms", layer: "end-to-end", better: "lower"},
	{name: "window_ms_p90", unit: "ms", layer: "end-to-end", better: "lower"},
	{name: "allocs_per_access", unit: "allocs/access", layer: "end-to-end", better: "lower"},
	{name: "alloc_bytes_per_access", unit: "B/access", layer: "end-to-end", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", layer: "end-to-end", better: "lower"},
	{name: "recover_s", unit: "s", layer: "end-to-end", better: "lower"},
	{name: "sim_cycles_per_access", unit: "cycles/access", layer: "simulated", better: "lower"},
	{name: "nvm_bytes_per_store", unit: "B/store", layer: "simulated", better: "lower"},
}

const (
	movesBaseline = "accesses_per_s and window_ms_p50 on paper16; no change on hotwrite-replay and durable-store (cache array changes move every NVOverlay workload)"
	movesWorkload = "accesses_per_s on paper16; no change on hotwrite-replay (replayed)"
	movesTrace    = "accesses_per_s and setup_s on hotwrite-replay only; no change elsewhere"
	movesOMC      = "accesses_per_s and allocs_per_access on hotwrite-replay; little effect on paper16"
	movesScale    = "accesses_per_s and peak_rss_mb on scale256"
	movesDurable  = "window_ms_p90 and accesses_per_s on durable-store; recover_s must not get worse"
	movesOverhead = "none: the traced run's cost over the untraced run"
)

// perLayer are reported by the traced run. Shares and the cst, baseline,
// trace, workload, tracefile and omc call times are host self time: the
// part of a layer's spans no nested layer covers, so OMC time excludes the
// plane writes it triggers. mem plane, file-system and omc.seal times are
// inclusive per call. Counts are per round.
var perLayer = []metricDef{
	{name: "baseline.access_ns", unit: "ns", layer: "baseline", better: "lower", moves: movesBaseline},
	{name: "baseline.share", unit: "%", layer: "baseline", better: "lower", moves: movesBaseline},
	{name: "cache.l1_hit_ratio", unit: "ratio", layer: "cache", better: "higher", moves: movesBaseline},
	{name: "cache.l2_hit_ratio", unit: "ratio", layer: "cache", better: "higher", moves: movesBaseline},
	{name: "cache.llc_hit_ratio", unit: "ratio", layer: "cache", better: "higher", moves: movesBaseline},
	{name: "coherence.c2c_per_kaccess", unit: "1/kaccess", layer: "coherence", better: "lower", moves: movesBaseline},
	{name: "coherence.invalidations_per_kaccess", unit: "1/kaccess", layer: "coherence", better: "lower", moves: movesBaseline},
	{name: "workload.step_ns_per_op", unit: "ns", layer: "workload", better: "lower", moves: movesWorkload},
	{name: "workload.share", unit: "%", layer: "workload", better: "lower", moves: movesWorkload},
	{name: "workload.ops", unit: "count", layer: "workload", better: "higher", moves: movesWorkload},
	{name: "workload.accesses_per_op", unit: "access/op", layer: "workload", better: "lower", moves: movesWorkload},
	{name: "tracefile.next_ns_per_access", unit: "ns", layer: "tracefile", better: "lower", moves: movesTrace},
	{name: "tracefile.share", unit: "%", layer: "tracefile", better: "lower", moves: movesTrace},
	{name: "tracefile.bytes_per_access", unit: "B/access", layer: "tracefile", better: "lower", moves: movesTrace},
	{name: "omc.receive_ns_per_call", unit: "ns", layer: "omc", better: "lower", moves: movesOMC},
	{name: "omc.share", unit: "%", layer: "omc", better: "lower", moves: movesOMC},
	{name: "omc.versions_per_kaccess", unit: "1/kaccess", layer: "omc", better: "lower", moves: movesOMC},
	{name: "omc.entries_merged", unit: "count", layer: "omc", better: "lower", moves: movesOMC},
	{name: "omc.epochs_merged", unit: "count", layer: "omc", better: "lower", moves: movesOMC},
	{name: "mem.plane_apply_ns_per_call", unit: "ns", layer: "mem", better: "lower", moves: movesOMC},
	{name: "mem.nvm_writes_per_kaccess", unit: "1/kaccess", layer: "mem", better: "lower", moves: movesOMC},
	{name: "mem.nvm_stall_cycles_per_access", unit: "cycles/access", layer: "mem", better: "lower", moves: movesOMC},
	{name: "cst.self_ns_per_access", unit: "ns", layer: "cst", better: "lower", moves: movesScale},
	{name: "cst.share", unit: "%", layer: "cst", better: "lower", moves: movesScale},
	{name: "cst.epoch_advances", unit: "count", layer: "cst", better: "lower", moves: movesScale},
	{name: "cst.tag_walks", unit: "count", layer: "cst", better: "lower", moves: movesScale},
	{name: "cst.walk_evicts_per_kaccess", unit: "1/kaccess", layer: "cst", better: "lower", moves: movesScale},
	{name: "trace.self_ns_per_access", unit: "ns", layer: "trace", better: "lower", moves: movesScale},
	{name: "trace.share", unit: "%", layer: "trace", better: "lower", moves: movesScale},
	{name: "omc.minver_us_per_call", unit: "us", layer: "omc", better: "lower", moves: movesScale},
	{name: "omc.minver_messages", unit: "count", layer: "omc", better: "lower", moves: movesScale},
	{name: "mem.plane_seal_ms_per_call", unit: "ms", layer: "mem", better: "lower", moves: movesDurable},
	{name: "mem.plane_seals", unit: "count", layer: "mem", better: "lower", moves: movesDurable},
	{name: "mem.share", unit: "%", layer: "mem", better: "lower", moves: movesDurable},
	{name: "omc.seal_ms", unit: "ms", layer: "omc", better: "lower", moves: movesDurable},
	{name: "mem.fs_sync_us_per_call", unit: "us", layer: "mem", better: "lower", moves: movesDurable},
	{name: "mem.fs_syncs", unit: "count", layer: "mem", better: "lower", moves: movesDurable},
	{name: "mem.fs_bytes_written_per_store", unit: "B/store", layer: "mem", better: "lower", moves: movesDurable},
	{name: "go.gc_cycles", unit: "1/Maccess", layer: "go", better: "lower", moves: "allocs_per_access and peak_rss_mb on every workload"},
	{name: "trace.overhead_pct", unit: "%", layer: "trace", better: "lower", moves: movesOverhead},
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolating linearly between the
// order statistics around rank q*(n-1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// endToEndValues derives the end-to-end metrics from the untraced rounds.
// accesses_per_s and recover_s are what nine rounds in ten achieve (the
// 10th percentile of per-round rates, the 90th of per-round recovery
// times). Host speed on shared benchmark machines drifts by tens of percent
// within seconds as other tenants come and go; a run's slowest rounds sit
// at a floor that repeats from run to run far better than its median does.
func (r *runner) endToEndValues() map[string]float64 {
	var aps, setup, recov []float64
	var mallocs, byts, accesses float64
	for _, rs := range r.rounds {
		if rs.traced {
			continue
		}
		aps = append(aps, ratio(float64(rs.accesses), rs.run.Seconds()))
		setup = append(setup, rs.setup.Seconds())
		recov = append(recov, rs.recover.Seconds())
		mallocs += float64(rs.mallocs)
		byts += float64(rs.bytes)
		accesses += float64(rs.accesses)
	}
	win := make([]float64, len(r.windows))
	for i, w := range r.windows {
		win[i] = float64(w) / 1e6
	}
	k := r.counts
	return map[string]float64{
		"accesses_per_s":         quantile(aps, 0.1),
		"setup_s":                median(setup),
		"window_ms_p50":          quantile(win, 0.5),
		"window_ms_p90":          quantile(win, 0.9),
		"allocs_per_access":      ratio(mallocs, accesses),
		"alloc_bytes_per_access": ratio(byts, accesses),
		"peak_rss_mb":            peakRSSMB(),
		"recover_s":              quantile(recov, 0.9),
		"sim_cycles_per_access":  ratio(float64(k.overlayCycles), float64(k.overlayAccesses)),
		"nvm_bytes_per_store":    ratio(float64(k.overlayNVMBytes), float64(k.overlayStores)),
	}
}

// perLayerValues derives the per-layer metrics from the traced rounds'
// tracer totals and the reference round's simulated counters.
func (r *runner) perLayerValues() map[string]float64 {
	t := r.tr
	var tracedAPS, untracedAPS []float64
	var tracedAccesses, untracedAccesses, gcs float64
	rounds := 0.0
	for _, rs := range r.rounds {
		aps := ratio(float64(rs.accesses), rs.run.Seconds())
		if rs.traced {
			rounds++
			tracedAPS = append(tracedAPS, aps)
			tracedAccesses += float64(rs.accesses)
		} else {
			untracedAPS = append(untracedAPS, aps)
			untracedAccesses += float64(rs.accesses)
			gcs += float64(rs.gcs)
		}
	}
	var total float64
	for l := layer(0); l < nLayers; l++ {
		if l != lWorkloadSetup {
			total += float64(t.self[l])
		}
	}
	self := func(ls ...layer) float64 {
		var s float64
		for _, l := range ls {
			s += float64(t.self[l])
		}
		return s
	}
	share := func(ls ...layer) float64 { return 100 * ratio(self(ls...), total) }
	perCall := func(l layer, scale float64) float64 {
		return ratio(float64(t.incl[l]), float64(t.calls[l])) / scale
	}
	selfPerCall := func(l layer) float64 { return ratio(self(l), float64(t.calls[l])) }
	perRound := func(n float64) float64 { return ratio(n, rounds) }

	k := r.counts
	sum := func(set *stats.Set, keys ...string) (s float64) {
		for _, key := range keys {
			s += float64(set.Get(key))
		}
		return s
	}
	cnt := func(keys ...string) float64 { return sum(k.all, keys...) }
	ovc := func(keys ...string) float64 { return sum(k.overlay, keys...) }
	acc, ovAcc := float64(k.accesses), float64(k.overlayAccesses)
	l1 := cnt("l1_load_hits", "l1_store_hits")
	l2 := cnt("l2_load_hits", "l2_store_hits")
	omcLayers := []layer{lOMCReceive, lOMCMinVer, lOMCContext, lOMCSeal}
	memLayers := []layer{lPlaneApply, lPlaneSeal, lFSWrite, lFSSync, lFSOther}
	return map[string]float64{
		"baseline.access_ns":                  selfPerCall(lBaseline),
		"baseline.share":                      share(lBaseline),
		"cache.l1_hit_ratio":                  ratio(l1, acc),
		"cache.l2_hit_ratio":                  ratio(l2, acc-l1),
		"cache.llc_hit_ratio":                 ratio(cnt("llc_hits"), cnt("llc_hits", "llc_misses")),
		"coherence.c2c_per_kaccess":           1000 * ratio(cnt("remote_downgrades", "c2c_transfers"), acc),
		"coherence.invalidations_per_kaccess": 1000 * ratio(cnt("remote_invalidations"), acc),
		"workload.step_ns_per_op":             selfPerCall(lWorkload),
		"workload.share":                      share(lWorkload),
		"workload.ops":                        float64(k.ops),
		"workload.accesses_per_op":            ratio(float64(k.liveAccesses), float64(k.ops)),
		"tracefile.next_ns_per_access":        selfPerCall(lTracefile),
		"tracefile.share":                     share(lTracefile),
		"tracefile.bytes_per_access":          ratio(float64(k.recordBytes), float64(k.recordRecords)),
		"omc.receive_ns_per_call":             selfPerCall(lOMCReceive),
		"omc.share":                           share(omcLayers...),
		"omc.versions_per_kaccess":            1000 * ratio(ovc("versions_received"), ovAcc),
		"omc.entries_merged":                  ovc("entries_merged"),
		"omc.epochs_merged":                   ovc("epochs_merged"),
		"mem.plane_apply_ns_per_call":         perCall(lPlaneApply, 1),
		"mem.nvm_writes_per_kaccess":          1000 * ratio(ovc("writes_data", "writes_meta", "writes_context", "writes_log"), ovAcc),
		"mem.nvm_stall_cycles_per_access":     ratio(ovc("stall_cycles"), ovAcc),
		"cst.self_ns_per_access":              selfPerCall(lCST),
		"cst.share":                           share(lCST),
		"cst.epoch_advances":                  ovc("epoch_advances"),
		"cst.tag_walks":                       ovc("tag_walks"),
		"cst.walk_evicts_per_kaccess":         1000 * ratio(ovc("evict_walk"), ovAcc),
		"trace.self_ns_per_access":            ratio(self(lDriver), tracedAccesses),
		"trace.share":                         share(lDriver),
		"omc.minver_us_per_call":              selfPerCall(lOMCMinVer) / 1e3,
		"omc.minver_messages":                 ovc("minver_messages"),
		"mem.plane_seal_ms_per_call":          perCall(lPlaneSeal, 1e6),
		"mem.plane_seals":                     perRound(float64(t.calls[lPlaneSeal])),
		"mem.share":                           share(memLayers...),
		"omc.seal_ms":                         perCall(lOMCSeal, 1e6),
		"mem.fs_sync_us_per_call":             perCall(lFSSync, 1e3),
		"mem.fs_syncs":                        perRound(float64(t.calls[lFSSync])),
		"mem.fs_bytes_written_per_store":      ratio(perRound(float64(t.fsBytes)), float64(k.durableStores)),
		"go.gc_cycles":                        1e6 * ratio(gcs, untracedAccesses),
		"trace.overhead_pct":                  100 * (ratio(median(untracedAPS), median(tracedAPS)) - 1),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling back
// to the Go runtime's total OS memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return float64(readMem().Sys) / (1 << 20)
}

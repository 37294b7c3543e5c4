package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny runs a workload at 1/200 of its access budget, one round per kind.
func tiny(t *testing.T, workload string, seed int64, traced bool) (*runner, result) {
	t.Helper()
	var out bytes.Buffer
	r, err := newRunner(options{workload: workload, seed: seed, traced: traced, minRounds: 1, shrink: 200}, &out)
	if err != nil {
		t.Fatal(err)
	}
	r.run()
	if err := r.report(&out, r.result()); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: result %+v\n%s", workload, res, out.String())
	}
	return r, res
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			_, res := tiny(t, w.name, 1, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := tiny(t, w.name, 7, false)
		b, _ := tiny(t, w.name, 7, false)
		c, _ := tiny(t, w.name, 8, false)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a.digest())
		}
	}
}

// TestTracedDigestEqualsUntraced: tiny() fails on any failed cell, and a
// traced round whose simulated outputs differ from the first untraced
// round's is a failed cell. The traced NVOverlay is rebuilt from its
// parts, so this also pins the rebuild to core.New.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		r, _ := tiny(t, w.name, 3, true)
		if r.roundCount(true) == 0 {
			t.Errorf("%s: no traced round ran", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesVocabulary keeps BENCHMARK.json and the metric
// vocabulary the program reports in step.
func TestBenchmarkJSONMatchesVocabulary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

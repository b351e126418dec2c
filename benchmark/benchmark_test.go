package main

import (
	"math"
	"regexp"
	"testing"
)

// testConfig shrinks a workload to a twentieth of its size and a
// sub-second measured phase.
func testConfig(t *testing.T, sp *spec, seed int64) runConfig {
	return runConfig{
		sp: sp, seed: seed, seconds: 0.2, scale: 0.05,
		clients: defaultClients(), setups: 1, outDir: t.TempDir(), log: t.Logf,
	}
}

// Every name in BENCHMARK.json is well-formed, listed once, and emitted by
// every workload in the mode that owns it, with a finite value and the
// unit the file states; the oracle passes on the way. (The regime guards
// apply to the full-size workloads only, see runOnce.)
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf, _, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s listed twice", m.Name)
		}
		units[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		if _, dup := units[m.Name]; dup {
			t.Errorf("%s listed twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	for name := range units {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		if def, ok := metricByName(name); !ok || def.Unit != units[name] {
			t.Errorf("%s: not a metric the benchmark computes with unit %q", name, units[name])
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		sp := specByName(w.Name)
		if sp == nil {
			t.Fatalf("workload %q is not implemented", w.Name)
		}
		if !nameRE.MatchString(w.Name) || w.Why != sp.why {
			t.Errorf("workload %q: malformed name, or its why differs from the spec's", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOnce(testConfig(t, sp, 3), bf, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := len(bf.EndToEnd)
			if traced {
				want = len(bf.PerLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", w.Name, traced, len(res.Metrics), want)
			}
			for name, mv := range res.Metrics {
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit == "" || mv.Unit != units[name] {
					t.Errorf("%s traced=%v: %s = %v %q", w.Name, traced, name, mv.Value, mv.Unit)
				}
				if !traced && mv.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
		}
	}
}

// Two traced runs of one seed replay the same op stream and count the same
// things; another seed gives another stream.
func TestTraceCountsRepeat(t *testing.T) {
	exact := []string{"graph.edges_per_read", "forest.trees", "forest.migrations", "forest.init_keys",
		"storage.write_ops_per_op", "storage.bytes_written_per_op", "bwtree.splits", "bwtree.consolidations_per_write"}
	for _, sp := range []*spec{followHot} {
		v1, r1, err := runTraced(testConfig(t, sp, 7))
		if err != nil {
			t.Fatal(err)
		}
		v2, r2, err := runTraced(testConfig(t, sp, 7))
		if err != nil {
			t.Fatal(err)
		}
		if r1.ops != r2.ops || r1.classOps != r2.classOps || r1.edges != r2.edges || r1.digest != r2.digest {
			t.Errorf("%s: same seed, different streams: ops %d/%d classes %v/%v edges %d/%d digest %x/%x",
				sp.name, r1.ops, r2.ops, r1.classOps, r2.classOps, r1.edges, r2.edges, r1.digest, r2.digest)
		}
		for _, name := range exact {
			if v1[name] != v2[name] {
				t.Errorf("%s: %s = %v then %v with one seed", sp.name, name, v1[name], v2[name])
			}
		}
		_, r3, err := runTraced(testConfig(t, sp, 8))
		if err != nil {
			t.Fatal(err)
		}
		if r3.classOps == r1.classOps && r3.digest == r1.digest {
			t.Errorf("%s: seeds 7 and 8 produced the same op stream", sp.name)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := benchMetric{Name: "read_p50_us", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	ungated := benchMetric{Name: "ops_per_s", Better: "higher"}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		m    benchMetric
		cur  []float64
		want string
	}{
		{lower, []float64{100, 100, 101, 99, 100}, "unchanged"},
		{lower, []float64{120, 121, 119, 120, 120}, "regressed"},
		{lower, []float64{80, 81, 79, 80, 80}, "improved"},
		{higher, []float64{80, 81, 79, 80, 80}, "regressed"},
		{higher, []float64{120, 121, 119, 120, 120}, "improved"},
		{lower, []float64{60, 140, 100, 80, 120}, "unresolved"},
		// No bound: the sets' own spreads (here 1%) are the yardstick.
		{ungated, []float64{100, 100, 101, 99, 100}, "unresolved"},
		{ungated, []float64{80, 81, 79, 80, 80}, "regressed"},
		{ungated, []float64{120, 121, 119, 120, 120}, "improved"},
		{ungated, []float64{60, 140, 120, 110, 130}, "unresolved"},
	} {
		if got, _, _, _ := verdictFor(c.m, tight, c.cur); got != c.want {
			t.Errorf("%s %v: %s, want %s", c.m.Name, c.cur, got, c.want)
		}
	}
}

// The gate is a function of the spreads alone: a steady metric that exists
// everywhere is bounded at three times its spread, a noisy or absent one is
// listed without a bound, setup_s is always kept.
func TestGate(t *testing.T) {
	worst := map[string]float64{"setup_s": 0.18, "alloc_bytes_per_op": 0.02, "ops_per_s": 0.04, "cpu_us_per_op": 0.12, "write_amp": 0.01}
	everywhere := map[string]bool{"setup_s": true, "alloc_bytes_per_op": true, "ops_per_s": true, "cpu_us_per_op": true}
	e2e, layer := gate(worst, everywhere)
	bounds := map[string]float64{}
	for _, m := range e2e {
		bounds[m.Name] = m.Bound
	}
	if len(e2e) != 3 || bounds["setup_s"] != 0.25 || bounds["alloc_bytes_per_op"] != 0.06 || bounds["ops_per_s"] != 0.12 {
		t.Errorf("end_to_end = %v", e2e)
	}
	if len(e2e)+len(layer) != len(userMetrics)+len(layerMetrics) {
		t.Errorf("%d + %d metrics listed, want %d", len(e2e), len(layer), len(userMetrics)+len(layerMetrics))
	}
	for _, m := range layer {
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
}

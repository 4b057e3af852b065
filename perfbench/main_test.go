package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// memverifydBin is the server binary the service-mixed tests drive,
// built once by TestMain.
var memverifydBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	memverifydBin = filepath.Join(dir, "memverifyd")
	build := exec.Command("go", "build", "-o", memverifydBin, "memverify/cmd/memverifyd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building memverifyd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// exercised names, per workload, the per-layer metrics its traced run
// must measure from at least one sample.
var exercised = map[string][]string{
	"relay-1m": {
		"verdict_ms_p90", "verdict_ms_p99", "trace.read_ms", "memory.validate_ms",
		"memory.project_ms", "memory.project_alloc_mb", "memory.check_coherent_ms",
		"fast.solve_ms", "fast.alloc_mb", "fast.decided_frac", "bench.trace_overhead_frac",
	},
	"fig41-sweep": {
		"verdict_ms_p90", "verdict_ms_p99", "trace.read_ms", "memory.validate_ms",
		"memory.project_ms", "memory.check_coherent_ms", "fast.solve_ms", "fast.alloc_mb",
		"fast.decided_frac", "fast.inconclusive_ms_p50",
		"search.ms_p50", "search.states", "search.states_per_s", "search.memo_hit_rate",
		"psearch.ms_p50", "psearch.speedup_p50", "psearch.slowdown_frac",
		"bench.trace_overhead_frac",
	},
	"service-mixed": {
		"verdict_ms_p90", "verdict_ms_p99", "trace.read_ms", "memory.validate_ms",
		"memory.project_ms", "memory.check_coherent_ms", "specialist.readmap_ms",
		"batch.jobs_per_s", "service.batched_frac",
		"service.parse_ms_p50", "service.queue_ms_p99", "service.solve_ms_p50",
		"service.solve_ms_p99", "service.merge_ms_p50", "service.cache_hit_frac",
		"service.shed", "service.degraded", "loadgen.late_ms_p99", "bench.trace_overhead_frac",
	},
}

func quickConfig(workload string, traced bool) config {
	return config{
		workload:   workload,
		seed:       7,
		seconds:    0.3,
		traced:     traced,
		memverifyd: memverifydBin,
		quick:      true,
	}
}

// TestQuickRunsReportEveryMetric runs each workload at quick size,
// untraced and traced, and checks that every declared metric is printed
// with its unit, that every verdict matched its known answer, and that
// the traced run measured each layer the workload exercises.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	for wl, layers := range exercised {
		for _, traced := range []bool{false, true} {
			res, meta, err := run(context.Background(), quickConfig(wl, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.name, got.Value)
				}
			}
			if !traced {
				continue
			}
			for _, name := range layers {
				if meta.Samples[name] == 0 {
					t.Errorf("%s: traced run measured %s from no samples", wl, name)
				}
			}
			if wl == "service-mixed" && res.Metrics["service.cache_hit_frac"].Value != 0 {
				t.Errorf("service-mixed: cache answered %v of requests, want none", res.Metrics["service.cache_hit_frac"].Value)
			}
		}
	}
}

// TestPlantedWrongAnswerFails flips one known answer and checks that
// each workload reports the run as incorrect.
func TestPlantedWrongAnswerFails(t *testing.T) {
	for wl := range exercised {
		cfg := quickConfig(wl, false)
		cfg.plantWrong = true
		res, meta, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Correct || meta.Wrong == 0 {
			t.Errorf("%s: planted wrong answer went unnoticed (correct=%v wrong=%d)", wl, res.Correct, meta.Wrong)
		}
	}
}

// TestUnknownWorkload checks that a misspelt workload is an error, not
// an empty result.
func TestUnknownWorkload(t *testing.T) {
	if _, _, err := run(context.Background(), config{workload: "relay", seconds: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestDeclaredMetricsMatch checks that BENCHMARK.json at the repository
// root declares exactly the metrics, with the units, this package
// prints.
func TestDeclaredMetricsMatch(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, perfbench prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].Name != c.want[i].name || c.got[i].Unit != c.want[i].unit {
				t.Errorf("%s[%d]: declared %s in %s, printed %s in %s",
					c.kind, i, c.got[i].Name, c.got[i].Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, perfbench runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s has no runner", w.Name)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

type layerMap struct {
	Edges []struct {
		Layer     string   `json:"layer"`
		Metrics   []string `json:"metrics"`
		Moves     []string `json:"moves"`
		Workloads []string `json:"workloads"`
	} `json:"edges"`
}

func loadFiles(t *testing.T) (*spec, *layerMap) {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m layerMap
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	return s, &m
}

// TestSpecMatchesCode checks BENCHMARK.json names exactly the workloads
// the benchmark runs, that set-up time is among the end-to-end metrics,
// and that layers.json maps every per-layer metric and names only
// defined metrics and workloads.
func TestSpecMatchesCode(t *testing.T) {
	s, m := loadFiles(t)
	var inSpec, inCode []string
	for _, w := range s.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	sort.Strings(inSpec)
	sort.Strings(inCode)
	if len(inSpec) != len(inCode) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", inSpec, inCode)
	}
	for i := range inSpec {
		if inSpec[i] != inCode[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", inSpec, inCode)
		}
	}
	defined := map[string]bool{}
	units := map[string]string{}
	for _, ms := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, mt := range ms {
			if defined[mt.Name] {
				t.Errorf("metric %s defined twice", mt.Name)
			}
			if mt.Unit == "" {
				t.Errorf("metric %s has no unit", mt.Name)
			}
			defined[mt.Name] = true
			units[mt.Name] = mt.Unit
		}
	}
	if units["setup_s"] != "s" {
		t.Errorf("setup_s missing from end_to_end or not in seconds")
	}
	mapped := map[string]bool{}
	for _, e := range m.Edges {
		for _, name := range append(append([]string(nil), e.Metrics...), e.Moves...) {
			if !defined[name] {
				t.Errorf("layers.json %s: %s is not a metric in BENCHMARK.json", e.Layer, name)
			}
		}
		for _, w := range e.Workloads {
			if workloadByName(w) == nil {
				t.Errorf("layers.json %s: unknown workload %s", e.Layer, w)
			}
		}
		for _, name := range e.Metrics {
			mapped[name] = true
		}
	}
	for _, mt := range s.PerLayer {
		if !mapped[mt.Name] {
			t.Errorf("per-layer metric %s is not mapped in layers.json", mt.Name)
		}
	}
}

// TestRunsEmitEveryMetric runs every workload briefly in both modes and
// checks each emits every metric BENCHMARK.json names for the mode,
// finite and with its unit, and passes the output checks.
func TestRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s, _ := loadFiles(t)
	for _, w := range workloads {
		cfg := runConfig{w: w, seed: 7, dur: time.Second, spans: t.TempDir()}
		for _, traced := range []bool{false, true} {
			run := runLoad
			if traced {
				run = runTraced
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := s.validate(res.metrics, traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(res.bad) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", w.name, traced, res.bad)
			}
			if res.attempted < 1 {
				t.Errorf("%s traced=%v: nothing attempted", w.name, traced)
			}
		}
	}
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark checks itself
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// validate checks the run emitted exactly the metrics BENCHMARK.json
// names for its mode, each finite and with the named unit.
func (s *spec) validate(got map[string]metric, traced bool) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	var problems []string
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, m.Name+" not emitted")
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			problems = append(problems, fmt.Sprintf("%s = %v", m.Name, g.Value))
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !names[name] {
			problems = append(problems, name+" emitted but not in BENCHMARK.json")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// hostInfo records where and how the result was taken.
func hostInfo(cfg runConfig, traced int, res *result) map[string]any {
	commit := os.Getenv("BENCH_COMMIT") // run.sh sets it from git
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"workload":      cfg.w.name,
		"seed":          cfg.seed,
		"seconds":       cfg.dur.Seconds(),
		"trace":         traced,
		"clients":       1,
		"params":        workloadParams(cfg.w),
		"samples":       res.samples,
		"peak_rss_mb":   peakRSSMB(),
	}
}

// peakRSSMB reads the process's peak resident set from /proc, or -1
// where there is none.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return -1
}

func workloadParams(w *workload) map[string]any {
	if w.dataset == "zipf" {
		return map[string]any{"rows": ZipfRows, "pivot": "c0", "pivot_card": ZipfPivot,
			"other_card": ZipfOther, "zipf_s": ZipfS, "head_values": wideHead, "k": 3}
	}
	p := map[string]any{"rows": UsedCarsRows, "table": "UsedCars", "page_limit": PageLimit}
	if w.name != "explore" {
		p["hot_set"] = 2 * len(cadPivots)
	}
	if w.ingest {
		p["ingest_batch"] = IngestBatch
	}
	return p
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

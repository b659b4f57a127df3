package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// benchSpec mirrors BENCHMARK.json at the root of the repository. The file
// is the single list of metric names, units, directions and bounds; the
// benchmark reads it at start-up so a run and the file cannot disagree.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json from dir or, when the benchmark runs from
// its own directory, from dir's parent.
func loadSpec(dir string) (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, s.validate()
	}
	return nil, firstErr
}

func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("BENCHMARK.json: %d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("BENCHMARK.json: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("BENCHMARK.json: %d per-layer metrics, want 1..128", n)
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := use("metric", m.Name); err != nil {
			return err
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("BENCHMARK.json: metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			return fmt.Errorf("BENCHMARK.json: metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}

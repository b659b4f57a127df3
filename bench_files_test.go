package pbg

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchFiles checks every BENCH_*.json at the root of the repository:
// the result files `bash benchmark/run.sh -runs N -out BENCH_<n>.json`
// writes, which a performance claim is a diff between (`bash
// benchmark/run.sh -compare BENCH_<a>.json BENCH_<b>.json`). There must be
// at least one. Each must parse, every run in it must be correct, it must
// hold an untraced run of every workload BENCHMARK.json declares, and every
// untraced run must report a value for every end-to-end metric
// BENCHMARK.json declares.
func TestBenchFiles(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no workload or no end-to-end metric")
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json at the root of the repository")
	}
	for _, file := range files {
		var res struct {
			Fingerprint map[string]string `json:"fingerprint"`
			Runs        []struct {
				Workload string `json:"workload"`
				Seed     uint64 `json:"seed"`
				Trace    int    `json:"trace"`
				Correct  bool   `json:"correct"`
				Metrics  map[string]struct {
					Value *float64 `json:"value"`
				} `json:"metrics"`
			} `json:"runs"`
		}
		readJSON(t, file, &res)
		if res.Fingerprint["cpu"] == "" || res.Fingerprint["nproc"] == "" {
			t.Errorf("%s: the fingerprint names no machine: %v", file, res.Fingerprint)
		}
		untraced := map[string]int{}
		for i, run := range res.Runs {
			if !run.Correct {
				t.Errorf("%s: run %d (%s seed %d) is not correct", file, i, run.Workload, run.Seed)
			}
			if run.Trace != 0 {
				continue // a traced run reports the per-layer rows
			}
			untraced[run.Workload]++
			for _, m := range spec.EndToEnd {
				v, ok := run.Metrics[m.Name]
				if !ok || v.Value == nil {
					t.Errorf("%s: run %d (%s seed %d) has no %s", file, i, run.Workload, run.Seed, m.Name)
				}
			}
		}
		for _, w := range spec.Workloads {
			if untraced[w.Name] == 0 {
				t.Errorf("%s: no untraced run of workload %s", file, w.Name)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runRecord is one run's contract result plus what produced it; result
// files (-out, -pairs) are lists of these under a machine fingerprint.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

type resultFile struct {
	Fingerprint map[string]string `json:"fingerprint"`
	Runs        []runRecord       `json:"runs"`
}

// fingerprint records what a result file's numbers depend on besides the
// code: they compare only within one machine.
func fingerprint() map[string]string {
	fp := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(min(runtime.NumCPU(), 4)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp["commit"] = strings.TrimSpace(string(out))
	}
	return fp
}

func writeResultFile(path string, runs []runRecord) error {
	b, err := json.MarshalIndent(resultFile{Fingerprint: fingerprint(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// execRun runs one workload in a fresh process — argv in dir — so no run
// inherits another's heap, page cache warmth aside. It returns the parsed
// contract line and the human-readable lines before it. A run that exits
// non-zero but printed a result (a violated gate) is returned, not an error.
func execRun(argv []string, dir, workload string, seed uint64, secs float64, trace int) (runRecord, string, error) {
	args := append(append([]string(nil), argv[1:]...),
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd := exec.Command(argv[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	rec := runRecord{Workload: workload, Seed: seed, Trace: trace}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil || rec.Metrics == nil {
		return rec, "", fmt.Errorf("%s seed %d: no result line (%v): %s", workload, seed, runErr, strings.TrimSpace(stderr.String()))
	}
	return rec, strings.Join(lines[:len(lines)-1], "\n") + "\n", nil
}

// selfArgv is the command that re-runs this binary.
func selfArgv() ([]string, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return []string{self}, nil
}

// runAll is the one command: every workload, each run in a fresh process,
// untraced (the end-to-end numbers) and then traced (the per-layer
// numbers), the gap between the two reported as the tracing overhead.
func runAll(spec *benchSpec, runs int, secs float64, out string, stdout io.Writer) error {
	argv, err := selfArgv()
	if err != nil {
		return err
	}
	fp := fingerprint()
	fmt.Fprintf(stdout, "# machine: cpu=%q nproc=%s GOMAXPROCS=%s %s commit=%s\n", fp["cpu"], fp["nproc"], fp["gomaxprocs"], fp["go"], fp["commit"])
	var all []runRecord
	bad := 0
	for _, w := range spec.Workloads {
		var untraced []float64
		for i := 0; i < runs; i++ {
			rec, human, err := execRun(argv, "", w.Name, defaultSeeds[i%len(defaultSeeds)], secs, 0)
			if err != nil {
				return err
			}
			io.WriteString(stdout, human)
			all = append(all, rec)
			bad += boolInt(!rec.Correct)
			untraced = append(untraced, rec.Metrics[headlineMetric].Value)
		}
		rec, human, err := execRun(argv, "", w.Name, defaultSeeds[0], secs, 1)
		if err != nil {
			return err
		}
		io.WriteString(stdout, human)
		all = append(all, rec)
		bad += boolInt(!rec.Correct)
		// The traced run also prints its end-to-end numbers; find the
		// headline among them to price the tracing.
		if traced, ok := parseHuman(human, headlineMetric); ok && median(untraced) > 0 {
			fmt.Fprintf(stdout, "%-44s %14.6g share  (%s: untraced %.6g, traced %.6g on %s)\n",
				"obs.tracing_overhead_share", (median(untraced)-traced)/median(untraced), headlineMetric, median(untraced), traced, w.Name)
		}
	}
	if out != "" {
		if err := writeResultFile(out, all); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d runs violated a correctness check", bad, len(all))
	}
	fmt.Fprintf(stdout, "ok: %d runs, every correctness check passed\n", len(all))
	return nil
}

// headlineMetric is the end-to-end metric the tracing overhead is priced on.
const headlineMetric = "throughput_per_s"

// parseHuman finds a metric's value in a run's human-readable lines.
func parseHuman(human, name string) (float64, bool) {
	for _, line := range strings.Split(human, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// runSet runs every workload once per seed, untraced, in fresh processes.
func runSet(spec *benchSpec, argv []string, dir string, seeds []uint64, secs float64, log io.Writer) ([]runRecord, error) {
	var recs []runRecord
	for _, w := range spec.Workloads {
		for _, seed := range seeds {
			rec, _, err := execRun(argv, dir, w.Name, seed, secs, 0)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "ran %s seed %d correct=%v\n", w.Name, seed, rec.Correct)
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// runSelfcheck measures the same code twice — set A, then set B, the default
// seeds on every workload — and requires the two to agree on every
// end-to-end metric within that metric's own bound; then the held-out seed
// must pass the correctness gate on every workload.
func runSelfcheck(spec *benchSpec, secs float64, stdout io.Writer) error {
	argv, err := selfArgv()
	if err != nil {
		return err
	}
	var sets [2][]runRecord
	for i := range sets {
		if sets[i], err = runSet(spec, argv, "", defaultSeeds, secs, stdout); err != nil {
			return err
		}
	}
	rows := compareRuns(spec, sets[0], sets[1])
	printComparison(stdout, rows)
	fail := 0
	for _, row := range rows {
		// The same code on both sides: a median that moved by more than
		// the bound, in either direction, is the benchmark's own noise.
		if math.Abs(row.Change) > row.Bound {
			fmt.Fprintf(stdout, "FAIL: %s %s moved %+.1f%% between two sets of runs of the same code (bound %.0f%%)\n", row.Workload, row.Metric, 100*row.Change, 100*row.Bound)
			fail++
		}
	}
	held, err := runSet(spec, argv, "", []uint64{heldOutSeed}, secs, stdout)
	if err != nil {
		return err
	}
	for _, rec := range append(append(sets[0], sets[1]...), held...) {
		if !rec.Correct {
			fmt.Fprintf(stdout, "FAIL: %s seed %d violated a correctness check\n", rec.Workload, rec.Seed)
			fail++
		}
	}
	if fail > 0 {
		return fmt.Errorf("selfcheck: %d problems", fail)
	}
	fmt.Fprintln(stdout, "ok: two sets of runs agree within every bound; held-out seed passes")
	return nil
}

// runPairs measures two checkouts against each other: for every workload,
// n pairs of runs with the same seed on both sides, alternating which side
// runs first so that drift in the machine lands on both.
func runPairs(spec *benchSpec, dirA, dirB string, n int, secs float64, stdout io.Writer) error {
	if dirA == "" || dirB == "" {
		return fmt.Errorf("-pairs needs -a <parent checkout> and -b <change checkout>")
	}
	dirs := [2]string{dirA, dirB}
	var sides [2][]runRecord
	for _, w := range spec.Workloads {
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				rec, _, err := execRun(spec.Command, dirs[side], w.Name, pairSeedBase+uint64(i), secs, 0)
				if err != nil {
					return fmt.Errorf("side %c: %w", 'a'+side, err)
				}
				fmt.Fprintf(stdout, "pair %d side %c: %s correct=%v\n", i, 'a'+side, w.Name, rec.Correct)
				sides[side] = append(sides[side], rec)
			}
		}
	}
	for side, name := range [2]string{"pairs-a.json", "pairs-b.json"} {
		if err := writeResultFile(filepath.Join("benchmark", "out", name), sides[side]); err != nil {
			return err
		}
	}
	return reportComparison(spec, sides[0], sides[1], stdout)
}

// pairSeedBase keeps the paired runs' seeds apart from the default seeds.
const pairSeedBase = 100

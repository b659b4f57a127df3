// Command benchmark is the repository's performance benchmark: four
// workloads (kg_mem, social_ooc, social_dist, serve_topk), end-to-end
// metrics from untraced runs and per-layer metrics from traced ones, a
// correctness gate on every run. README.md in this directory defines every
// metric; BENCHMARK.json at the root of the repository lists them.
//
//	bash benchmark/run.sh                                  all workloads, untraced and traced
//	bash benchmark/run.sh --workload kg_mem --seed 1 --seconds 22 --trace 0
//	bash benchmark/run.sh -selfcheck
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -pairs 10 -a ../parent -b .
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workloadDef binds a workload's name to its run function and the layers it
// does not touch (whose per-layer rows therefore read 0 on it).
type workloadDef struct {
	run       func(*run) error
	probeDim  int
	untouched []string
}

var workloadDefs = map[string]workloadDef{
	"kg_mem":      {run: runKGMem, probeDim: kgMemShape.dim, untouched: []string{"graph.", "partition.", "dist.", "serve."}},
	"social_ooc":  {run: runSocialOOC, probeDim: socialOOCShape.dim, untouched: []string{"dist.", "serve.", "storage.checkpoint_s"}},
	"social_dist": {run: runSocialDist, probeDim: socialDistShape.dim, untouched: []string{"storage.", "graph.", "partition.", "serve."}},
	"serve_topk":  {run: runServeTopK, probeDim: serveShape.dim, untouched: []string{"train.", "eval.", "graph.", "partition.", "dist.", "storage."}},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print the contract result line; empty runs all four, untraced then traced")
		seed      = fs.Uint64("seed", defaultSeeds[0], "inputs are generated from this seed")
		secs      = fs.Float64("seconds", defaultSeconds, "seconds of measured work per run")
		trace     = fs.Int("trace", 0, "1 records spans, reports the per-layer metrics and writes <outdir>/<workload>.trace.json")
		outDir    = fs.String("outdir", filepath.Join("benchmark", "out"), "directory for trace files")
		scratch   = fs.String("scratch", filepath.Join(".bench_build", "tmp"), "scratch directory for shard files and checkpoints")
		out       = fs.String("out", "", "all-workloads mode: also write every run's result to this JSON file")
		runs      = fs.Int("runs", 1, "all-workloads mode: untraced runs per workload, one per default seed")
		compare   = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		pairs     = fs.Int("pairs", 0, "run this many alternating pairs per workload of the checkouts -a and -b, then compare")
		sideA     = fs.String("a", "", "-pairs: checkout of the parent commit")
		sideB     = fs.String("b", "", "-pairs: checkout of the change")
		selfcheck = fs.Bool("selfcheck", false, "two sets of runs of this code must agree within every bound; the held-out seed must pass")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	spec, err := loadSpec(".")
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare && fs.NArg() != 2:
		err = fmt.Errorf("-compare takes two result files")
	case *compare:
		err = compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
	case *pairs > 0:
		err = runPairs(spec, *sideA, *sideB, *pairs, *secs, stdout)
	case *selfcheck:
		err = runSelfcheck(spec, *secs, stdout)
	case *workload == "":
		err = runAll(spec, *runs, *secs, *out, stdout)
	default:
		err = runOne(spec, *workload, *seed, *secs, *trace != 0, *scratch, *outDir, stdout)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runOne is the driver's mode: one workload in this process, every measured
// metric by name, then the contract's result line last.
func runOne(spec *benchSpec, name string, seed uint64, secs float64, traced bool, scratch, outDir string, stdout io.Writer) error {
	res, r, err := runWorkload(spec, name, seed, secs, traced, scratch, outDir)
	if err != nil {
		return err
	}
	r.report(stdout)
	if err := printResult(stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s seed %d violated %d correctness checks", name, seed, len(r.violations))
	}
	return nil
}

// runWorkload runs one workload in this process and returns its contract
// result. The scratch directory is removed before it returns, after the
// workload has closed everything it opened there.
func runWorkload(spec *benchSpec, name string, seed uint64, secs float64, traced bool, scratch, outDir string) (result, *run, error) {
	def, ok := workloadDefs[name]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	r, err := newRun(spec, name, seed, secs, traced, scratch)
	if err != nil {
		return result{}, nil, err
	}
	runErr := def.run(r)
	if runErr == nil && traced {
		runErr = r.runProbes(def.probeDim)
	}
	if runErr == nil {
		r.reportRuntime()
		for _, prefix := range def.untouched {
			r.untouched(prefix)
		}
		runErr = r.writeTrace(outDir)
	}
	if err := r.cleanup(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, runErr)
	}
	return r.finish(), r, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadDefs))
	for n := range workloadDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

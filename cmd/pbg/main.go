// Command pbg runs every step of a training run over one run directory:
//
//	pbg import -config C.json -synthetic social -nodes 10000 -dir D
//	pbg import -config C.json -in edges.tsv -dir D
//	pbg train  -dir D [-workers 4] [-obs-addr 127.0.0.1:9090]
//	pbg eval   -dir D [-k 1000] [-prevalence] [-filtered] [-max 2000]
//	pbg serve  -dir D [-listen :7421] [-build-index]
//	pbg serve  -connect host:7421 -rel 0 -src 12 -k 10
//	pbg node   -dir D -role lock|partition|param|trainer …
//
// import writes D once: D/config.json holds C's settings plus the schema the
// input produced, and D/train.edges and D/test.edges the input's edges,
// split by eval_fraction. Every other subcommand reads its settings from
// D/config.json and from nothing else; its flags are what differs between
// the processes of one run (workers, addresses, ranks, observability) and
// eval's and serve's own options. train checkpoints into D, where eval and
// serve read the model, and the trainers of a distributed run read
// D/train.edges, the shared filesystem of the paper's Figure 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pbg"
	"pbg/internal/config"
	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

const (
	trainEdges = "train.edges" // a run directory's training edges
	testEdges  = "test.edges"  // and its held-out ones
	dirUsage   = "run directory written by pbg import"
	obsUsage   = "serve /metrics, /trace and /debug/pprof on this address (empty = off)"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pbg:", err)
		os.Exit(1)
	}
}

var commands = map[string]func(args []string, out io.Writer) error{
	"import": runImport,
	"train":  runTrain,
	"eval":   runEval,
	"serve":  runServe,
	"node":   runNode,
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 || commands[args[0]] == nil {
		return errors.New("usage: pbg import|train|eval|serve|node [flags]; pbg <subcommand> -h lists its flags")
	}
	fmt.Fprintln(out, "vec kernels:", vec.Kernel())
	return commands[args[0]](args[1:], out)
}

// runDir is an imported run directory: its config and the schema that
// config describes.
type runDir struct {
	dir    string
	cfg    *config.Config
	schema *graph.Schema
}

// openRun opens the run directory dir and reads the named edge files of it
// as graphs over its schema.
func openRun(dir string, edges ...string) (*runDir, []*graph.Graph, error) {
	if dir == "" {
		return nil, nil, errors.New("-dir is required")
	}
	cfg, schema, err := config.Load(dir)
	gs := make([]*graph.Graph, len(edges))
	for i := 0; err == nil && i < len(edges); i++ {
		var el *graph.EdgeList
		if el, err = storage.ReadEdges(filepath.Join(dir, edges[i])); err == nil {
			gs[i], err = graph.NewGraph(schema, el)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return &runDir{dir: dir, cfg: cfg, schema: schema}, gs, nil
}

// startObs serves a new hub's /metrics, /trace and /debug/pprof on addr
// for the rest of the process. Without an addr it returns a nil hub, which
// every consumer takes for observability off.
func startObs(addr string, out io.Writer) (*obs.Hub, error) {
	if addr == "" {
		return nil, nil
	}
	hub := obs.NewHub()
	hub.Reg.Gauge(vec.KernelMetric()).Set(1)
	srv, err := hub.Serve(addr)
	if err == nil {
		fmt.Fprintf(out, "observability on http://%s (/metrics, /trace, /debug/pprof/)\n", srv.Addr())
	}
	return hub, err
}

// runTrain trains the run's train.edges out of core in D and checkpoints
// there: shards swap through D and end there, beside relations.pbg.
func runTrain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	dir := fs.String("dir", "", dirUsage)
	workers := fs.Int("workers", 4, "HOGWILD worker goroutines")
	obsAddr := fs.String("obs-addr", "", obsUsage)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rd, gs, err := openRun(*dir, trainEdges)
	if err != nil {
		return err
	}
	g, cfg := gs[0], rd.cfg.Train()
	cfg.Workers = *workers
	if cfg.Obs, err = startObs(*obsAddr, out); err != nil {
		return err
	}
	if cfg.MemBudgetBytes > 0 {
		plan, err := train.PlanOrderFor(g.Schema, cfg.Dim, cfg.MemBudgetBytes, "")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "bucket order:", plan)
	}
	m, err := pbg.TrainOnDiskWithCallback(g, rd.dir, cfg, func(st train.EpochStats) { fmt.Fprintln(out, st.Summary()) })
	if err != nil {
		return err
	}
	err = m.Checkpoint(rd.dir)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(out, "checkpoint written to %s\n", rd.dir)
	}
	return err
}

// runEval ranks the run's held-out test.edges against the model train
// checkpointed in D, writing nothing into D.
func runEval(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	dir := fs.String("dir", "", dirUsage)
	k := fs.Int("k", 1000, "candidates per test edge (0 = every entity)")
	prevalence := fs.Bool("prevalence", false, "sample candidates by training prevalence (§5.4.2)")
	filtered := fs.Bool("filtered", false, "filtered metrics: no known edge is a candidate (§5.4.1)")
	maxEdges := fs.Int("max", 2000, "test edges to rank (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rd, gs, err := openRun(*dir, trainEdges, testEdges)
	if err != nil {
		return err
	}
	trainG, testG := gs[0], gs[1]
	opts := pbg.EvalOptions{Candidates: *k, ByPrevalence: *prevalence, Filtered: *filtered, MaxEdges: *maxEdges, Seed: rd.cfg.Seed}
	if *filtered {
		opts.Known = []*pbg.EdgeList{testG.Edges}
	}
	metrics, err := pbg.EvaluateCheckpoint(trainG, rd.dir, rd.cfg.Train(), testG, opts)
	if err == nil {
		fmt.Fprintln(out, metrics)
	}
	return err
}

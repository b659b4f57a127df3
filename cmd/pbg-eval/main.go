// Command pbg-eval runs link-prediction evaluation for a trained model on a
// held-out edge split. Because checkpoints store only parameters, the graph
// is regenerated (synthetic graphs are deterministic under their seed) or
// reloaded the same way pbg-train built it.
//
// Example:
//
//	pbg-eval -synthetic social -nodes 10000 -dim 64 -ckpt /tmp/ckpt -k 1000
package main

import (
	"flag"
	"fmt"
	"log"

	"pbg"
	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

func main() {
	var (
		synthetic = flag.String("synthetic", "social", "social, knowledge, bipartite")
		nodes     = flag.Int("nodes", 10000, "nodes/entities")
		relations = flag.Int("relations", 20, "relations for knowledge graphs")
		avgDeg    = flag.Int("degree", 10, "average degree")
		dim       = flag.Int("dim", 64, "embedding dimension")
		ckpt      = flag.String("ckpt", "", "checkpoint directory written by pbg-train")
		k         = flag.Int("k", 1000, "candidates per test edge (0 = all)")
		prevalent = flag.Bool("prevalence", false, "sample candidates by training prevalence (§5.4.2)")
		filtered  = flag.Bool("filtered", false, "filtered metrics (§5.4.1)")
		testFrac  = flag.Float64("test", 0.05, "test split fraction")
		maxEdges  = flag.Int("max", 2000, "max test edges to rank")
		seed      = flag.Uint64("seed", 1, "split seed")
	)
	flag.Parse()
	if *ckpt == "" {
		log.Fatal("-ckpt is required")
	}
	fmt.Println("vec kernels:", vec.Kernel())

	var g *pbg.Graph
	var err error
	switch *synthetic {
	case "social":
		g, err = pbg.SocialGraph(pbg.SocialGraphConfig{Nodes: *nodes, AvgOutDegree: *avgDeg, Seed: 1})
	case "knowledge":
		g, err = pbg.KnowledgeGraph(pbg.KnowledgeGraphConfig{
			Entities: *nodes, Relations: *relations, Edges: *nodes * *avgDeg * 2, Seed: 1,
		})
	default:
		log.Fatalf("unknown synthetic graph %q", *synthetic)
	}
	if err != nil {
		log.Fatal(err)
	}
	trainG, _, testG := g.Split(0, *testFrac, *seed)

	// Load checkpointed shards through a DiskStore and rank with a fresh
	// scorer matching the training defaults.
	store, err := storage.NewDiskStore(*ckpt, g.Schema, *dim, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	view := train.NewStoreView(store, g.Schema)
	defer view.Close()
	deg := graph.ComputeDegrees(trainG)

	// Relation parameters from the checkpoint.
	rs, err := storage.ReadRelations(*ckpt + "/relations.pbg")
	if err != nil {
		log.Fatal(err)
	}
	src, err := newCheckpointScorers(g, *dim, rs)
	if err != nil {
		log.Fatal(err)
	}

	rk := eval.NewRanker(g.Schema, view, src, *dim, deg)
	cfg := eval.Config{K: *k, MaxEdges: *maxEdges, Seed: 1}
	switch {
	case *k == 0:
		cfg.Mode = eval.CandidatesAll
	case *prevalent:
		cfg.Mode = eval.CandidatesPrevalence
	default:
		cfg.Mode = eval.CandidatesUniform
	}
	if *filtered {
		cfg.Filtered = true
		cfg.Known = graph.NewEdgeSet(trainG.Edges, testG.Edges)
	}
	m, err := rk.Evaluate(testG.Edges, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m)
}

// newCheckpointScorers rebuilds per-relation scorers and loads the stored
// relation parameters into them (eval.ScorerSource).
func newCheckpointScorers(g *pbg.Graph, dim int, rs *storage.RelationState) (eval.ScorerSource, error) {
	// Reuse the training construction: one scorer per relation.
	store := storage.NewMemStore(g.Schema, dim, 0, 1)
	tr, err := train.New(g, store, train.Config{Dim: dim})
	if err != nil {
		return nil, err
	}
	for r := range g.Schema.Relations {
		if r < len(rs.Params) {
			tr.SetRelParams(r, rs.Params[r])
		}
	}
	return tr, nil
}

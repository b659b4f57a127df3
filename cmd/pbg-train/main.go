// Command pbg-train trains embeddings for a graph and writes a checkpoint.
//
// The input is a binary edge file written by cmd/pbg-partition (or the
// storage package); for quick experimentation the -synthetic flag generates
// one of the built-in synthetic graphs instead.
//
// Examples:
//
//	pbg-train -synthetic social -nodes 10000 -epochs 10 -dim 64 -out /tmp/ckpt
//	pbg-train -edges edges.bin -entities 50000 -partitions 8 -dim 100 -out /tmp/ckpt
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"pbg"
	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

func main() {
	var (
		synthetic  = flag.String("synthetic", "", "generate a synthetic graph: social, knowledge, bipartite")
		nodes      = flag.Int("nodes", 10000, "nodes/entities for synthetic graphs")
		relations  = flag.Int("relations", 20, "relations for synthetic knowledge graphs")
		avgDeg     = flag.Int("degree", 10, "average out-degree for synthetic graphs")
		edgesPath  = flag.String("edges", "", "binary edge file (see pbg-partition)")
		entities   = flag.Int("entities", 0, "entity count when loading -edges")
		partitions = flag.Int("partitions", 1, "partitions P for the (single) entity type")
		dim        = flag.Int("dim", 64, "embedding dimension")
		epochs     = flag.Int("epochs", 10, "training epochs")
		workers    = flag.Int("workers", 4, "HOGWILD worker goroutines")
		comparator = flag.String("comparator", "dot", "dot, cos, l2, squared_l2")
		lossName   = flag.String("loss", "ranking", "ranking, logistic, softmax")
		operator   = flag.String("operator", "", "override relation operator: identity, translation, diagonal, linear, complex_diagonal")
		lr         = flag.Float64("lr", 0.1, "Adagrad learning rate")
		seed       = flag.Uint64("seed", 1, "random seed")
		out        = flag.String("out", "", "checkpoint directory (also used for partition swapping when P > 1)")
		memBudget  = flag.String("mem-budget", "", "resident shard memory budget, e.g. 256MB or 1.5GiB (default unbounded)")
		lookahead  = flag.Int("lookahead", 0, "initial pipelined-prefetch depth (0 = default 1)")
		maxLook    = flag.Int("max-lookahead", 0, "adaptive lookahead cap (0 = default; set equal to -lookahead to pin)")
		order      = flag.String("order", "", "bucket order: inside_out (default), sequential, random, chained, budget_aware (optimises against -mem-budget)")
		codecName  = flag.String("codec", "", "shard codec: fp32 (default), fp16, int8 — quantized checkpoints shrink shard bytes 2-4x and widen every -mem-budget window")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty = off)")
	)
	flag.Parse()

	budget, err := storage.ParseByteSize(*memBudget)
	if err != nil {
		log.Fatal(err)
	}
	if err := train.ValidateRunFlags(*order, *codecName, budget, 0, *lookahead, *maxLook); err != nil {
		log.Fatal(err)
	}
	codec, err := storage.ParseCodec(*codecName)
	if err != nil {
		log.Fatal(err)
	}

	g, err := buildGraph(*synthetic, *edgesPath, *nodes, *relations, *avgDeg, *entities, *partitions)
	if err != nil {
		log.Fatal(err)
	}
	if *operator != "" {
		for i := range g.Schema.Relations {
			g.Schema.Relations[i].Operator = *operator
		}
	}
	cfg := pbg.TrainConfig{
		Dim: *dim, Epochs: *epochs, Workers: *workers,
		Comparator: *comparator, Loss: *lossName,
		LR: float32(*lr), Seed: *seed,
		Lookahead: *lookahead, MaxLookahead: *maxLook, MemBudgetBytes: budget,
		BucketOrder: *order, Codec: *codecName,
	}
	fmt.Println("vec kernels:", vec.Kernel())
	if *obsAddr != "" {
		hub := obs.NewHub()
		hub.Reg.Gauge(vec.KernelMetric()).Set(1)
		cfg.Obs = hub
		srv, err := hub.Serve(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s (/metrics, /trace, /debug/pprof/)\n", srv.Addr())
	}
	if *order == partition.OrderBudgetAware {
		plan, slots := train.PlanOrderFor(g.Schema, *dim, budget, codec)
		switch {
		case slots <= 0:
			fmt.Println("budget_aware: no usable -mem-budget; order degrades to inside_out")
		case plan.Strategy != partition.StrategyInsideOut:
			fmt.Printf("budget_aware order: %s strategy over %d resident partition slots from -mem-budget (%d projected loads vs %d inside_out)\n",
				plan.Strategy, slots, plan.Cost, plan.BaseCost)
		case plan.Cost == 0:
			// An unbounded plan: zero cost means the buffer holds the grid.
			fmt.Printf("budget_aware: %d resident partition slots hold every partition; inside_out is already optimal\n", slots)
		default:
			fmt.Printf("budget_aware: keeping inside_out (no candidate beat its %d projected loads over %d resident partition slots)\n",
				plan.BaseCost, slots)
		}
	}
	onEpoch := func(st train.EpochStats) { fmt.Println(st.Summary()) }
	var m *pbg.Model
	if *partitions > 1 && *out != "" {
		m, err = pbg.TrainOnDiskWithCallback(g, *out, cfg, onEpoch)
		if err == nil {
			fmt.Printf("trained with partition swapping under %s\n", *out)
		}
	} else {
		m, err = pbg.TrainWithCallback(g, cfg, onEpoch)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := m.Checkpoint(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *out)
	}
}

func buildGraph(synthetic, edgesPath string, nodes, relations, avgDeg, entities, partitions int) (*pbg.Graph, error) {
	switch {
	case synthetic == "social":
		return pbg.SocialGraph(pbg.SocialGraphConfig{
			Nodes: nodes, AvgOutDegree: avgDeg, NumPartitions: partitions, Seed: 1,
		})
	case synthetic == "knowledge":
		return pbg.KnowledgeGraph(pbg.KnowledgeGraphConfig{
			Entities: nodes, Relations: relations, Edges: nodes * avgDeg * 2,
			NumPartitions: partitions, Seed: 1,
		})
	case synthetic == "bipartite":
		return pbg.BipartiteGraph(pbg.BipartiteGraphConfig{
			Users: nodes, Items: nodes / 100, Edges: nodes * avgDeg,
			UserPartitions: partitions, Seed: 1,
		})
	case synthetic != "":
		return nil, fmt.Errorf("unknown synthetic graph %q", synthetic)
	case edgesPath != "":
		if entities <= 0 {
			return nil, fmt.Errorf("-entities required with -edges")
		}
		el, err := storage.ReadEdges(edgesPath)
		if err != nil {
			return nil, err
		}
		return pbg.NewGraph(
			[]graph.EntityType{{Name: "node", Count: entities, NumPartitions: partitions}},
			[]graph.RelationType{{Name: "edge", SourceType: "node", DestType: "node", Operator: "identity"}},
			el,
		)
	default:
		flag.Usage()
		os.Exit(2)
		return nil, nil
	}
}

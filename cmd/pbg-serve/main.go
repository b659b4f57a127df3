// Command pbg-serve exposes a trained checkpoint as an online embedding
// service: memory-mapped shard reads, batched exact top-K, and IVF
// approximate top-K over the framed RPC front end. Because checkpoints
// store only parameters, the schema is regenerated the same way pbg-train
// built it (synthetic graphs are deterministic under their seed).
//
// Server:
//
//	pbg-serve -ckpt /tmp/ckpt -synthetic social -nodes 10000 -partitions 4 \
//	    -dim 64 -addr :7421 -build-index -obs-addr 127.0.0.1:9090
//
// Client (against a running server):
//
//	pbg-serve -connect host:7421 -rel 0 -src 12 -k 10
//	pbg-serve -connect host:7421 -rel 0 -src 12 -dst 99   # score + rank
//	pbg-serve -connect host:7421 -stats
//	pbg-serve -connect host:7421 -reload /tmp/ckpt2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"pbg"
	"pbg/internal/obs"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

func main() {
	var (
		// Server mode.
		ckpt       = flag.String("ckpt", "", "checkpoint directory written by pbg-train (server mode)")
		synthetic  = flag.String("synthetic", "social", "schema source: social, knowledge")
		nodes      = flag.Int("nodes", 10000, "nodes/entities the checkpoint was trained on")
		relations  = flag.Int("relations", 20, "relations for knowledge graphs")
		avgDeg     = flag.Int("degree", 10, "average degree used at training time")
		partitions = flag.Int("partitions", 1, "partitions the checkpoint was trained with")
		dim        = flag.Int("dim", 64, "embedding dimension")
		comparator = flag.String("comparator", "dot", "dot, cos, l2, squared_l2 (must match training)")
		operator   = flag.String("operator", "", "override relation operator (must match training)")
		addr       = flag.String("addr", ":7421", "rpc listen address")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
		rerank     = flag.Float64("rerank", 0, "oversampling factor of the quantized scan taken when int8/fp16 bytes are present (0 = default 3)")
		buildQuant = flag.String("build-quant", "", "write quantized sibling copies under this codec (fp16, int8) before serving")
		nprobe     = flag.Int("nprobe", 0, "default IVF probe width (0 = serve.DefaultNProbe)")
		buildIndex = flag.Bool("build-index", false, "build and persist the IVF index before serving")
		seed       = flag.Uint64("seed", 1, "k-means seed for -build-index")

		// Client mode.
		connect   = flag.String("connect", "", "connect to a running server instead of serving")
		rel       = flag.Int("rel", 0, "relation index for queries")
		src       = flag.Int("src", 0, "source entity id")
		dst       = flag.Int("dst", -1, "destination id: query score + rank instead of top-K")
		k         = flag.Int("k", 10, "neighbours to return")
		exact     = flag.Bool("exact", false, "exact scan instead of the IVF index")
		reloadDir = flag.String("reload", "", "ask the server to hot-swap to this checkpoint dir")
		stats     = flag.Bool("stats", false, "print server stats")
	)
	flag.Parse()

	if *connect != "" {
		runClient(*connect, *rel, int32(*src), int32(*dst), *k, *exact, *nprobe, *reloadDir, *stats)
		return
	}
	if *ckpt == "" {
		log.Fatal("either -ckpt (server) or -connect (client) is required")
	}

	g, err := buildGraph(*synthetic, *nodes, *relations, *avgDeg, *partitions)
	if err != nil {
		log.Fatal(err)
	}
	if *operator != "" {
		for i := range g.Schema.Relations {
			g.Schema.Relations[i].Operator = *operator
		}
	}
	cfg := serve.Config{
		Schema: g.Schema, Dim: *dim, Comparator: *comparator,
		Rerank: *rerank, NProbe: *nprobe,
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

	s, err := serve.Open(*ckpt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if *buildQuant != "" {
		c, err := storage.ParseCodec(*buildQuant)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.BuildQuant(c); err != nil {
			log.Fatal(err)
		}
	}
	if *buildIndex {
		if err := s.BuildIndex(serve.IVFConfig{Seed: *seed}); err != nil {
			log.Fatal(err)
		}
	}
	st, err := s.Stats()
	if err != nil {
		log.Fatal(err)
	}
	quantInfo := "off"
	if st.QuantShards > 0 {
		quantInfo = fmt.Sprintf("%s (%d shards, %.1f MB)", st.QuantCodec, st.QuantShards, float64(st.QuantBytes)/(1<<20))
	}
	fmt.Printf("serving %s: %d mapped shards (%.1f MB), quant scan: %s, index: %v (%d lists)\n",
		st.Dir, st.MappedShards, float64(st.MappedBytes)/(1<<20), quantInfo, st.HasIndex, st.IndexLists)

	front, err := serve.ListenAndServe(*addr, s)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	fmt.Printf("rpc on %s\n", front.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

func runClient(addr string, rel int, src, dst int32, k int, exact bool, nprobe int, reloadDir string, stats bool) {
	c, err := serve.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	switch {
	case stats:
		st, err := c.Stats()
		if err != nil {
			log.Fatal(err)
		}
		quantInfo := "off"
		if st.QuantShards > 0 {
			quantInfo = fmt.Sprintf("%s (%d shards, %.1f MB)", st.QuantCodec, st.QuantShards, float64(st.QuantBytes)/(1<<20))
		}
		fmt.Printf("dir: %s\nmapped shards: %d (%.1f MB)\nquant scan: %s\nindex: %v (%d lists, %.1f MB)\nrequests served: %d\n",
			st.Dir, st.MappedShards, float64(st.MappedBytes)/(1<<20), quantInfo,
			st.HasIndex, st.IndexLists, float64(st.IndexBytes)/(1<<20), st.Requests)
	case reloadDir != "":
		if err := c.Reload(reloadDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("reloaded %s\n", reloadDir)
	case dst >= 0:
		score, err := c.Score([]serve.ScoreRequest{{Rel: rel, Src: src, Dst: dst}})
		if err != nil {
			log.Fatal(err)
		}
		rank, err := c.Rank(rel, src, dst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("score(%d, %d -> %d) = %g  rank = %g\n", rel, src, dst, score[0], rank)
	default:
		res, err := c.TopK([]serve.TopKRequest{{Rel: rel, SrcID: src, K: k, Exact: exact, NProbe: nprobe}})
		if err != nil {
			log.Fatal(err)
		}
		r := res[0]
		fmt.Printf("top-%d for src %d (rel %d, scanned %d rows, probed %d lists):\n", k, src, rel, r.Scanned, r.Probed)
		for i := range r.IDs {
			fmt.Printf("  %3d. id %-8d score %g\n", i+1, r.IDs[i], r.Scores[i])
		}
	}
}

func buildGraph(synthetic string, nodes, relations, avgDeg, partitions int) (*pbg.Graph, error) {
	switch synthetic {
	case "social":
		return pbg.SocialGraph(pbg.SocialGraphConfig{
			Nodes: nodes, AvgOutDegree: avgDeg, NumPartitions: partitions, Seed: 1,
		})
	case "knowledge":
		return pbg.KnowledgeGraph(pbg.KnowledgeGraphConfig{
			Entities: nodes, Relations: relations, Edges: nodes * avgDeg * 2,
			NumPartitions: partitions, Seed: 1,
		})
	default:
		return nil, fmt.Errorf("unknown synthetic graph %q", synthetic)
	}
}

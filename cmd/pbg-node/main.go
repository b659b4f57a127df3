// Command pbg-node runs one component of PBG's distributed mode (§4.2,
// Figure 2) as a standalone process, so a real multi-host deployment can be
// assembled from the same pieces the in-process harness uses:
//
//	pbg-node -role lock -listen :7001 -partitions 16
//	pbg-node -role partition -listen :7002 -nodes 100000 -dim 100
//	pbg-node -role param -listen :7003
//	pbg-node -role trainer -rank 0 -lock host1:7001 \
//	    -partition-servers host1:7002,host2:7002 -param-servers host1:7003 \
//	    -nodes 100000 -degree 10 -p 16 -dim 100 -epochs 10
//
// Trainer nodes regenerate the deterministic synthetic graph locally (the
// stand-in for the paper's shared filesystem of edge buckets).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/dist"
	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

func main() {
	var (
		role    = flag.String("role", "", "lock, partition, param, or trainer")
		listen  = flag.String("listen", "127.0.0.1:0", "listen address for server roles")
		nParts  = flag.Int("partitions", 4, "partition grid size P (lock role)")
		nodes   = flag.Int("nodes", 10000, "graph nodes (partition/trainer roles)")
		avgDeg  = flag.Int("degree", 10, "average out-degree of the synthetic graph")
		p       = flag.Int("p", 4, "entity partitions (trainer role)")
		dim     = flag.Int("dim", 64, "embedding dimension")
		epochs  = flag.Int("epochs", 10, "epochs (trainer role)")
		rank    = flag.Int("rank", 0, "trainer rank")
		workers = flag.Int("workers", 4, "HOGWILD workers")
		lock    = flag.String("lock", "", "lock server address (trainer)")
		pservs  = flag.String("partition-servers", "", "comma-separated partition server addresses (trainer)")
		qservs  = flag.String("param-servers", "", "comma-separated parameter server addresses (trainer)")
		seed    = flag.Uint64("seed", 1, "graph seed (must match across nodes)")
		budget  = flag.String("mem-budget", "", "trainer checkout-cache budget, e.g. 256MB (default unbounded; lock role: prices -order budget_aware)")
		maxLook = flag.Int("max-lookahead", 0, "adaptive lookahead cap for the trainer's executor (0 = default)")
		orderBy = flag.String("order", "", "lock role bucket order: inside_out (default), sequential, random, chained, budget_aware")
		slots   = flag.Int("buffer-slots", 0, "lock role: resident partition slots for -order budget_aware (0 = derive from -mem-budget/-nodes/-dim)")
		obsAddr = flag.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
		ttl     = flag.Duration("lease-ttl", 0, "lock role: bucket leases expire after this long without a heartbeat and are re-leased (0 = never; fail-stop)")
		ckptDir = flag.String("checkpoint-dir", "", "lock role: persist/resume epoch progress here; partition role: write shards through to this directory and restart from it")
		ckptEvr = flag.Duration("checkpoint-every", 5*time.Second, "lock role: epoch-progress manifest cadence (with -checkpoint-dir)")
	)
	flag.Parse()

	memBudget, err := storage.ParseByteSize(*budget)
	if err != nil {
		log.Fatal(err)
	}
	// Distributed training stays fp32 for now: the remote checkout cache has
	// no shard codec, so slot pricing below is fp32 too (quantizing the
	// partition-server store is a filed ROADMAP follow-up).
	if err := train.ValidateRunFlags(*orderBy, "", memBudget, *slots, 0, *maxLook); err != nil {
		log.Fatal(err)
	}
	fmt.Println("vec kernels:", vec.Kernel())
	var hub *obs.Hub
	if *obsAddr != "" {
		hub = obs.NewHub()
		hub.Reg.Gauge(vec.KernelMetric()).Set(1)
		srv, err := hub.Serve(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s (/metrics, /trace, /debug/pprof/)\n", srv.Addr())
	}

	switch *role {
	case "lock":
		// The lock server owns the bucket order every trainer leases from, so
		// the budget-aware optimisation happens here. With -buffer-slots
		// unset, the slot count is derived from -mem-budget through the same
		// train.BufferSlotsFor pricing the trainers apply to their checkout
		// caches — over the synthetic graph's schema (-nodes rows across
		// -partitions partitions at -dim), so those flags must match the
		// trainer processes for the two projections to agree.
		if *nParts <= 0 {
			log.Fatalf("lock role needs a positive -partitions, got %d", *nParts)
		}
		bufSlots := *slots
		if bufSlots == 0 && memBudget > 0 && *nParts > 1 {
			schema, err := graph.NewSchema(
				[]graph.EntityType{{Name: "node", Count: *nodes, NumPartitions: *nParts}},
				[]graph.RelationType{{Name: "follows", SourceType: "node", DestType: "node", Operator: "identity"}},
			)
			if err != nil {
				log.Fatal(err)
			}
			bufSlots = train.BufferSlotsFor(schema, *dim, memBudget, storage.CodecFP32)
		}
		var order []partition.Bucket
		if *orderBy == partition.OrderBudgetAware {
			// Plan once: the plan carries both the order the lock server
			// installs and the strategy/cost fields the startup line prints
			// (replanning through OrderForBuffer would redo the greedy
			// search and both closed forms).
			plan := partition.PlanBudgetAware(*nParts, *nParts, bufSlots)
			order = plan.Order
			if bufSlots > 0 {
				fmt.Printf("budget_aware order over %d buffer slots: %s strategy, %d projected loads (inside_out: %d)\n",
					bufSlots, plan.Strategy, plan.Cost, plan.BaseCost)
			} else {
				fmt.Println("budget_aware: no usable -mem-budget or -buffer-slots; order degrades to inside_out")
			}
		} else {
			var err error
			order, err = partition.OrderForBuffer(*orderBy, *nParts, *nParts, *seed, bufSlots)
			if err != nil {
				log.Fatal(err)
			}
		}
		lockOpts := []dist.LockOption{dist.WithLeaseTTL(*ttl)}
		if hub != nil {
			lockOpts = append(lockOpts, dist.WithLockObs(hub))
		}
		if *ckptDir != "" {
			// Resume epoch progress from the manifest (relation parameters
			// live on the param servers; a multi-process deployment restores
			// them by restarting param servers before any trainer connects).
			if m, ok, err := dist.ReadManifest(*ckptDir); err != nil {
				log.Fatal(err)
			} else if ok {
				if err := m.Validate(order, nil); err != nil {
					log.Fatal(err)
				}
				lockOpts = append(lockOpts, dist.WithRestoredEpoch(m.Epoch, m.Done))
				fmt.Printf("resuming from checkpoint: epoch %d, %d buckets done\n", m.Epoch, len(m.Done))
			}
		}
		ls := dist.NewLockServer(order, lockOpts...)
		if *ckptDir != "" {
			go func() {
				for range time.Tick(*ckptEvr) {
					var es dist.EpochStateReply
					if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
						continue
					}
					if err := dist.WriteManifest(*ckptDir, &dist.Manifest{Epoch: es.Epoch, Done: es.Done}); err != nil {
						log.Printf("checkpoint manifest: %v", err)
					}
				}
			}()
		}
		serveForever(*listen, map[string]any{"LockServer": ls})
	case "partition":
		g := mustGraph(*nodes, *avgDeg, *p, *seed)
		partOpts := []dist.PartOption{}
		if *ckptDir != "" {
			partOpts = append(partOpts, dist.WithDurableDir(*ckptDir))
		}
		if hub != nil {
			partOpts = append(partOpts, dist.WithPartObs(hub))
		}
		serveForever(*listen, map[string]any{
			"PartitionServer": dist.NewPartitionServer(g.Schema, *dim, *seed+1, 1, partOpts...),
		})
	case "param":
		serveForever(*listen, map[string]any{"ParamServer": dist.NewParamServer()})
	case "trainer":
		g := mustGraph(*nodes, *avgDeg, *p, *seed)
		node, err := dist.NewNode(g, dist.NodeConfig{
			Rank:           *rank,
			LockAddr:       *lock,
			PartitionAddrs: dist.SplitAddrs(*pservs),
			ParamAddrs:     dist.SplitAddrs(*qservs),
			Train: train.Config{
				Dim: *dim, Workers: *workers, Seed: dist.RankSeed(*seed, *rank),
				MaxLookahead: *maxLook, MemBudgetBytes: memBudget,
				Obs: hub,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		for e := 0; e < *epochs; e++ {
			// Rank 0 starts each epoch on the lock server, by number.
			if *rank == 0 {
				var rep dist.StartEpochReply
				if err := dist.Call(*lock, "LockServer.StartEpoch", dist.StartEpochArgs{Epoch: e + 1}, &rep); err != nil {
					log.Fatal(err)
				}
			}
			st, err := node.RunEpoch()
			if err != nil {
				// The lease table says who held what when the epoch failed.
				var es dist.EpochStateReply
				if lerr := dist.Call(*lock, "LockServer.EpochState", dist.EpochStateArgs{}, &es); lerr == nil {
					log.Printf("epoch %d failed with %d buckets done; leases: %+v", es.Epoch, len(es.Done), es.Leases)
				}
				log.Fatal(err)
			}
			fmt.Println(st.Summary(*rank, e))
		}
	default:
		flag.Usage()
		log.Fatalf("unknown role %q", *role)
	}
}

func mustGraph(nodes, avgDeg, p int, seed uint64) *graph.Graph {
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: nodes, AvgOutDegree: avgDeg, NumPartitions: p, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func serveForever(addr string, receivers map[string]any) {
	l, err := dist.ListenAndServe(addr, receivers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s\n", l.Addr())
	select {}
}

package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"pbg/internal/dist"
	"pbg/internal/obs"
	"pbg/internal/train"
)

// cutEvery is how often the lock server writes a checkpoint cut into D.
var cutEvery = 5 * time.Second

// runNode runs one component of the distributed mode (§4.2, Figure 2) as a
// process of its own, so a multi-host deployment assembles from the pieces
// the in-process cluster uses. Every role takes the schema and the model
// settings from D's config and trainers read D/train.edges, so D is on a
// filesystem every host shares. The deployment checkpoints into D and
// resumes from it through dist.Cuts, as dist.Cluster does: every 5 s the
// lock server writes a consistency cut, which flushes the partition servers
// and pulls the parameter servers it is given (-partition-servers,
// -param-servers), and a restarted lock, partition or parameter server
// resumes from the last one. A trainer joins at the epoch the lock server
// is in.
func runNode(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	dir := fs.String("dir", "", dirUsage)
	role := fs.String("role", "", "lock, partition, param, or trainer")
	listen := fs.String("listen", "127.0.0.1:0", "listen address of a server role")
	rank := fs.Int("rank", 0, "trainer rank; rank 0 starts each epoch on the lock server")
	workers := fs.Int("workers", 4, "HOGWILD worker goroutines (trainer)")
	lock := fs.String("lock", "", "lock server address (trainer)")
	pservs := fs.String("partition-servers", "", "comma-separated partition server addresses, in one order on every trainer (trainer, lock)")
	qservs := fs.String("param-servers", "", "comma-separated parameter server addresses (trainer, lock)")
	obsAddr := fs.String("obs-addr", "", obsUsage)
	ttl := fs.Duration("lease-ttl", 0, "lock: bucket leases expire after this long without a heartbeat and are re-leased (0 = never; fail-stop)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var edges []string // only trainers read edges; the servers need the schema
	if *role == "trainer" {
		edges = append(edges, trainEdges)
	}
	rd, gs, err := openRun(*dir, edges...)
	if err != nil {
		return err
	}
	hub, err := startObs(*obsAddr, out)
	if err != nil {
		return err
	}
	cfg := rd.cfg.Train()
	cuts, err := dist.OpenCuts(rd.dir, rd.schema, cfg)
	if err != nil {
		return err
	}
	parts, params := dist.SplitAddrs(*pservs), dist.SplitAddrs(*qservs)
	switch *role {
	case "lock":
		return runLock(rd, cfg, cuts, *listen, *ttl, parts, params, hub, out)
	case "partition":
		opts := []dist.PartOption{dist.WithDurableDir(rd.dir)}
		if hub != nil {
			opts = append(opts, dist.WithPartObs(hub))
		}
		return serveForever(*listen, out, "PartitionServer", dist.NewPartitionServer(rd.schema, cfg.Dim, cfg.Seed+1, opts...))
	case "param":
		ps, err := cuts.NewParamServer()
		if err != nil {
			return err
		}
		return serveForever(*listen, out, "ParamServer", ps)
	case "trainer":
		// The trainer joins the deployment where the lock server is, which
		// a restart restores from the last cut, and trains up to num_epochs.
		cfg.Workers, cfg.Seed, cfg.Obs = *workers, dist.RankSeed(cfg.Seed, *rank), hub
		node, err := dist.NewNode(gs[0], dist.NodeConfig{
			Rank:           *rank,
			LockAddr:       *lock,
			PartitionAddrs: parts,
			ParamAddrs:     params,
			Train:          cfg,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		for e := node.NextEpoch(); e <= node.Trainer().Config().Epochs; e++ {
			// Rank 0 starts each epoch on the lock server, by number.
			if *rank == 0 {
				var rep dist.StartEpochReply
				if err := dist.Call(*lock, "LockServer.StartEpoch", dist.StartEpochArgs{Epoch: e}, &rep); err != nil {
					return err
				}
			}
			st, err := node.RunEpoch()
			if err != nil {
				// The lease table says who held what when the epoch failed.
				var es dist.EpochStateReply
				if lerr := dist.Call(*lock, "LockServer.EpochState", dist.EpochStateArgs{}, &es); lerr == nil {
					log.Printf("epoch %d failed with %d buckets done; leases: %+v", es.Epoch, len(es.Done), es.Leases)
				}
				return err
			}
			fmt.Fprintln(out, st.Summary(*rank, e-1))
		}
		return nil
	}
	return fmt.Errorf("node needs -role lock, partition, param or trainer, not %q", *role)
}

// runLock serves the lock server, which owns the bucket order every
// trainer leases from and writes the deployment's checkpoint cuts. The
// order is planned against the partition buffer the config's mem_budget
// affords the trainers' checkout caches, priced the way
// train.BufferSlotsFor prices it for them.
func runLock(rd *runDir, cfg train.Config, cuts *dist.Cuts, listen string, ttl time.Duration, parts, params []string, hub *obs.Hub, out io.Writer) error {
	if len(parts) == 0 {
		return fmt.Errorf("node -role lock needs -partition-servers: its checkpoints flush them")
	}
	plan, err := train.PlanOrderFor(rd.schema, cfg.Dim, cfg.MemBudgetBytes, "")
	if err != nil {
		return err
	}
	if cfg.MemBudgetBytes > 0 {
		fmt.Fprintln(out, "bucket order:", plan)
	}
	opts := []dist.LockOption{dist.WithLeaseTTL(ttl)}
	if hub != nil {
		opts = append(opts, dist.WithLockObs(hub))
	}
	ls := cuts.NewLockServer(plan.Order, opts...)
	var es dist.EpochStateReply
	if err := ls.EpochState(dist.EpochStateArgs{}, &es); err == nil && es.Epoch > 0 {
		fmt.Fprintf(out, "resuming from checkpoint: epoch %d, %d buckets done\n", es.Epoch, len(es.Done))
	}
	go func() {
		for range time.Tick(cutEvery) {
			if err := cuts.Write(ls, parts, params); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		}
	}()
	return serveForever(listen, out, "LockServer", ls)
}

// serveForever serves one receiver on addr until the process ends.
func serveForever(addr string, out io.Writer, name string, receiver any) error {
	l, err := dist.ListenAndServe(addr, map[string]any{name: receiver})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "listening on %s\n", l.Addr())
	select {}
}

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

// manifestEvery is how often the lock server persists its epoch progress.
const manifestEvery = 5 * time.Second

// runNode runs one component of the distributed mode (§4.2, Figure 2) as a
// process of its own, so a multi-host deployment assembles from the pieces
// the in-process cluster uses. Every role takes the schema and the model
// settings from D's config and trainers read D/train.edges, so D is on a
// filesystem every host shares. The servers checkpoint into D and resume
// from it: the lock server its epoch progress (MANIFEST.json), the
// partition servers their shards; a trainer joins at the epoch the lock
// server is in. Relation parameters live on the parameter servers and are
// not persisted.
func runNode(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	dir := fs.String("dir", "", dirUsage)
	role := fs.String("role", "", "lock, partition, param, or trainer")
	listen := fs.String("listen", "127.0.0.1:0", "listen address of a server role")
	rank := fs.Int("rank", 0, "trainer rank; rank 0 starts each epoch on the lock server")
	workers := fs.Int("workers", 4, "HOGWILD worker goroutines (trainer)")
	lock := fs.String("lock", "", "lock server address (trainer)")
	pservs := fs.String("partition-servers", "", "comma-separated partition server addresses, in one order on every trainer")
	qservs := fs.String("param-servers", "", "comma-separated parameter server addresses (trainer)")
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
	switch *role {
	case "lock":
		return runLock(rd, cfg, *listen, *ttl, hub, out)
	case "partition":
		opts := []dist.PartOption{dist.WithDurableDir(rd.dir)}
		if hub != nil {
			opts = append(opts, dist.WithPartObs(hub))
		}
		return serveForever(*listen, out, "PartitionServer", dist.NewPartitionServer(rd.schema, cfg.Dim, cfg.Seed+1, opts...))
	case "param":
		return serveForever(*listen, out, "ParamServer", dist.NewParamServer())
	case "trainer":
		// The trainer joins the deployment where the lock server is, which
		// a restart restores from the manifest, and trains up to num_epochs.
		var es dist.EpochStateReply
		if err := dist.Call(*lock, "LockServer.EpochState", dist.EpochStateArgs{}, &es); err != nil {
			return err
		}
		nSrc, nDst := rd.schema.BucketDims()
		first := dist.ResumeEpoch(es.Epoch, len(es.Done), nSrc*nDst)
		cfg.Workers, cfg.Seed, cfg.Obs = *workers, dist.RankSeed(cfg.Seed, *rank), hub
		node, err := dist.NewNode(gs[0], dist.NodeConfig{
			Rank:           *rank,
			LockAddr:       *lock,
			PartitionAddrs: dist.SplitAddrs(*pservs),
			ParamAddrs:     dist.SplitAddrs(*qservs),
			Train:          cfg,
			EpochBase:      first - 1,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		for e := first; e <= node.Trainer().Config().Epochs; e++ {
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
// trainer leases from. The order is planned against the partition buffer
// the config's mem_budget affords the trainers' checkout caches, priced the
// way train.BufferSlotsFor prices it for them.
func runLock(rd *runDir, cfg train.Config, listen string, ttl time.Duration, hub *obs.Hub, out io.Writer) error {
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
	nSrc, nDst := rd.schema.BucketDims()
	m, ok, err := dist.ReadManifest(rd.dir, nSrc, nDst)
	if err != nil {
		return err
	}
	if ok {
		opts = append(opts, dist.WithRestoredEpoch(m.Epoch, m.Done))
		fmt.Fprintf(out, "resuming from checkpoint: epoch %d, %d buckets done\n", m.Epoch, len(m.Done))
	}
	ls := dist.NewLockServer(plan.Order, opts...)
	go func() {
		for range time.Tick(manifestEvery) {
			var es dist.EpochStateReply
			if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
				continue
			}
			if err := dist.WriteManifest(rd.dir, &dist.Manifest{Epoch: es.Epoch, Done: es.Done}); err != nil {
				log.Printf("checkpoint manifest: %v", err)
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

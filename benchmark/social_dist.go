package main

import (
	"errors"
	"time"

	"pbg"
	"pbg/internal/dist"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// runSocialDist is the distributed workload (§4.2): two trainer nodes with
// one worker each lease buckets of a 4×4 grid from a lock server and check
// partitions out of partition servers over real loopback net/rpc, with a
// parameter server syncing relation parameters; fail-stop (no lease TTL).
// It is the only workload with dist on the path, and it runs the same
// trainer code as kg_mem. On two processors the nodes share the cores, so
// no scaling efficiency is reported: throughput, counts and shares only.
func runSocialDist(r *run) error {
	sh := socialDistShape
	var (
		trainG, testG *pbg.Graph
		cl            *dist.Cluster
	)
	teardown, err := r.timeSetup(func() (func() error, error) {
		g, err := pbg.SocialGraph(pbg.SocialGraphConfig{
			Nodes: sh.nodes, AvgOutDegree: sh.degree, NumPartitions: sh.parts, Seed: r.seed,
		})
		if err != nil {
			return nil, err
		}
		trainG, testG = splitHeldOut(g, sh.evalEdges, r.seed)
		order, err := partition.Order(partition.OrderInsideOut, sh.parts, sh.parts, r.seed)
		if err != nil {
			return nil, err
		}
		sp := r.span("dist.new_cluster")
		start := time.Now()
		cl, err = dist.NewCluster(trainG, order, dist.ClusterConfig{
			Machines: sh.machines, Seed: r.seed + 1,
			Train: train.Config{
				Dim: sh.dim, ChunkSize: sh.chunk, UniformNegs: sh.uniform, LR: sh.lr, NegAlpha: sh.negAlpha,
				Workers: 1, Seed: r.seed, Obs: r.hub,
			},
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		// NewCluster builds one trainer per node (and the servers they dial).
		r.set("train.new_s", time.Since(start).Seconds(), "s")
		return func() error { cl.Shutdown(); return nil }, nil
	})
	if err != nil {
		return err
	}
	defer func() { r.closed("the cluster", teardown()) }()

	var (
		fetches   int
		imbalance []float64
		peak      int64
	)
	warm, timed, err := r.trainTimed(sh.trainShape, trainG, testG,
		func() (epochRec, error) {
			var before [3]time.Duration
			if r.traced {
				before = timeCounters(r.hub.Reg.Snapshot())
			}
			st, err := cl.RunEpoch()
			if err != nil {
				return epochRec{}, err
			}
			r.check(len(st.Failed) == 0, "ranks %v failed during an epoch", st.Failed)
			sum, lo, hi := 0, st.Edges, 0
			for _, n := range st.PerNode {
				sum += n.Edges
				lo, hi = min(lo, n.Edges), max(hi, n.Edges)
				peak = max(peak, n.PeakResident)
			}
			r.check(sum == st.Edges, "per-node edges sum to %d, epoch trained %d", sum, st.Edges)
			imbalance = append(imbalance, float64(hi-lo)*float64(len(st.PerNode))/float64(max(sum, 1)))
			e := epochRec{
				edges: st.Edges, buckets: st.Buckets, loss: st.Loss,
				wall: st.Duration, nodes: len(st.PerNode),
				ioWait: st.IOWait, compute: st.Compute, leaseWait: st.LeaseWait,
			}
			if r.traced {
				// A traced run hands every node the one shared hub, so each
				// node's own deltas of the time counters cover all nodes and
				// the cluster's sums count them once per node. The shared
				// counters themselves count everything once.
				after := timeCounters(r.hub.Reg.Snapshot())
				e.ioWait, e.compute, e.leaseWait = after[0]-before[0], after[1]-before[1], after[2]-before[2]
			}
			fetches += st.PartitionIO
			return e, nil
		},
		func() (evalSource, error) {
			// EvalStore copies every partition out of the partition servers;
			// the copy serves the quality pass and the later slices.
			store, err := cl.EvalStore()
			if err != nil {
				return evalSource{}, err
			}
			view := train.NewStoreView(store, trainG.Schema)
			return evalSource{emb: view, scorers: cl.Nodes[0].Trainer(), close: func() error {
				return errors.Join(view.Close(), store.Close())
			}}, nil
		})
	if err != nil {
		return err
	}
	r.reportTraining(warm, timed, trainG.Edges.Len(), sh.parts*sh.parts)
	r.reportTrainer(cl.Nodes[0].Trainer())
	r.set("peak_resident_mb", float64(peak)/(1<<20), "MiB")
	r.note("peak_resident_mb: largest NodeStats.PeakResident over %d nodes", sh.machines)

	r.set("dist.fetches", float64(fetches), "count")
	r.set("dist.rank_edge_imbalance", median(imbalance), "share")
	if r.traced {
		snap := r.hub.Reg.Snapshot()
		puts := snap.Counters["pbg_dist_puts_total"]
		shardBytes := storage.ProjectedShardBytes(trainG.Schema, sh.dim, 0, 0)
		r.set("dist.puts", float64(puts), "count")
		r.set("dist.wire_mb", float64(int64(fetches)+puts)*float64(shardBytes)/(1<<20), "MiB")
		r.set("dist.rpc_get_ms_p50", snap.Histograms[`pbg_dist_rpc_ns{method="Get"}`].Quantile(0.5)/1e6, "ms")
		r.set("dist.rpc_put_ms_p50", snap.Histograms[`pbg_dist_rpc_ns{method="Put"}`].Quantile(0.5)/1e6, "ms")
		r.set("dist.param_sync_lag_ms", float64(snap.Gauges["pbg_dist_param_sync_lag_ns"])/1e6, "ms")
		r.note("dist.wire_mb is computed: (fetches+puts) x %d-byte fp32 shards; rpc p50s are log-2 histogram bucket bounds", shardBytes)
	}
	return nil
}

// timeCounters reads the cumulative I/O-wait, compute and lease-wait time
// from a registry snapshot.
func timeCounters(snap obs.Snapshot) [3]time.Duration {
	return [3]time.Duration{
		time.Duration(snap.Counters["pbg_train_iowait_ns_total"]),
		time.Duration(snap.Counters["pbg_train_compute_ns_total"]),
		time.Duration(snap.Counters["pbg_dist_lease_wait_ns_total"]),
	}
}

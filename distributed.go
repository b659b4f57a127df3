package pbg

import (
	"time"

	"pbg/internal/dist"
	"pbg/internal/train"
)

// DistributedConfig sizes a multi-machine training run. In this repository
// the "machines" are trainer nodes inside one process communicating over
// real loopback TCP (lock server, sharded partition servers, parameter
// server — the Figure 2 architecture); the same components run across hosts
// via pbg node (cmd/pbg).
type DistributedConfig struct {
	// Machines is the number of trainer nodes (the paper trains on up to 8,
	// with 2×Machines partitions).
	Machines int
	// SyncInterval throttles background parameter synchronisation.
	SyncInterval time.Duration
	// Train carries the per-node hyperparameters, the epochs to run included.
	Train TrainConfig
}

// DistributedResult reports a distributed run.
type DistributedResult struct {
	EpochStats []dist.EpochStats
	// Cluster stays alive for evaluation; call Shutdown when done.
	Cluster *dist.Cluster
}

// TrainDistributed runs PBG's distributed execution mode (§4.2) for
// cfg.Train.Epochs epochs and returns the live cluster for evaluation. The
// caller must call result.Cluster.Shutdown() when finished.
func TrainDistributed(g *Graph, cfg DistributedConfig) (*DistributedResult, error) {
	// The lock server leases the order planned for the buffer the
	// trainers' checkout caches will sustain, priced by the same formula
	// they use.
	plan, err := train.PlanOrderFor(g.Schema, cfg.Train.Dim, cfg.Train.MemBudgetBytes, cfg.Train.BucketOrder)
	if err != nil {
		return nil, err
	}
	cl, err := dist.NewCluster(g, plan.Order, dist.ClusterConfig{
		Machines:     cfg.Machines,
		SyncInterval: cfg.SyncInterval,
		Seed:         cfg.Train.Seed + 1,
		Train:        cfg.Train,
	})
	if err != nil {
		return nil, err
	}
	res := &DistributedResult{Cluster: cl}
	for e := 0; e < cl.Nodes[0].Trainer().Config().Epochs; e++ {
		st, err := cl.RunEpoch()
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		res.EpochStats = append(res.EpochStats, st)
	}
	return res, nil
}

// EvaluateDistributed ranks test edges against the cluster's current
// embeddings.
func (r *DistributedResult) EvaluateDistributed(g *Graph, test *Graph, opts EvalOptions) (Metrics, error) {
	store, err := r.Cluster.EvalStore()
	if err != nil {
		return Metrics{}, err
	}
	defer store.Close()
	view := train.NewStoreView(store, g.Schema)
	defer view.Close()
	tr := r.Cluster.Nodes[0].Trainer()
	return evaluate(g, view, tr, tr.Config().Dim, test, opts)
}

package dist

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// ClusterConfig sizes an in-process distributed deployment.
type ClusterConfig struct {
	// Machines is the number of trainer nodes; the deployment also runs
	// Machines partition-server shards (the paper shards partition servers
	// across the trainer machines) and one parameter server.
	Machines int
	// SyncInterval throttles background parameter sync (default 100ms).
	SyncInterval time.Duration
	// Seed drives deterministic lazy shard initialisation on the partition
	// servers (the distributed counterpart of a store seed).
	Seed uint64
	// Train carries the per-node hyperparameters; each node gets a
	// rank-offset copy of Train.Seed so HOGWILD shuffles and negative
	// samples differ across machines. Train.InitScale scales shard
	// initialisation on the partition servers.
	Train train.Config
	// LeaseTTL enables fault tolerance: bucket leases expire after this long
	// without a heartbeat and are re-leased, and RunEpoch survives node
	// deaths as long as one node lives. 0 (the default) keeps the fail-stop
	// model: any node error fails the epoch.
	LeaseTTL time.Duration
	// CheckpointDir, when set, makes the partition servers durable (shards
	// written through to this directory) and enables Checkpoint/resume: a
	// NewCluster pointed at a directory holding a previous run's checkpoint
	// resumes from its consistency cut instead of epoch 0.
	CheckpointDir string
	// Retry bounds every client's RPC patience; zero-value = defaults.
	Retry RetryPolicy
	// Chaos, when non-nil, injects deterministic faults into the trainers'
	// RPC traffic (tests only).
	Chaos *Chaos
}

// Cluster wires every §4.2 component together inside one process, over real
// loopback TCP (internal/wire): one lock server, Machines sharded partition servers,
// one parameter server and Machines trainer nodes. It exists so distributed
// training can be exercised (and benchmarked, Tables 3–4) without a fleet,
// while running the exact same code a multi-host deployment runs.
type Cluster struct {
	// Nodes are the trainer machines, indexed by rank.
	Nodes []*Node

	g         *graph.Graph
	cfg       ClusterConfig
	partAddrs []string
	listeners []net.Listener
	lock      *retryClient
	shutdown  sync.Once

	// Direct references to the in-process servers (the RPC surface stays
	// the only interface trainers use), and the checkpoint directory's cuts
	// (nil without CheckpointDir).
	lockSrv   *LockServer
	partSrvs  []*PartitionServer
	paramSrv  *ParamServer
	paramAddr string
	cuts      *Cuts

	// nextEpoch is the lock-server epoch the next RunEpoch will train. After
	// a resume from a cut taken mid-epoch it is the epoch the checkpointed
	// run had already started, which StartEpoch answers without a reset.
	nextEpoch int
}

// NewCluster boots the deployment. order is the bucket order the lock
// server leases from: every bucket of the partition grid g's schema
// implies, each once (partition.CheckGrid), or NewCluster fails.
// With CheckpointDir set and a cut there, the cluster resumes from it the
// way a pbg node deployment does (see Cuts): durable shards are reloaded
// lazily, relation parameters are restored from relations.pbg, and the
// interrupted epoch (if any) continues from its done-bucket set.
func NewCluster(g *graph.Graph, order []partition.Bucket, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("dist: Machines must be positive, got %d", cfg.Machines)
	}
	if cfg.Train.Dim <= 0 {
		return nil, fmt.Errorf("dist: Train.Dim must be positive")
	}
	// With several trainers, an unpartitioned type's whole shard is written
	// back concurrently by nodes holding disjoint buckets — last writer wins
	// and the others' updates are silently lost. Refuse the config, as the
	// paper requires partitioning every entity type for distributed training.
	if cfg.Machines > 1 {
		for _, e := range g.Schema.Entities {
			if !e.Partitioned() {
				return nil, fmt.Errorf("dist: entity type %q is unpartitioned; distributed training with %d machines needs every type partitioned (its concurrent write-backs would be last-writer-wins)", e.Name, cfg.Machines)
			}
		}
	}
	nSrc, nDst := g.Schema.BucketDims()
	if err := partition.CheckGrid(order, nSrc, nDst); err != nil {
		return nil, fmt.Errorf("dist: bucket order: %w", err)
	}
	cuts, err := OpenCuts(cfg.CheckpointDir, g.Schema, cfg.Train)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{g: g, cfg: cfg, cuts: cuts}
	fail := func(err error) (*Cluster, error) {
		cl.Shutdown()
		return nil, err
	}

	lockOpts := []LockOption{WithLeaseTTL(cfg.LeaseTTL)}
	if cfg.Train.Obs != nil {
		lockOpts = append(lockOpts, WithLockObs(cfg.Train.Obs))
	}
	cl.lockSrv = cuts.NewLockServer(order, lockOpts...)
	if cl.paramSrv, err = cuts.NewParamServer(); err != nil {
		return fail(err)
	}
	l, lockAddr, err := serve(map[string]any{"LockServer": cl.lockSrv})
	if err != nil {
		return fail(err)
	}
	cl.listeners = append(cl.listeners, l)

	var partOpts []PartOption
	if cfg.CheckpointDir != "" {
		partOpts = append(partOpts, WithDurableDir(cfg.CheckpointDir))
	}
	if cfg.Train.Obs != nil {
		partOpts = append(partOpts, WithPartObs(cfg.Train.Obs))
	}
	for i := 0; i < cfg.Machines; i++ {
		ps := NewPartitionServer(g.Schema, cfg.Train.Dim, cfg.Seed, partOpts...)
		l, addr, err := serve(map[string]any{"PartitionServer": ps})
		if err != nil {
			return fail(err)
		}
		cl.partSrvs = append(cl.partSrvs, ps)
		cl.listeners = append(cl.listeners, l)
		cl.partAddrs = append(cl.partAddrs, addr)
	}
	l, cl.paramAddr, err = serve(map[string]any{"ParamServer": cl.paramSrv})
	if err != nil {
		return fail(err)
	}
	cl.listeners = append(cl.listeners, l)

	// The cluster's own control-plane client carries the "cluster" chaos tag,
	// so fault schedules can target trainers without severing the harness.
	cl.lock, err = dialRetry("lock server", lockAddr, cfg.Retry, cfg.Chaos, "cluster")
	if err != nil {
		return fail(err)
	}
	for rank := 0; rank < cfg.Machines; rank++ {
		trainCfg := cfg.Train
		trainCfg.Seed = RankSeed(cfg.Train.Seed, rank)
		node, err := NewNode(g, NodeConfig{
			Rank:           rank,
			LockAddr:       lockAddr,
			PartitionAddrs: cl.partAddrs,
			ParamAddrs:     []string{cl.paramAddr},
			Train:          trainCfg,
			SyncInterval:   cfg.SyncInterval,
			Retry:          cfg.Retry,
			Chaos:          cfg.Chaos,
		})
		if err != nil {
			return fail(err)
		}
		cl.Nodes = append(cl.Nodes, node)
	}
	// Every node joined where the lock server is.
	cl.nextEpoch = cl.Nodes[0].NextEpoch()
	return cl, nil
}

// RunEpoch starts an epoch on the lock server and runs every node's share
// concurrently, returning the merged statistics. With LeaseTTL set, node
// deaths mid-epoch are tolerated: the dead nodes' leases expire, survivors
// retrain their buckets, and the failed ranks are reported in
// EpochStats.Failed — the epoch only fails if every node dies. Without a
// TTL any node error fails the epoch (the original fail-stop model). An
// epoch in which no rank failed and yet fewer buckets were committed than
// the lock server had pending is an error, not a short epoch.
func (cl *Cluster) RunEpoch() (EpochStats, error) {
	// StartEpoch names the epoch, so a retry after a lost reply — or the
	// epoch a checkpointed run had already started — changes nothing.
	var started StartEpochReply
	if err := cl.lock.Call("LockServer.StartEpoch", StartEpochArgs{Epoch: cl.nextEpoch}, &started); err != nil {
		return EpochStats{}, err
	}
	start := time.Now()
	stats := make([]EpochStats, len(cl.Nodes))
	errs := make([]error, len(cl.Nodes))
	var wg sync.WaitGroup
	for i, n := range cl.Nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			stats[i], errs[i] = n.RunEpoch()
		}(i, n)
	}
	wg.Wait()
	var merged EpochStats
	var failed []int
	for i := range cl.Nodes {
		if errs[i] != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) > 0 {
		if cl.cfg.LeaseTTL <= 0 {
			return merged, errs[failed[0]]
		}
		if len(failed) == len(cl.Nodes) {
			return merged, fmt.Errorf("dist: all %d nodes failed; first: %w", len(cl.Nodes), errs[failed[0]])
		}
	}
	merged.Failed = failed
	isFailed := make(map[int]bool, len(failed))
	for _, r := range failed {
		isFailed[r] = true
	}
	// Second sync round after the barrier: each node's end-of-epoch sync ran
	// before later-finishing nodes pushed their final deltas, so adopt the
	// settled global block everywhere before anyone evaluates.
	for i, n := range cl.Nodes {
		if isFailed[i] {
			continue
		}
		if err := n.SyncParams(); err != nil {
			return merged, err
		}
	}
	// Merge every node's stats, failed ones included: buckets a dead node
	// committed before dying are real work (its uncommitted bucket was
	// retrained by a survivor), so Buckets still sums to the full grid.
	for i := range cl.Nodes {
		merged.Loss += stats[i].Loss
		merged.Edges += stats[i].Edges
		merged.Buckets += stats[i].Buckets
		merged.PartitionIO += stats[i].PartitionIO
		merged.Puts += stats[i].Puts
		merged.IOWait += stats[i].IOWait
		merged.Compute += stats[i].Compute
		merged.LeaseWait += stats[i].LeaseWait
		merged.PerNode = append(merged.PerNode, stats[i].PerNode...)
	}
	sort.Slice(merged.PerNode, func(i, j int) bool { return merged.PerNode[i].Rank < merged.PerNode[j].Rank })
	merged.Duration = time.Since(start)
	if len(failed) == 0 && merged.Buckets < started.Pending {
		return merged, fmt.Errorf("dist: epoch %d committed %d buckets, the lock server had %d pending", cl.nextEpoch, merged.Buckets, started.Pending)
	}
	cl.nextEpoch++
	return merged, nil
}

// Checkpoint writes a consistency cut into CheckpointDir through the one
// writer a pbg node lock server uses too (Cuts.Write): the lock server's
// snapshot, the partition servers' flush, relations.pbg, then the manifest.
func (cl *Cluster) Checkpoint() error {
	return cl.cuts.Write(cl.lockSrv, cl.partAddrs, []string{cl.paramAddr})
}

// EvalStore returns a read-only store over the cluster's current embeddings
// (fetched lazily from the partition servers). The caller must Close it; the
// cluster itself stays alive for further epochs. The store is exempt from
// the cluster's chaos schedule — evaluation is the harness, not the system
// under test.
func (cl *Cluster) EvalStore() (storage.Store, error) {
	return dialStore(cl.g.Schema, cl.cfg.Train.Dim, cl.cfg.Train.InitScale, true, cl.partAddrs,
		storeOpts{policy: cl.cfg.Retry})
}

// Shutdown stops every node and server. Safe to call more than once.
func (cl *Cluster) Shutdown() {
	cl.shutdown.Do(func() {
		for _, n := range cl.Nodes {
			_ = n.Close()
		}
		if cl.lock != nil {
			_ = cl.lock.Close()
		}
		if cl.lockSrv != nil {
			cl.lockSrv.close()
		}
		for _, ps := range cl.partSrvs {
			ps.closeDurable()
		}
		for _, l := range cl.listeners {
			_ = l.Close()
		}
	})
}

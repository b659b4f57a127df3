package dist

import (
	"fmt"
	"sync"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/train"
)

// defaultSyncInterval bounds relation-parameter staleness when the caller
// does not choose an interval.
const defaultSyncInterval = 100 * time.Millisecond

// NodeConfig wires one trainer machine into the deployment.
type NodeConfig struct {
	// Rank identifies the trainer (0-based; rank 0 conventionally drives
	// StartEpoch in multi-process deployments).
	Rank int
	// LockAddr is the lock server's address.
	LockAddr string
	// PartitionAddrs lists every partition server, in the deployment-wide
	// order (all trainers must agree, since the key→server hash depends on
	// the list position).
	PartitionAddrs []string
	// ParamAddrs lists the parameter servers (relation r lives on server
	// r mod len). Empty disables relation-parameter sync, which is exact for
	// parameter-free operators like identity.
	ParamAddrs []string
	// Train carries the per-node training hyperparameters.
	Train train.Config
	// SyncInterval throttles the background parameter sync (default 100ms).
	SyncInterval time.Duration
	// InitScale scales lazy shard initialisation on the partition servers;
	// all trainers must agree. Default 1.
	InitScale float32
	// Retry bounds the node's RPC patience (timeouts, attempts, backoff); the
	// zero value uses the RetryPolicy defaults.
	Retry RetryPolicy
	// Chaos, when non-nil, injects deterministic faults into this node's RPC
	// traffic (tests only). The node's chaos identity is "rank<Rank>".
	Chaos *Chaos
	// EpochBase offsets the node's local epoch counter, for joining a
	// deployment resumed from a checkpoint: the node's first RunEpoch trains
	// lock-server epoch EpochBase+1.
	EpochBase int
}

// NodeStats is one trainer's contribution to an epoch.
type NodeStats struct {
	Rank         int
	Buckets      int
	Edges        int
	PeakResident int64
}

// EpochStats aggregates one distributed epoch.
type EpochStats struct {
	Duration time.Duration
	Buckets  int
	Edges    int
	Loss     float64
	PerNode  []NodeStats
	// PartitionIO counts partition-server fetches during the epoch — the
	// distributed analogue of the local trainer's swap-ins. It is a delta
	// over the store's fetch counter, so when several in-process nodes
	// share one obs hub (Config.Obs on a Cluster's Train config) the count
	// covers all of them; each node of a real deployment is its own
	// process, where the two views coincide.
	PartitionIO int
	// Puts counts partition-server write-backs the same way. A partition is
	// stored when it leaves the trainer, so over an epoch Puts equals
	// PartitionIO, and both fall as consecutive buckets share partitions.
	Puts int
	// IOWait/Compute split the epoch the same way train.EpochStats does:
	// shard checkout/write-back stalls vs in-bucket HOGWILD training.
	IOWait  time.Duration
	Compute time.Duration
	// LeaseWait is the time spent in lock-server calls: AcquireBucket round
	// trips, including the server-side wait while no bucket was free, and
	// ReleaseBucket — contention on the lock server shows up here, not in
	// IOWait.
	LeaseWait time.Duration
	// Failed lists the ranks whose node died during the epoch. Only a
	// fault-tolerant cluster (LeaseTTL > 0) reports partial epochs; the
	// surviving ranks retrained the dead ranks' re-leased buckets, so
	// Buckets still counts every bucket exactly once.
	Failed []int
}

// Summary renders the distributed epoch in the same one-line format
// train.EpochStats.Summary uses for local runs, prefixed with the rank, so
// pbg-train and pbg-node output read identically. epoch is the caller's
// epoch index (the lock server owns epoch numbering, so EpochStats does not
// carry one).
func (s EpochStats) Summary(rank, epoch int) string {
	ts := train.EpochStats{
		Epoch:         epoch,
		Loss:          s.Loss,
		Edges:         s.Edges,
		Duration:      s.Duration,
		PartitionIO:   s.PartitionIO,
		SwapIn:        int64(s.PartitionIO),
		SwapOut:       int64(s.Puts),
		IOWait:        s.IOWait,
		Compute:       s.Compute,
		BucketsActive: s.Buckets,
	}
	return fmt.Sprintf("rank %d %s", rank, ts.Summary())
}

// Node is one trainer machine of Figure 2: it leases buckets from the lock
// server, checks the buckets' partitions out of the partition servers,
// trains them with a local train.Trainer (HOGWILD workers and all), and
// keeps relation parameters synced through the parameter server from a
// background goroutine. It asks for its next bucket while it still holds
// the last one's partitions, keeps the partition the two share, stores the
// one they do not, and reports a bucket done only once both its partitions
// are stored (see RunEpoch).
type Node struct {
	cfg     NodeConfig
	trainer *train.Trainer
	store   *remoteStore
	lock    *retryClient
	params  []*retryClient

	epoch int // local epoch counter; must track StartEpoch calls

	// What the node holds between buckets; only RunEpoch's goroutine touches
	// it. res is the shards checked out, token the newest fencing token (0 =
	// holds nothing), parts the partitions the lock server has locked for
	// this rank, pending the buckets trained and not yet committed.
	res     *train.Resident
	token   uint64
	parts   map[int]bool
	pending []trainedBucket

	// obs is cfg.Train.Obs or a private quiet hub; the handles below are
	// its registry's lease/sync metrics (the store and trainer register
	// their own).
	obs        *obs.Hub
	leaseWait  *obs.Counter
	acquireNs  *obs.Histogram
	syncLag    *obs.Gauge
	leasesLost *obs.Counter
	carried    *obs.Counter
	uncommit   *obs.Gauge

	// hbLease is what the heartbeat goroutine currently renews — one
	// heartbeat covers every lease of the rank — (nil when the node holds
	// none or leases have no TTL); hbKick wakes the goroutine when it
	// changes.
	hbMu      sync.Mutex
	hbLease   *heldLease
	hbKick    chan struct{}
	hbDone    chan struct{}
	hbStarted bool

	// syncMu serialises parameter syncs (ticker goroutine vs. the forced
	// end-of-epoch sync). lastSync[r] is the global block at the previous
	// sync, so the next push sends only this node's own updates. lastSyncAt
	// feeds the sync-lag gauge: how stale relation parameters were when the
	// latest sync replaced them.
	syncMu      sync.Mutex
	lastSync    [][]float32
	lastSyncAt  time.Time
	stop        chan struct{}
	syncDone    chan struct{}
	syncStarted bool
	closed      sync.Once
}

// NewNode connects to the deployment and prepares a trainer over g. The
// node's bucket-sorted edge copy comes from g; which of those edges actually
// get trained each epoch is decided by the lock server.
func NewNode(g *graph.Graph, cfg NodeConfig) (*Node, error) {
	if cfg.LockAddr == "" {
		return nil, fmt.Errorf("dist: node needs a lock server address")
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = defaultSyncInterval
	}
	tag := fmt.Sprintf("rank%d", cfg.Rank)
	store, err := dialStore(g.Schema, cfg.Train.Dim, cfg.InitScale, false, cfg.PartitionAddrs,
		storeOpts{policy: cfg.Retry, chaos: cfg.Chaos, tag: tag})
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		store:    store,
		epoch:    cfg.EpochBase,
		stop:     make(chan struct{}),
		syncDone: make(chan struct{}),
		hbKick:   make(chan struct{}, 1),
		hbDone:   make(chan struct{}),
	}
	n.obs = cfg.Train.Obs
	if n.obs == nil {
		n.obs = obs.NewQuietHub()
	}
	n.leaseWait = n.obs.Reg.Counter("pbg_dist_lease_wait_ns_total")
	n.acquireNs = n.obs.Reg.Histogram(`pbg_dist_rpc_ns{method="AcquireBucket"}`)
	n.syncLag = n.obs.Reg.Gauge("pbg_dist_param_sync_lag_ns")
	n.leasesLost = n.obs.Reg.Counter("pbg_dist_leases_lost_total")
	n.carried = n.obs.Reg.Counter("pbg_dist_partitions_carried_total")
	n.uncommit = n.obs.Reg.Gauge("pbg_dist_buckets_uncommitted")
	fail := func(err error) (*Node, error) {
		_ = n.Close()
		return nil, err
	}
	n.lock, err = dialRetry("lock server", cfg.LockAddr, cfg.Retry, cfg.Chaos, tag)
	if err != nil {
		return fail(err)
	}
	n.lock.bindMetrics(n.obs.Reg)
	for _, addr := range cfg.ParamAddrs {
		c, err := dialRetry("param server", addr, cfg.Retry, cfg.Chaos, tag)
		if err != nil {
			return fail(err)
		}
		c.bindMetrics(n.obs.Reg)
		n.params = append(n.params, c)
	}
	n.trainer, err = train.New(g, store, cfg.Train)
	if err != nil {
		return fail(err)
	}
	n.res = n.trainer.NewResident()
	n.parts = map[int]bool{}
	if err := n.initRelParams(); err != nil {
		return fail(err)
	}
	n.syncStarted = true
	go n.syncLoop()
	n.hbStarted = true
	go n.heartbeatLoop()
	return n, nil
}

// heldLease is what the heartbeat renews: the rank's leases, under its
// newest fencing token.
type heldLease struct {
	epoch int
	token uint64
	ttl   time.Duration
}

// trainedBucket is a bucket trained and not yet committed: one of its
// partitions is still in the node's memory, carried into later buckets. Its
// loss and edges count only once the commit lands.
type trainedBucket struct {
	bucket partition.Bucket
	loss   float64
	edges  int
}

// setLease adopts a newly granted token: it fences the store's reads and
// writes from here on, and (ttl > 0) it is what the heartbeat carries. Token
// 0 — the node holds nothing — clears both.
func (n *Node) setLease(token uint64, ttl time.Duration) {
	n.token = token
	n.store.SetFenceToken(token)
	var l *heldLease
	if token != 0 && ttl > 0 {
		l = &heldLease{epoch: n.epoch, token: token, ttl: ttl}
	}
	n.hbMu.Lock()
	changed := l != nil || n.hbLease != nil
	n.hbLease = l
	n.hbMu.Unlock()
	if changed {
		select {
		case n.hbKick <- struct{}{}:
		default:
		}
	}
}

// heartbeatLoop renews the rank's leases at TTL/3 so a healthy trainer never
// expires, however long its bucket takes to train. A stale-lease rejection
// just detaches the heartbeat; the training goroutine discovers the loss
// through fencing (or its own next lock-server call) and handles it there.
func (n *Node) heartbeatLoop() {
	defer close(n.hbDone)
	for {
		n.hbMu.Lock()
		l := n.hbLease
		n.hbMu.Unlock()
		if l == nil {
			select {
			case <-n.stop:
				return
			case <-n.hbKick:
			}
			continue
		}
		interval := l.ttl / 3
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		timer := time.NewTimer(interval)
		select {
		case <-n.stop:
			timer.Stop()
			return
		case <-n.hbKick:
			timer.Stop()
			continue // lease changed; re-read it
		case <-timer.C:
		}
		n.hbMu.Lock()
		cur := n.hbLease
		n.hbMu.Unlock()
		if cur == nil || cur.token != l.token {
			continue
		}
		var ack Ack
		err := n.lock.Call("LockServer.Heartbeat",
			HeartbeatArgs{Epoch: cur.epoch, Rank: n.cfg.Rank, Token: cur.token}, &ack)
		if err != nil && IsStaleLease(err) {
			n.hbMu.Lock()
			if n.hbLease != nil && n.hbLease.token == cur.token {
				n.hbLease = nil
			}
			n.hbMu.Unlock()
		}
	}
}

// Trainer exposes the node's local trainer (scorers, relation parameters,
// store) for evaluation and advanced use.
func (n *Node) Trainer() *train.Trainer { return n.trainer }

// Rank returns the node's rank.
func (n *Node) Rank() int { return n.cfg.Rank }

func (n *Node) paramClient(rel int) *retryClient {
	return n.params[rel%len(n.params)]
}

// initRelParams publishes this node's initial relation parameters and adopts
// the canonical (first writer's) block, so all trainers start identically.
func (n *Node) initRelParams() error {
	schema := n.trainer.Schema()
	n.lastSync = make([][]float32, len(schema.Relations))
	if len(n.params) == 0 {
		return nil
	}
	for r := range schema.Relations {
		block := n.trainer.RelParams(r)
		if len(block) == 0 {
			continue
		}
		var reply InitRelReply
		if err := n.paramClient(r).Call("ParamServer.InitRel", InitRelArgs{Rel: r, Params: block}, &reply); err != nil {
			return fmt.Errorf("dist: init relation %d: %w", r, err)
		}
		n.trainer.SetRelParams(r, reply.Params)
		n.lastSync[r] = append([]float32(nil), reply.Params...)
	}
	return nil
}

// syncLoop drives the asynchronous parameter sync at SyncInterval.
func (n *Node) syncLoop() {
	defer close(n.syncDone)
	if len(n.params) == 0 {
		return
	}
	ticker := time.NewTicker(n.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			// Best effort: a failed background sync is retried next tick,
			// and SyncParams surfaces errors where callers can see them.
			_ = n.SyncParams()
		}
	}
}

// SyncParams pushes this node's relation-parameter deltas and pulls the
// global blocks, once for every parameterised relation. It runs in the
// background at SyncInterval and is forced at the end of every epoch so
// evaluation sees each node's final updates.
func (n *Node) SyncParams() error {
	if len(n.params) == 0 {
		return nil
	}
	n.syncMu.Lock()
	defer n.syncMu.Unlock()
	for r := range n.lastSync {
		if n.lastSync[r] == nil {
			continue // parameter-free relation
		}
		if err := n.syncRelation(r); err != nil {
			return err
		}
	}
	// Record the realised delta-push lag: how stale the relation parameters
	// this sync replaced had grown since the previous successful sync.
	now := time.Now()
	if !n.lastSyncAt.IsZero() {
		n.syncLag.Set(now.Sub(n.lastSyncAt).Nanoseconds())
	}
	n.lastSyncAt = now
	return nil
}

// syncRelation pushes relation r's local delta and adopts the global block.
// Scoring workers read relation parameters lock-free, so the adoption is a
// benign HOGWILD-style race, exactly like the paper's asynchronous updates;
// WithRelParams only orders this write against concurrent Adagrad updates.
func (n *Node) syncRelation(r int) error {
	last := n.lastSync[r]
	// Snapshot the local block and the delta since the last sync under the
	// trainer's relation lock, so we race with no HOGWILD update.
	snap := make([]float32, len(last))
	delta := make([]float32, len(last))
	n.trainer.WithRelParams(r, func(p []float32) {
		copy(snap, p)
		for i := range p {
			delta[i] = p[i] - last[i]
		}
	})
	var reply SyncReply
	if err := n.paramClient(r).Call("ParamServer.Sync", SyncArgs{Rel: r, Delta: delta}, &reply); err != nil {
		return fmt.Errorf("dist: sync relation %d: %w", r, err)
	}
	// Adopt the global block, preserving any local updates that landed while
	// the RPC was in flight (they are not on the server yet; they will ride
	// the next delta).
	n.trainer.WithRelParams(r, func(p []float32) {
		for i := range p {
			p[i] = reply.Params[i] + (p[i] - snap[i])
		}
	})
	n.lastSync[r] = reply.Params
	return nil
}

// RunEpoch trains this node's share of one epoch: it leases buckets until
// the lock server declares the epoch done. Some rank must have called
// StartEpoch (the Cluster does it; in multi-process deployments rank 0
// does); until then the node waits on the lock server.
//
// Each turn of the loop asks for the next bucket while still holding the
// last one's partitions. Granted one, the node stores the partitions the new
// bucket does not need, tells the lock server what that frees and commits,
// fetches what it lacks, and trains (trainLease). Told that nothing is
// reachable from what it holds, it stores everything and lets go, and only
// then — holding nothing — waits on the lock server. A lease found stale at
// any step costs the node everything it holds, unwritten — the buckets are
// already someone else's — and it carries on: losing a lease is not a node
// failure.
func (n *Node) RunEpoch() (EpochStats, error) {
	n.epoch++
	start := time.Now()
	ioBase, computeBase := n.trainer.IOTotals()
	ioStatsBase := n.store.IOStats()
	leaseBase := n.leaseWait.Value()
	var st EpochStats
	err := n.runLeases(&st)
	if err == nil {
		err = n.SyncParams()
	}
	st.Duration = time.Since(start)
	ioWait, compute := n.trainer.IOTotals()
	st.IOWait = ioWait - ioBase
	st.Compute = compute - computeBase
	io := n.store.IOStats()
	st.PartitionIO = int(io.Loads - ioStatsBase.Loads)
	st.Puts = int(io.Writes - ioStatsBase.Writes)
	st.LeaseWait = time.Duration(n.leaseWait.Value() - leaseBase)
	if err != nil {
		return st, err
	}
	st.PerNode = []NodeStats{{
		Rank:         n.cfg.Rank,
		Buckets:      st.Buckets,
		Edges:        st.Edges,
		PeakResident: n.trainer.PeakResidentBytes(),
	}}
	return st, nil
}

// runLeases is RunEpoch's loop; committed buckets accumulate in st. It
// returns holding nothing, on success and on failure.
func (n *Node) runLeases(st *EpochStats) error {
	for {
		var rep AcquireReply
		err := n.lockCall(n.acquireNs, "LockServer.AcquireBucket",
			AcquireArgs{Epoch: n.epoch, Rank: n.cfg.Rank, Token: n.token}, &rep)
		if err == nil {
			switch {
			case rep.Done:
				return nil
			case rep.Granted:
				err = n.trainLease(rep, st)
			case n.token != 0:
				// Nothing is reachable from what the node holds.
				if err = n.res.ReleaseAll(); err == nil {
					err = n.settle(nil, st)
				}
			}
		}
		switch {
		case err == nil:
		case IsFenced(err):
			n.leasesLost.Add(int64(len(n.pending)))
			n.discard()
		default:
			// A real failure: return the leases so another trainer can take
			// the buckets over (best effort — a lease nobody returns expires),
			// then surface the error.
			if n.token != 0 {
				var ack Ack
				_ = n.lock.Call("LockServer.AbandonBucket",
					ReleaseArgs{Epoch: n.epoch, Rank: n.cfg.Rank, Token: n.token}, &ack)
			}
			n.discard()
			return err
		}
	}
}

// trainLease is the bucket transition for a fresh grant: the Resident set
// stores what bucket b does not need, settle reports that to the lock
// server, the set fetches what b lacks, and b trains. An empty bucket has
// nothing to fetch or train; its lease only has to be committed.
func (n *Node) trainLease(rep AcquireReply, st *EpochStats) error {
	b := rep.Bucket
	n.setLease(rep.Token, rep.TTL)
	for _, p := range b.Parts() {
		n.parts[p] = true
	}
	if n.trainer.BucketEdgeCount(b) == 0 {
		n.pending = append(n.pending, trainedBucket{bucket: b})
		n.uncommit.Add(1)
		return n.settle(nil, st)
	}
	err := n.res.Advance(b, func() error {
		if n.res.Len() > 0 {
			n.carried.Inc()
		}
		return n.settle(b.Parts(), st)
	})
	tb := trainedBucket{bucket: b}
	if err == nil {
		tb.loss, tb.edges, err = n.res.Train(b)
	}
	if err != nil {
		if IsFenced(err) {
			n.leasesLost.Inc() // b itself, beside the pending ones
		}
		return err
	}
	n.pending = append(n.pending, tb)
	n.uncommit.Add(1)
	return nil
}

// lockCall makes one lock-server call and books its duration as lease wait.
func (n *Node) lockCall(h *obs.Histogram, method string, args, reply any) error {
	t0 := time.Now()
	err := n.lock.Call(method, args, reply)
	d := time.Since(t0).Nanoseconds()
	if h != nil {
		h.Observe(float64(d))
	}
	n.leaseWait.Add(d)
	return err
}

// settle tells the lock server what the shards just stored have changed. The
// pending buckets none of whose shards the node still holds are committed:
// both their partitions are on the partition servers. The partitions the
// node holds no shard of — keep, those of a bucket about to be fetched,
// aside — are unlocked for other trainers, whatever has committed. A
// bucket's stats count only once its commit lands: one whose lease was lost
// will be retrained (and counted) by whoever re-leases it.
func (n *Node) settle(keep []int, st *EpochStats) error {
	args := ReleaseArgs{Epoch: n.epoch, Rank: n.cfg.Rank, Token: n.token}
	var pending []trainedBucket
	var done EpochStats
	for _, tb := range n.pending {
		if n.res.Holds(tb.bucket) {
			pending = append(pending, tb)
			continue
		}
		args.Buckets = append(args.Buckets, tb.bucket)
		done.Loss += tb.loss
		done.Edges += tb.edges
		done.Buckets++
	}
	parts := map[int]bool{}
	for _, p := range append(n.res.Parts(), keep...) {
		parts[p] = true
	}
	for p := range n.parts {
		if !parts[p] {
			args.Parts = append(args.Parts, p)
		}
	}
	if len(args.Buckets)+len(args.Parts) == 0 {
		return nil
	}
	var ack Ack
	if err := n.lockCall(nil, "LockServer.ReleaseBucket", args, &ack); err != nil {
		return err
	}
	st.Loss += done.Loss
	st.Edges += done.Edges
	st.Buckets += done.Buckets
	n.uncommit.Add(int64(-done.Buckets))
	n.pending, n.parts = pending, parts
	if len(pending) == 0 && keep == nil {
		n.setLease(0, 0) // every lease committed: the node holds nothing
	}
	return nil
}

// discard drops every shard the node holds without writing it and forgets
// its leases: the lock server has taken them back, or has just been told to.
func (n *Node) discard() {
	n.store.discard.Store(true)
	_ = n.res.ReleaseAll() // errDiscarded for every shard, by construction
	n.store.discard.Store(false)
	n.uncommit.Add(int64(-len(n.pending)))
	n.pending, n.parts = nil, map[int]bool{}
	n.setLease(0, 0)
}

// Close stops the sync goroutine and hangs up every connection.
func (n *Node) Close() error {
	var first error
	n.closed.Do(func() {
		close(n.stop)
		if n.syncStarted {
			<-n.syncDone
		}
		if n.hbStarted {
			<-n.hbDone
		}
		if n.store != nil {
			first = n.store.Close()
		}
		if n.lock != nil {
			if err := n.lock.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, c := range n.params {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}

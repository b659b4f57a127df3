package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/storage"
)

// remoteStore is a storage.Cache whose backend is the deployment's sharded
// partition-server memory: a load is a fenced Get, a store a fenced Put. It
// is what makes train.Trainer work unchanged in distributed mode — the
// Acquire/Release calls of a bucket transition become the §4.2 partition
// swaps, under the same prefetch, refcount and memory-budget rules as a
// local DiskStore.
//
// A partition two consecutive buckets share stays checked out across the
// transition: the node holds its reference, so the cache has nothing to
// decide. The cache is still built storage.WriteThrough, because the last
// Release is the node giving the partition up: it tells the lock server the
// partition is free as soon as Release returns, so the Put must have landed
// by then, and a copy kept past it could go stale under another trainer's
// writes.
//
// A readonly store (used for evaluation snapshots) never Puts, so concurrent
// trainers never observe an evaluator's stale copy.
type remoteStore struct {
	*storage.Cache

	schema    *graph.Schema
	dim       int
	initScale float32
	readonly  bool
	clients   []*retryClient

	// fenceTok is the fencing token of the node's current bucket lease,
	// stamped on every Get/Put so the partition servers can reject writes
	// from a superseded lease. 0 (eval stores, single-trainer runs without a
	// TTL) bypasses fencing.
	fenceTok atomic.Uint64

	// discard makes Store refuse without an RPC: set while the node drops
	// shards whose leases it has lost, which must not be written.
	discard atomic.Bool

	// free holds shards the checkout cache has dropped (Recycle) for the next
	// Load to decode into. A shard enters it only by leaving the cache and a
	// Load takes one out, so it holds at most what the last bucket transition
	// stored; maxFreeShards is the ceiling on a transition's width.
	freeMu sync.Mutex
	free   []*storage.Shard

	// obs and the histograms record the RPCs themselves; see SetObs.
	obs          *obs.Hub
	getNs, putNs *obs.Histogram
}

const maxFreeShards = 4

// Recycle implements storage.Recycler: sh is dead — the cache has dropped
// it and nobody holds it — so the next Load may overwrite its buffers.
func (s *remoteStore) Recycle(sh *storage.Shard) {
	s.freeMu.Lock()
	if len(s.free) < maxFreeShards {
		s.free = append(s.free, sh)
	}
	s.freeMu.Unlock()
}

// spare takes a dead shard off the free list, or returns nil.
func (s *remoteStore) spare() *storage.Shard {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	last := len(s.free) - 1
	if last < 0 {
		return nil
	}
	sh := s.free[last]
	s.free[last] = nil
	s.free = s.free[:last]
	return sh
}

// storeOpts carries the resilience knobs a store's partition-server clients
// are built with.
type storeOpts struct {
	policy RetryPolicy
	chaos  *Chaos
	tag    string // chaos identity of the owning node
}

// dialStore connects to every partition server and returns a store over
// them. The store owns the connections; Close hangs them up.
func dialStore(schema *graph.Schema, dim int, initScale float32, readonly bool, addrs []string, o storeOpts) (*remoteStore, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dist: no partition servers")
	}
	if initScale == 0 {
		initScale = 1
	}
	s := &remoteStore{schema: schema, dim: dim, initScale: initScale, readonly: readonly}
	s.Cache = storage.NewCache(s, storage.WriteThrough, schema, dim, newDistStoreMetrics)
	s.SetObs(obs.NewQuietHub())
	for _, addr := range addrs {
		c, err := dialRetry("partition server", addr, o.policy, o.chaos, o.tag)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// newDistStoreMetrics publishes the checkout cache's counts under the dist
// names: a load is a fetch, a write a put.
func newDistStoreMetrics(reg *obs.Registry) storage.CacheMetrics {
	return storage.CacheMetrics{
		Loads:        reg.Counter("pbg_dist_fetches_total"),
		Writes:       reg.Counter("pbg_dist_puts_total"),
		Admits:       reg.Counter("pbg_dist_admits_total"),
		Sheds:        reg.Counter("pbg_dist_prefetch_sheds_total"),
		ForcedEvicts: reg.Counter("pbg_dist_forced_evicts_total"),
		CleanWaits:   reg.Counter("pbg_dist_clean_waits_total"),
		Resident:     reg.Gauge("pbg_dist_resident_bytes"),
		Dirty:        reg.Gauge("pbg_dist_dirty_bytes"),
	}
}

// SetObs binds the store's metrics — the cache's, the RPC histograms and the
// clients' retry counters — and its spans to h; call once, before the first
// Prefetch/Acquire. The store starts on a private quiet hub; train.New
// plumbs Config.Obs here automatically.
func (s *remoteStore) SetObs(h *obs.Hub) {
	if h == nil {
		return
	}
	s.Cache.SetObs(h)
	s.obs = h
	s.getNs = h.Reg.Histogram(`pbg_dist_rpc_ns{method="Get"}`)
	s.putNs = h.Reg.Histogram(`pbg_dist_rpc_ns{method="Put"}`)
	for _, c := range s.clients {
		c.bindMetrics(h.Reg)
	}
}

func (s *remoteStore) client(t, p int) *retryClient {
	return s.clients[serverIndex(t, p, len(s.clients))]
}

// SetFenceToken sets the lease token stamped on subsequent partition-server
// reads and writes (0 = unfenced). The node updates it at every lease grant,
// so a partition carried across buckets is written under the newest one.
func (s *remoteStore) SetFenceToken(tok uint64) {
	s.fenceTok.Store(tok)
}

// Load implements storage.Backend: the Get RPC for shard (t,p), which the
// owning server initialises lazily on first touch. The cache calls it
// without its lock held, so fetches of different shards overlap on the wire.
func (s *remoteStore) Load(t, p int) (*storage.Shard, error) {
	args := GetArgs{
		TypeIndex: t,
		Part:      p,
		Count:     s.schema.Entities[t].PartitionCount(p),
		Dim:       s.dim,
		InitScale: s.initScale,
		Token:     s.fenceTok.Load(),
	}
	// The reply is read off the connection into a shard the cache has let go
	// of, when there is one; retryClient guarantees nothing writes to it once
	// the call has returned, whatever the outcome.
	reply := shardIn{want: args, sh: s.spare()}
	sp := s.obs.Trace.Start("dist", fmt.Sprintf("get t%d p%d", t, p))
	t0 := time.Now()
	err := s.client(t, p).callSpan("PartitionServer.Get", uint64(sp.ID()), args, &reply)
	s.getNs.Observe(float64(time.Since(t0).Nanoseconds()))
	sp.End()
	if err != nil {
		if reply.sh != nil {
			s.Recycle(reply.sh)
		}
		return nil, fmt.Errorf("dist: get shard (%d,%d): %w", t, p, err)
	}
	return reply.sh, nil
}

// checkReplyLayout holds a Get reply to the shard args asked for.
func checkReplyLayout(args GetArgs, l storage.Layout) error {
	if l.TypeIndex != args.TypeIndex || l.Part != args.Part || l.Count != args.Count || l.Dim != args.Dim {
		return fmt.Errorf("dist: server sent shard (%d,%d) of %d×%d, want %d×%d",
			l.TypeIndex, l.Part, l.Count, l.Dim, args.Count, args.Dim)
	}
	return nil
}

// decodeGetReply decodes a Get reply held in memory (in-process callers;
// the store reads replies through shardIn), which must be the shard args
// asked for.
func decodeGetReply(args GetArgs, b []byte) (*storage.Shard, error) {
	l, err := wireLayout(b)
	if err == nil {
		err = checkReplyLayout(args, l)
	}
	if err != nil {
		return nil, err
	}
	return l.Decode(b)
}

// Store implements storage.Backend: the Put RPC that writes sh back to its
// partition server, so the next trainer to lease a bucket touching this
// partition sees the update. A readonly store skips it (the cache still
// counts the release as a write; nothing reads an eval store's counters).
func (s *remoteStore) Store(sh *storage.Shard) error {
	if s.readonly {
		return nil
	}
	if s.discard.Load() {
		return errDiscarded
	}
	sp := s.obs.Trace.Start("dist", fmt.Sprintf("put t%d p%d", sh.TypeIndex, sh.Part))
	t0 := time.Now()
	var ack Ack
	err := s.client(sh.TypeIndex, sh.Part).callSpan("PartitionServer.Put", uint64(sp.ID()),
		shardOut{sh: sh, token: s.fenceTok.Load()}, &ack)
	s.putNs.Observe(float64(time.Since(t0).Nanoseconds()))
	sp.End()
	if err != nil {
		return fmt.Errorf("dist: put shard (%d,%d): %w", sh.TypeIndex, sh.Part, err)
	}
	return nil
}

// errDiscarded is Store's answer while the node is discarding: the cache
// drops the shard and counts no write.
var errDiscarded = errors.New("dist: shard discarded unwritten")

// Close implements storage.Store: wait for in-flight fetches, then hang up
// the partition-server connections. Nothing resident is written back — a
// store closed with shards still checked out has lost or abandoned its
// lease.
func (s *remoteStore) Close() error {
	first := s.Cache.Close()
	for _, c := range s.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.clients = nil
	return first
}

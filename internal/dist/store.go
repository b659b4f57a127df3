package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/storage"
)

// distStoreMetrics holds the checkout cache's registry handles. Each store
// starts on a private quiet hub; SetObs rebinds the handles to a shared
// registry (train.New plumbs Config.Obs here, the same way it does for
// storage.DiskStore).
type distStoreMetrics struct {
	fetches, puts, sheds, forcedEvicts *obs.Counter
	getNs, putNs                       *obs.Histogram
	resident                           *obs.Gauge
}

func newDistStoreMetrics(reg *obs.Registry) distStoreMetrics {
	return distStoreMetrics{
		fetches:      reg.Counter("pbg_dist_fetches_total"),
		puts:         reg.Counter("pbg_dist_puts_total"),
		sheds:        reg.Counter("pbg_dist_prefetch_sheds_total"),
		forcedEvicts: reg.Counter("pbg_dist_forced_evicts_total"),
		getNs:        reg.Histogram(`pbg_dist_rpc_ns{method="Get"}`),
		putNs:        reg.Histogram(`pbg_dist_rpc_ns{method="Put"}`),
		resident:     reg.Gauge("pbg_dist_resident_bytes"),
	}
}

// remoteStore implements storage.Store on top of a set of partition servers:
// Acquire checks a shard out over RPC, Release writes it back and evicts it.
// It is the distributed analogue of storage.DiskStore — the "disk" is the
// deployment's sharded partition-server memory — and it is what makes
// train.Trainer work unchanged in distributed mode: the trainer's per-bucket
// Acquire/Release calls become the §4.2 partition swaps.
//
// A readonly store (used for evaluation snapshots) skips the write-back so
// concurrent trainers never observe an evaluator's stale copy.
//
// Shards are deliberately not cached across buckets: once the bucket lease
// is released, another trainer may acquire and modify a shared partition,
// so a kept copy could go stale. Exploiting the lock server's Held affinity
// without refetching would require leases that span bucket transitions.
type remoteStore struct {
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

	mu    sync.Mutex
	cache map[partKey]*storeEntry
	// maxResident is the same admission budget storage.DiskStore enforces,
	// plumbed here so a node's checkout cache obeys the node's memory
	// envelope: prefetch hints that do not fit are dropped, and a must-have
	// Acquire first evicts fetched-but-never-acquired shards (which were
	// never modified, so they drop without a Put). 0 = unbounded.
	maxResident int64
	useSeq      int64

	// obs/m record fetches, write-backs, budget decisions, and RPC
	// latencies; set at construction or by one SetObs call before use.
	// The private atomics below back IOStats: several in-process stores
	// may share one hub (a Cluster with Config.Obs set), so the registry
	// counters aggregate across stores while these stay per-store exact.
	obs        *obs.Hub
	m          distStoreMetrics
	fetchCount atomic.Int64
	putCount   atomic.Int64
	shedCount  atomic.Int64
	evictCount atomic.Int64
}

type storeEntry struct {
	shard *storage.Shard
	refs  int
	// size is the projected shard footprint while the fetch is in flight
	// (known from the schema), so admission charges fetches up front.
	size int64
	// lastUse orders never-acquired prefetched shards for LRU eviction.
	lastUse int64
	// waiters counts Acquires blocked on ready (or re-locking just after
	// it closed); eviction skips entries a waiter is about to claim, so a
	// just-landed prefetch cannot be evicted into a redundant re-fetch.
	waiters int
	// ready is non-nil while a fetch (Prefetch or first Acquire) is in
	// flight; shard/err are set before it closes and immutable afterwards.
	ready chan struct{}
	err   error
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
	s := &remoteStore{
		schema:    schema,
		dim:       dim,
		initScale: initScale,
		readonly:  readonly,
		cache:     make(map[partKey]*storeEntry),
		obs:       obs.NewQuietHub(),
	}
	s.m = newDistStoreMetrics(s.obs.Reg)
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

func (s *remoteStore) client(t, p int) *retryClient {
	return s.clients[serverIndex(t, p, len(s.clients))]
}

// SetFenceToken sets the lease token stamped on subsequent partition-server
// reads and writes (0 = unfenced). The node updates it at every lease grant.
func (s *remoteStore) SetFenceToken(tok uint64) {
	s.fenceTok.Store(tok)
}

// SetObs rebinds the store's metrics onto h's shared registry; call once,
// before the first Prefetch/Acquire. train.New plumbs Config.Obs here
// automatically for any store exposing this method.
func (s *remoteStore) SetObs(h *obs.Hub) {
	if h == nil {
		return
	}
	s.obs = h
	s.m = newDistStoreMetrics(h.Reg)
	for _, c := range s.clients {
		c.bindMetrics(h.Reg)
	}
}

// IOStats reports cumulative checkout-cache activity in DiskStore's IOStats
// shape: Loads are partition-server fetches, Writes are Put write-backs
// (Admits is not a remote-store concept and stays 0). The counts come from
// per-store atomics, so they stay exact even when several stores share one
// obs hub.
func (s *remoteStore) IOStats() storage.IOStats {
	return storage.IOStats{
		Loads:         s.fetchCount.Load(),
		Writes:        s.putCount.Load(),
		PrefetchSheds: s.shedCount.Load(),
		ForcedEvicts:  s.evictCount.Load(),
	}
}

// SetMaxResidentBytes sets the checkout-cache admission budget (0 =
// unbounded). train.New plumbs Config.MemBudgetBytes here, the same way it
// does for a local DiskStore.
func (s *remoteStore) SetMaxResidentBytes(n int64) {
	s.mu.Lock()
	s.maxResident = n
	s.mu.Unlock()
}

// shardBytes is the exact in-memory size shard (t,p) will occupy once
// fetched, known from the schema without a round trip.
func (s *remoteStore) shardBytes(t, p int) int64 {
	return storage.ProjectedShardBytes(s.schema, s.dim, t, p)
}

// accountedLocked charges resident shards plus in-flight fetch projections
// against the budget.
func (s *remoteStore) accountedLocked() int64 {
	var total int64
	for _, e := range s.cache {
		if e.shard != nil {
			total += e.shard.Bytes()
		} else {
			total += e.size
		}
	}
	return total
}

// evictUnusedLocked drops the least-recently-fetched shard that was
// prefetched but never acquired. Such shards are unmodified, so no Put is
// needed — the partition server's copy is still canonical.
func (s *remoteStore) evictUnusedLocked() bool {
	var victimK partKey
	var victim *storeEntry
	for k, e := range s.cache {
		if e.refs == 0 && e.ready == nil && e.waiters == 0 {
			if victim == nil || e.lastUse < victim.lastUse {
				victimK, victim = k, e
			}
		}
	}
	if victim == nil {
		return false
	}
	delete(s.cache, victimK)
	s.m.forcedEvicts.Inc()
	s.evictCount.Add(1)
	s.updateResidentLocked()
	return true
}

// get performs the Get RPC for shard (t,p). Called without the lock held so
// fetches of different shards overlap on the wire.
func (s *remoteStore) get(t, p int) (*storage.Shard, error) {
	var reply ShardReply
	args := GetArgs{
		TypeIndex: t,
		Part:      p,
		Count:     s.schema.Entities[t].PartitionCount(p),
		Dim:       s.dim,
		InitScale: s.initScale,
		Token:     s.fenceTok.Load(),
	}
	sp := s.obs.Trace.Start("dist", fmt.Sprintf("get t%d p%d", t, p))
	t0 := time.Now()
	err := s.client(t, p).Call("PartitionServer.Get", args, &reply)
	var sh *storage.Shard
	if err == nil {
		sh, err = decodeGetReply(args, reply.Shard)
	}
	s.m.getNs.Observe(float64(time.Since(t0).Nanoseconds()))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("dist: get shard (%d,%d): %w", t, p, err)
	}
	s.m.fetches.Inc()
	s.fetchCount.Add(1)
	return sh, nil
}

// decodeGetReply decodes a Get reply, which must be the shard args asked for.
func decodeGetReply(args GetArgs, b []byte) (*storage.Shard, error) {
	l, err := wireLayout(b)
	if err != nil {
		return nil, err
	}
	if l.TypeIndex != args.TypeIndex || l.Part != args.Part || l.Count != args.Count || l.Dim != args.Dim {
		return nil, fmt.Errorf("dist: server sent shard (%d,%d) of %d×%d, want %d×%d",
			l.TypeIndex, l.Part, l.Count, l.Dim, args.Count, args.Dim)
	}
	return l.Decode(b)
}

// put performs the Put RPC that writes sh back to its partition server.
func (s *remoteStore) put(sh *storage.Shard) error {
	b, err := encodeShard(sh)
	if err != nil {
		return err
	}
	var ack Ack
	return s.client(sh.TypeIndex, sh.Part).Call("PartitionServer.Put", PutArgs{Shard: b, Token: s.fenceTok.Load()}, &ack)
}

// fetch resolves an in-flight entry: it runs the RPC and publishes the
// result. On failure the entry is removed so a retry can refetch; waiters
// read err from their captured entry pointer.
func (s *remoteStore) fetch(k partKey, e *storeEntry) {
	sh, err := s.get(k.t, k.p)
	s.mu.Lock()
	e.shard, e.err = sh, err
	if err != nil {
		delete(s.cache, k)
	} else {
		e.size = sh.Bytes()
		s.useSeq++
		e.lastUse = s.useSeq
	}
	s.updateResidentLocked()
	close(e.ready)
	e.ready = nil
	s.mu.Unlock()
}

// Prefetch implements storage.Store: it starts fetching shard (t,p) from its
// partition server in the background so a later Acquire finds it resident —
// the remote analogue of the DiskStore prefetch that lets the pipelined
// epoch executor overlap partition-server round trips with training. It is
// a no-op when the shard is already cached or being fetched.
func (s *remoteStore) Prefetch(t, p int) {
	k := partKey{t, p}
	s.mu.Lock()
	if _, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return
	}
	size := s.shardBytes(t, p)
	if s.maxResident > 0 && s.accountedLocked()+size > s.maxResident {
		// Hints are advisory: the budget drops them rather than evicting
		// for them (mirroring storage.DiskStore's admission rule).
		s.m.sheds.Inc()
		s.shedCount.Add(1)
		s.mu.Unlock()
		return
	}
	e := &storeEntry{ready: make(chan struct{}), size: size}
	s.cache[k] = e
	s.mu.Unlock()
	go s.fetch(k, e)
}

// Acquire implements storage.Store: a cache miss fetches the shard from the
// owning partition server; a hit on an in-flight prefetch waits for that
// fetch instead of issuing a second Get (two copies of the same shard would
// diverge under training).
func (s *remoteStore) Acquire(t, p int) (*storage.Shard, error) {
	k := partKey{t, p}
	s.mu.Lock()
	for {
		e, ok := s.cache[k]
		if !ok {
			size := s.shardBytes(t, p)
			if s.maxResident > 0 {
				// A must-have evicts never-acquired prefetched shards until
				// the fetch fits; when everything left is referenced it
				// proceeds over budget (training cannot progress otherwise).
				for s.accountedLocked()+size > s.maxResident && s.evictUnusedLocked() {
				}
			}
			e = &storeEntry{ready: make(chan struct{}), size: size}
			s.cache[k] = e
			s.mu.Unlock()
			s.fetch(k, e) // synchronous fetch in this goroutine
			if e.err != nil {
				return nil, e.err
			}
			s.mu.Lock()
			continue
		}
		if e.ready != nil {
			ready := e.ready
			e.waiters++
			s.mu.Unlock()
			<-ready
			s.mu.Lock()
			e.waiters--
			if e.err != nil {
				s.mu.Unlock()
				return nil, e.err
			}
			continue
		}
		e.refs++
		sh := e.shard
		s.mu.Unlock()
		return sh, nil
	}
}

// Release implements storage.Store: the last reference writes the shard back
// to its partition server and evicts it, so the next trainer to lease a
// bucket touching this partition sees the update. Unlike DiskStore's
// asynchronous write-back, the Put stays synchronous: the lock server may
// grant these partitions to another trainer the moment the bucket lease is
// returned, so the write must have landed before Release returns.
func (s *remoteStore) Release(t, p int) error {
	s.mu.Lock()
	k := partKey{t, p}
	e, ok := s.cache[k]
	if !ok || e.refs <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("dist: Release of unacquired shard (%d,%d)", t, p)
	}
	e.refs--
	if e.refs > 0 {
		s.mu.Unlock()
		return nil
	}
	delete(s.cache, k)
	s.updateResidentLocked()
	s.mu.Unlock()
	if s.readonly {
		return nil
	}
	// Write back outside the lock: the shard is no longer visible locally.
	sp := s.obs.Trace.Start("dist", fmt.Sprintf("put t%d p%d", t, p))
	t0 := time.Now()
	err := s.put(e.shard)
	s.m.putNs.Observe(float64(time.Since(t0).Nanoseconds()))
	sp.End()
	if err != nil {
		return fmt.Errorf("dist: put shard (%d,%d): %w", t, p, err)
	}
	s.m.puts.Inc()
	s.putCount.Add(1)
	return nil
}

// Flush implements storage.Store: push every resident shard back without
// evicting (checkpoint-style).
func (s *remoteStore) Flush() error {
	if s.readonly {
		return nil
	}
	s.mu.Lock()
	shards := make([]*storage.Shard, 0, len(s.cache))
	for _, e := range s.cache {
		if e.shard != nil { // skip fetches still in flight
			shards = append(shards, e.shard)
		}
	}
	s.mu.Unlock()
	for _, sh := range shards {
		if err := s.put(sh); err != nil {
			return err
		}
	}
	return nil
}

// ResidentBytes implements storage.Store.
func (s *remoteStore) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentLocked()
}

func (s *remoteStore) residentLocked() int64 {
	var total int64
	for _, e := range s.cache {
		if e.shard != nil { // fetches still in flight hold no memory yet
			total += e.shard.Bytes()
		}
	}
	return total
}

// updateResidentLocked refreshes the resident-bytes gauge at every
// transition that changes checkout-cache memory.
func (s *remoteStore) updateResidentLocked() {
	s.m.resident.Set(s.residentLocked())
}

// Close implements storage.Store: hang up the partition-server connections.
func (s *remoteStore) Close() error {
	var first error
	for _, c := range s.clients {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.clients = nil
	return first
}

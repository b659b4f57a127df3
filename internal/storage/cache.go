package storage

import (
	"errors"
	"fmt"
	"sync"

	"pbg/internal/graph"
	"pbg/internal/obs"
)

// cacheIOWorkers bounds the number of concurrent background shard loads and
// write-backs per Cache. Two is enough to overlap one prefetch with one
// eviction; four covers buckets whose relations span several entity types.
const cacheIOWorkers = 4

// errShed marks a prefetch that the memory budget cancelled while it sat in
// the pool queue. An Acquire that joined the load observes it and retries as
// a must-have cache miss instead of surfacing an error: shedding a hint must
// never fail a real acquisition (and must never strand the joined waiter on
// a deleted loading entry).
var errShed = errors.New("storage: prefetch shed by memory budget")

// Backend is where a Cache's shards live while they are not in memory: a
// directory of shard files (DiskStore) or the deployment's partition servers
// (internal/dist). The cache calls both methods without its lock held and
// never calls Store for a shard a caller may still be mutating.
type Backend interface {
	// Load returns shard (t,p): its durable copy, or its deterministic lazy
	// initialisation when none exists yet.
	Load(t, p int) (*Shard, error)
	// Store makes sh the durable copy; when it returns, a Load by anyone
	// sees sh's state.
	Store(sh *Shard) error
}

// cacheEntry is one cached shard together with its I/O state. An entry moves
// through three states, always under the cache lock:
//
//	loading:  ready != nil — a Prefetch or first Acquire is running the
//	          backend's Load; shard/loadErr are set before ready closes.
//	resident: ready == nil, writing == false — the shard is usable.
//	writing:  refs hit zero and a Store is in flight. A write-back works on
//	          a snapshot copied outside the lock, so a concurrent Acquire
//	          revives the live in-memory shard immediately — it neither
//	          re-reads a stale durable copy nor waits for the write. The
//	          entry stays cached until the Store lands. (A write that holds
//	          the live buffers instead — no budget headroom for the copy, or
//	          a write-through backend — makes a revival wait on writeDone.)
type cacheEntry struct {
	shard *Shard
	refs  int

	// size is the entry's budget price: projected from the schema while the
	// shard is still loading (shard == nil) — admission accounting charges
	// loads up front so a burst of prefetch hints cannot overshoot the
	// budget — and re-derived from the shard's actual shape once it lands.
	// Shard shapes are known from the schema, so the projection is exact.
	size int64

	ready   chan struct{} // non-nil while a load is in flight
	loadErr error         // set before ready closes; immutable afterwards
	// waiters counts Acquires blocked on ready (or re-locking just after it
	// closed); eviction skips entries a waiter is about to claim.
	waiters int
	// queued marks a prefetch whose pool load has not started yet; only
	// queued loads can be shed (a running load cannot be cancelled).
	queued bool
	// shedded tells the pool goroutine its entry was cancelled and removed
	// from the cache; it must abandon the load without touching the map.
	shedded bool

	// span is the open prefetch-window span (Prefetch call → load
	// published or hint shed); the load itself traces as its child. Nil
	// when tracing is off or the entry came from a direct Acquire.
	span *obs.Span

	// clean marks a resident shard that is bit-identical to its durable copy
	// (or to its deterministic lazy init): a prefetched-but-unacquired load,
	// or — under a budget — a shard retained in cache after its write-back
	// landed. Clean entries evict without any I/O. Acquire clears the flag.
	clean bool
	// lastUse is the cache's logical clock (a monotonic counter, not wall
	// time) at the entry's last transition: when its hint was queued, when
	// its prefetch load landed, when refs dropped to zero. Eviction takes
	// the oldest clean entry, shedding the youngest queued hint.
	lastUse int64

	writing bool
	// rewrite marks that refs hit zero again while a write was in flight;
	// the completion handler chains a write of a fresh snapshot, so an
	// older in-flight write can never overwrite newer data (writes of one
	// shard are strictly serialised through this flag).
	rewrite bool
	// snapDone is non-nil for the brief window while the write-back's
	// snapshot copy is being taken outside the cache lock; an Acquire that
	// revives the entry waits on it (a memcpy, not a write) before handing
	// out the buffers for mutation.
	snapDone chan struct{}
	// writeDone is non-nil while a Store of the live buffers is in flight;
	// a revival waits for the whole write before the caller may mutate.
	writeDone chan struct{}
}

// CacheMetrics are the registry series a Cache publishes. Each owner binds
// them under its own historical names (pbg_storage_* for DiskStore,
// pbg_dist_* for the partition-server checkout cache); IOStats reads the
// cache's own per-instance counts, never these, so it stays exact when
// several in-process caches share one registry.
type CacheMetrics struct {
	Loads, Writes, Admits, Sheds, ForcedEvicts *obs.Counter
	Resident                                   *obs.Gauge
}

// IOStats is a Cache's cumulative I/O and memory-budget accounting. The
// counts are per cache instance; the same events also feed the CacheMetrics
// series of whichever obs hub the owner attached.
type IOStats struct {
	// Loads counts backend loads that produced a shard (reads, fetches, or
	// deterministic lazy inits).
	Loads int64
	// Writes counts shards the backend stored on a last Release or a
	// chained rewrite. Flush's checkpoint rewrites are not counted.
	Writes int64
	// Admits counts loads that passed the admission check while a budget
	// was set (prefetch hints and must-have Acquires both count).
	Admits int64
	// PrefetchSheds counts prefetch hints the budget refused: dropped at
	// Prefetch time, or shed from the pool queue before their load started.
	PrefetchSheds int64
	// ForcedEvicts counts unreferenced clean shards evicted to make room
	// for a must-have Acquire (LRU by last release; no I/O needed — the
	// durable copy is current).
	ForcedEvicts int64
}

// Cache is the partition buffer of §4.1/§4.2: it keeps referenced (and
// prefetched) shards in memory over a Backend that holds the rest. Loads
// hinted via Prefetch and the write-back of released shards run on a small
// background I/O pool so the training thread overlaps bucket transitions
// with compute. Write-backs double-buffer: each writes a snapshot taken at
// release, costing one transient shard copy per in-flight write (bounded by
// the pool size) in exchange for re-Acquires never stalling on the write.
//
// SetMaxResidentBytes turns the cache into a memory-budgeted one: admission
// accounting (resident shards + in-flight load projections + write
// snapshots) is enforced against the budget — prefetch hints that don't fit
// are dropped or shed, a must-have Acquire evicts unreferenced clean shards
// LRU-first (waiting for in-flight I/O when that is the only way to free
// memory), and shards whose write-back landed are retained as clean entries
// while they fit. Only a must-have whose working set simply cannot fit runs
// over budget.
//
// The one policy a backend changes is fixed at construction: over a
// WriteThrough backend the last Release stores the shard before it returns
// and never retains it (see WritePolicy).
type Cache struct {
	backend Backend
	policy  WritePolicy
	schema  *graph.Schema
	dim     int
	// codec is what the budget prices shards in: admission, eviction,
	// snapshot reservations and ResidentBytes all charge
	// ProjectedShardBytesCodec. Only an owner whose backend stores shards in
	// a codec sets it (DiskStore.SetCodec); everything else is fp32.
	codec Codec

	mu          sync.Mutex
	cond        *sync.Cond // signalled when in-flight I/O frees accounted memory
	cache       map[shardKey]*cacheEntry
	ioErr       error // first async write-back failure; sticky
	closed      bool
	maxResident int64 // admission budget; 0 = unbounded (no retention either)
	useSeq      int64 // logical clock for lastUse stamps
	snapBytes   int64 // memory held by in-flight write-back snapshots
	stats       IOStats

	// obs carries the cache's spans; m is bind applied to its registry. Both
	// are set at construction (private quiet hub) or by a single SetObs call
	// before the cache is used, and read without the lock afterwards.
	obs  *obs.Hub
	bind func(*obs.Registry) CacheMetrics
	m    CacheMetrics

	sem     chan struct{} // bounds concurrent background I/O
	pending sync.WaitGroup

	// TestHookQueuedLoad, when set before any Prefetch, runs on the pool just
	// before a queued hint re-checks admission. Conformance tests use it to
	// hold hints in the queued state; nothing else may set it.
	TestHookQueuedLoad func(t, p int)
}

// WritePolicy is what a Cache's last Release does with the shard. It is a
// property of the backend, fixed when the cache is built over it.
type WritePolicy int

const (
	// WriteBack: the durable copies are private to the cache (a directory of
	// shard files). The last Release snapshots the shard, stores the copy
	// asynchronously, reports a failure as a sticky error, and — under a
	// budget — retains the written shard as a clean entry.
	WriteBack WritePolicy = iota
	// WriteThrough: the durable copies are shared, and another writer may be
	// handed a shard the moment this cache's owner lets go of it (a
	// partition server re-leasing a bucket's partitions). The last Release
	// blocks until Store lands, writes the live buffers rather than a
	// snapshot copy, returns Store's error itself, and drops the entry — a
	// retained copy could only go stale.
	WriteThrough
)

// NewCache returns a cache of dim-wide shards of schema over b. bind
// resolves the cache's metric handles in a registry — first a private one,
// then whichever hub SetObs attaches.
func NewCache(b Backend, policy WritePolicy, schema *graph.Schema, dim int, bind func(*obs.Registry) CacheMetrics) *Cache {
	c := &Cache{
		backend: b,
		policy:  policy,
		schema:  schema,
		dim:     dim,
		cache:   make(map[shardKey]*cacheEntry),
		sem:     make(chan struct{}, cacheIOWorkers),
		obs:     obs.NewQuietHub(),
		bind:    bind,
	}
	c.m = bind(c.obs.Reg)
	c.cond = sync.NewCond(&c.mu)
	return c
}

// SetObs attaches the cache's counters and resident-bytes gauge, and its
// load/write-back/snapshot spans, to h. Call it once, before the first
// Prefetch/Acquire: attaching re-creates the metric handles in h's
// registry, so counts published on the previous hub are not carried over
// (IOStats is unaffected). train.New plumbs Config.Obs here automatically
// for any store exposing this method.
func (c *Cache) SetObs(h *obs.Hub) {
	if h == nil {
		return
	}
	c.obs = h
	c.m = c.bind(h.Reg)
}

// SetMaxResidentBytes sets the admission budget (0 disables budgeting and
// clean retention). The budget bounds resident shards plus in-flight load
// projections plus write-back snapshots; see the type doc for the
// enforcement rules. train.New plumbs Config.MemBudgetBytes here.
func (c *Cache) SetMaxResidentBytes(n int64) {
	c.mu.Lock()
	c.maxResident = n
	c.mu.Unlock()
}

// MaxResidentBytes reports the current admission budget (0 = unbounded).
func (c *Cache) MaxResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxResident
}

// shardBytes is the budget price of shard (t,p), known from the schema
// without touching the backend: its exact fp32 in-memory size, or its
// quantized footprint when a codec is set (see DiskStore.SetCodec).
func (c *Cache) shardBytes(t, p int) int64 {
	return ProjectedShardBytesCodec(c.schema, c.dim, t, p, c.codec)
}

// submit runs fn on the background I/O pool.
func (c *Cache) submit(fn func()) {
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
		fn()
	}()
}

// countLocked records one event in the per-cache stats and the published
// series together, so the two views cannot drift.
func (c *Cache) countLocked(stat *int64, series *obs.Counter) {
	*stat++
	series.Inc()
}

// accountedLocked is the admission measure: actual resident shard bytes,
// plus the projected bytes of loads still in flight, plus in-flight write
// snapshots. It upper-bounds ResidentBytes, so enforcing the budget here
// enforces it on real memory too.
func (c *Cache) accountedLocked() int64 {
	total := c.snapBytes
	for _, e := range c.cache {
		total += e.size
	}
	return total
}

func (c *Cache) bumpUseLocked() int64 {
	c.useSeq++
	return c.useSeq
}

// Prefetch implements Store: it starts loading shard (t,p) on the background
// pool so a later Acquire finds it resident. It never blocks on I/O, takes
// no reference, and is a no-op when the shard is already cached, loading, or
// mid-write (an Acquire revives the latter without touching the backend).
// Under a memory budget a hint that does not fit is dropped — hints are
// advisory, so the budget sheds them rather than evicting for them.
func (c *Cache) Prefetch(t, p int) {
	k := shardKey{t, p}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if _, ok := c.cache[k]; ok {
		c.mu.Unlock()
		return
	}
	size := c.shardBytes(t, p)
	if c.maxResident > 0 {
		if c.accountedLocked()+size > c.maxResident {
			c.countLocked(&c.stats.PrefetchSheds, c.m.Sheds)
			c.mu.Unlock()
			return
		}
		c.countLocked(&c.stats.Admits, c.m.Admits)
	}
	e := &cacheEntry{ready: make(chan struct{}), size: size, queued: true, lastUse: c.bumpUseLocked()}
	e.span = c.obs.Trace.Start("storage", fmt.Sprintf("prefetch t%d p%d", t, p))
	c.cache[k] = e
	c.mu.Unlock()
	c.submit(func() { c.prefetchLoad(k, e) })
}

// prefetchLoad runs an admitted hint on the pool. Admission is re-checked
// when the load actually starts: must-have Acquires may have consumed the
// budget while the hint sat in the queue, in which case the hint is shed —
// even if an Acquire has already joined it (the waiter observes errShed and
// retries as a must-have miss, so no loading entry is ever stranded).
func (c *Cache) prefetchLoad(k shardKey, e *cacheEntry) {
	if c.TestHookQueuedLoad != nil {
		c.TestHookQueuedLoad(k.t, k.p)
	}
	c.mu.Lock()
	if e.shedded {
		c.mu.Unlock()
		return
	}
	e.queued = false
	if c.maxResident > 0 && c.accountedLocked() > c.maxResident {
		c.shedLocked(k, e)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.load(k, e, true)
}

// shedLocked cancels a queued prefetch: the entry leaves the cache, waiters
// are woken with errShed (they retry as must-have misses), and the pool
// goroutine — if it has not run yet — abandons the load via the shedded
// flag.
func (c *Cache) shedLocked(k shardKey, e *cacheEntry) {
	e.shedded = true
	e.loadErr = errShed
	delete(c.cache, k)
	c.countLocked(&c.stats.PrefetchSheds, c.m.Sheds)
	e.span.End()
	e.span = nil
	if e.ready != nil {
		close(e.ready)
		e.ready = nil
	}
	c.cond.Broadcast()
}

// load runs the backend's Load for shard k and publishes the result into e.
// On failure the entry is removed so a retry can re-attempt the load;
// waiters read loadErr from their captured entry pointer.
func (c *Cache) load(k shardKey, e *cacheEntry, prefetch bool) {
	var lsp *obs.Span
	if e.span != nil {
		lsp = e.span.Child(fmt.Sprintf("load t%d p%d", k.t, k.p))
	} else {
		lsp = c.obs.Trace.Start("storage", fmt.Sprintf("load t%d p%d", k.t, k.p))
	}
	sh, err := c.backend.Load(k.t, k.p)
	c.mu.Lock()
	e.shard, e.loadErr = sh, err
	if err != nil {
		delete(c.cache, k)
	} else {
		e.size = LayoutOf(sh, c.codec).payloadBytes() // what shardBytes projected, from the actual shape
		if prefetch && c.maxResident > 0 {
			// Until an Acquire hands it out, a prefetched shard is identical
			// to its durable copy (or its deterministic lazy init): evictable
			// with no write should a must-have need the memory.
			e.clean = true
			e.lastUse = c.bumpUseLocked()
		}
		c.countLocked(&c.stats.Loads, c.m.Loads)
	}
	lsp.End()
	e.span.End()
	e.span = nil
	c.updateResidentLocked()
	close(e.ready)
	e.ready = nil
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Acquire implements Store, loading from the backend on a miss. A hit on a
// prefetched-but-still-loading entry waits for the background load rather
// than issuing a second one (two copies of a shard would diverge under
// training); a hit on an entry whose write-back is in flight revives the
// live in-memory shard immediately (the writer works on a snapshot) and
// never goes back to the backend. Under a memory budget a miss is a
// must-have: makeRoomLocked sheds, evicts and waits until the load fits —
// and only runs over budget when the remaining bytes all belong to
// referenced shards.
func (c *Cache) Acquire(t, p int) (*Shard, error) {
	k := shardKey{t, p}
	c.mu.Lock()
	for {
		e, ok := c.cache[k]
		if !ok {
			size := c.shardBytes(t, p)
			if c.maxResident > 0 {
				if waited := c.makeRoomLocked(size); waited {
					continue // the cache changed while we waited; re-check
				}
				c.countLocked(&c.stats.Admits, c.m.Admits)
			}
			e = &cacheEntry{ready: make(chan struct{}), size: size}
			c.cache[k] = e
			c.mu.Unlock()
			c.load(k, e, false) // synchronous load in this goroutine
			if e.loadErr != nil {
				return nil, e.loadErr
			}
			c.mu.Lock()
			continue
		}
		if e.ready != nil { // load in flight (prefetch or racing Acquire)
			ready := e.ready
			e.waiters++
			c.mu.Unlock()
			<-ready
			c.mu.Lock()
			e.waiters--
			if e.loadErr == errShed {
				continue // the budget shed the hint we joined; retry as a miss
			}
			if e.loadErr != nil {
				c.mu.Unlock()
				return nil, e.loadErr
			}
			continue
		}
		e.refs++
		e.clean = false
		sh := e.shard
		// A write may be using these buffers outside the lock: wait for the
		// snapshot memcpy (not the write), or — when the write holds the live
		// buffers — for the write itself, before the caller may mutate them.
		done := e.snapDone
		if done == nil {
			done = e.writeDone
		}
		c.mu.Unlock()
		if done != nil {
			<-done
		}
		return sh, nil
	}
}

// makeRoomLocked frees accounted memory until `need` more bytes fit inside
// the budget, in escalating steps: shed queued prefetch hints, evict clean
// unreferenced shards (LRU by last release; no I/O), then wait for
// in-flight write-backs, snapshot copies, or pure-prefetch loads to land
// and retry. It returns waited=true when it released the lock (the caller
// must re-check the cache). When every remaining byte belongs to referenced
// shards or joined loads it gives up and lets the must-have proceed over
// budget — training cannot make progress otherwise.
func (c *Cache) makeRoomLocked(need int64) (waited bool) {
	for c.accountedLocked()+need > c.maxResident {
		if c.shedQueuedLocked() {
			continue
		}
		if c.evictCleanLocked() {
			continue
		}
		if c.waitableLocked() {
			c.cond.Wait()
			waited = true
			continue
		}
		break
	}
	return waited
}

// shedQueuedLocked cancels the most recently queued prefetch nobody has
// joined yet. The pipeline issues hints in bucket order, so the youngest
// hint is the one needed furthest in the future — and picking by stamp
// rather than map order keeps which hint survives (hence the load and shed
// counts at a fixed seed) the same from run to run.
func (c *Cache) shedQueuedLocked() bool {
	var victimK shardKey
	var victim *cacheEntry
	for k, e := range c.cache {
		if e.queued && !e.shedded && e.waiters == 0 {
			if victim == nil || e.lastUse > victim.lastUse {
				victimK, victim = k, e
			}
		}
	}
	if victim == nil {
		return false
	}
	c.shedLocked(victimK, victim)
	return true
}

// evictCleanLocked drops the least-recently-used unreferenced clean shard;
// its durable copy (or deterministic lazy init) is current, so no write is
// needed. Entries a waiter is about to claim are skipped.
func (c *Cache) evictCleanLocked() bool {
	var victimK shardKey
	var victim *cacheEntry
	for k, e := range c.cache {
		if e.clean && e.refs == 0 && e.ready == nil && !e.writing && e.waiters == 0 {
			if victim == nil || e.lastUse < victim.lastUse {
				victimK, victim = k, e
			}
		}
	}
	if victim == nil {
		return false
	}
	delete(c.cache, victimK)
	c.countLocked(&c.stats.ForcedEvicts, c.m.ForcedEvicts)
	c.updateResidentLocked()
	c.cond.Broadcast()
	return true
}

// waitableLocked reports whether any in-flight I/O will free accounted
// memory when it lands: a write snapshot, a write-back of an unreferenced
// shard, or a pure-prefetch load (which becomes clean, hence evictable).
func (c *Cache) waitableLocked() bool {
	if c.snapBytes > 0 {
		return true
	}
	for _, e := range c.cache {
		if e.writing && e.refs == 0 {
			return true
		}
		if e.ready != nil && e.waiters == 0 && !e.queued && !e.shedded {
			return true
		}
	}
	return false
}

// snapshot returns a private copy of s. Write-backs serialise snapshots
// (taken when no trainer holds a reference) instead of the live buffers, so
// a revived shard can be mutated while its previous state is still being
// written out.
func (s *Shard) snapshot() *Shard {
	return &Shard{
		TypeIndex: s.TypeIndex, Part: s.Part, Count: s.Count, Dim: s.Dim,
		Embs: append([]float32(nil), s.Embs...),
		Acc:  append([]float32(nil), s.Acc...),
	}
}

// Release implements Store. Over a write-back backend the last reference
// schedules an asynchronous Store of a snapshot on the I/O pool and the
// shard is evicted once the write lands (retained as a clean entry instead
// when a budget is set and it fits); a write failure surfaces as the
// (sticky) error of a later Release, Flush, Drain, or Close. Over a
// write-through backend the last reference stores the shard before Release
// returns — with this call's own error — and then drops it.
func (c *Cache) Release(t, p int) error {
	k := shardKey{t, p}
	c.mu.Lock()
	e, ok := c.cache[k]
	if !ok || e.refs <= 0 || e.ready != nil {
		c.mu.Unlock()
		return fmt.Errorf("storage: Release of unacquired shard (%d,%d)", t, p)
	}
	e.refs--
	err := c.ioErr
	if e.refs > 0 {
		c.mu.Unlock()
		return err
	}
	e.lastUse = c.bumpUseLocked()
	if c.policy == WriteThrough {
		return c.storeThrough(k, e)
	}
	if e.writing {
		// A write of an older snapshot is still in flight; chain a rewrite
		// behind it rather than racing two writes of the same shard.
		e.rewrite = true
		c.mu.Unlock()
		return err
	}
	e.writing = true
	c.startWrite(k, e)
	return err
}

// storeThrough is the write-through last Release: it stores e's live
// buffers in the caller's goroutine and drops the entry once the write has
// landed, whatever its outcome — the durable copy may belong to another
// writer from here on, so a kept copy could only go stale. The caller holds
// c.mu; storeThrough unlocks it. An Acquire racing the write revives the
// entry and waits on writeDone, so it can neither reload the pre-write copy
// nor release (and start a second write) before this one lands.
func (c *Cache) storeThrough(k shardKey, e *cacheEntry) error {
	e.writing = true
	e.writeDone = make(chan struct{})
	c.mu.Unlock()
	err := c.store(k, e.shard)
	c.mu.Lock()
	if err == nil {
		c.countLocked(&c.stats.Writes, c.m.Writes)
	}
	e.writing = false
	if e.refs == 0 {
		delete(c.cache, k)
	}
	c.updateResidentLocked()
	close(e.writeDone)
	e.writeDone = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: store shard (%d,%d): %w", k.t, k.p, err)
	}
	return nil
}

// store runs the backend's Store for one released shard under a writeback
// span; the caller must not hold c.mu.
func (c *Cache) store(k shardKey, sh *Shard) error {
	wsp := c.obs.Trace.Start("storage", fmt.Sprintf("writeback t%d p%d", k.t, k.p))
	err := c.backend.Store(sh)
	wsp.End()
	return err
}

// startWrite snapshots e's shard and submits its write-back. The caller
// must hold c.mu with e.writing freshly set; startWrite unlocks it. The
// multi-MB snapshot copy runs outside the cache lock — guarded by
// e.snapDone so only a revival of this very shard waits for the memcpy —
// keeping evictions from convoying every other Acquire/Prefetch/Release.
// When a budget is set and the snapshot copy itself would not fit, the
// write uses the live buffers instead (refs is zero, so nothing mutates
// them) and a revival waits for the write via writeDone.
func (c *Cache) startWrite(k shardKey, e *cacheEntry) {
	if c.maxResident > 0 && c.accountedLocked()+e.size > c.maxResident {
		e.writeDone = make(chan struct{})
		live := e.shard
		c.mu.Unlock()
		c.submit(func() { c.writeBack(k, e, live, true) })
		return
	}
	e.snapDone = make(chan struct{})
	sh := e.shard
	// Reserve the snapshot's bytes before releasing the lock: an admission
	// check racing the memcpy must already see them, or a prefetch admitted
	// during the copy would push real memory past the budget.
	c.snapBytes += e.size
	c.updateResidentLocked()
	c.mu.Unlock()
	ssp := c.obs.Trace.Start("storage", fmt.Sprintf("snapshot t%d p%d", k.t, k.p))
	snap := sh.snapshot()
	ssp.End()
	c.mu.Lock()
	close(e.snapDone)
	e.snapDone = nil
	c.mu.Unlock()
	c.submit(func() { c.writeBack(k, e, snap, false) })
}

// writeBack stores a snapshot of e's shard (or the live buffers when live)
// and evicts the entry unless an Acquire revived it while the write was in
// flight. On failure the entry stays resident: the in-memory shard is the
// only current copy, so evicting it would lose the bucket's training — the
// sticky error surfaces on the next Release or Drain, while Flush retries
// the write (clearing the error if the retry lands).
func (c *Cache) writeBack(k shardKey, e *cacheEntry, snap *Shard, live bool) {
	werr := c.store(k, snap)
	c.mu.Lock()
	if werr == nil {
		c.countLocked(&c.stats.Writes, c.m.Writes)
	}
	if !live {
		c.snapBytes -= e.size
	}
	finish := func() {
		if e.writeDone != nil {
			close(e.writeDone)
			e.writeDone = nil
		}
		c.cond.Broadcast()
	}
	if werr != nil {
		e.writing = false
		e.rewrite = false
		if c.ioErr == nil {
			c.ioErr = fmt.Errorf("storage: write back shard (%d,%d): %w", k.t, k.p, werr)
		}
		finish()
		c.mu.Unlock()
		return
	}
	if e.rewrite {
		e.rewrite = false
		if e.refs == 0 {
			// Newer state was released while the older snapshot was being
			// written; chain the next write (keeping e.writing) so writes of
			// this shard stay ordered. No revival can be waiting on writeDone
			// here: a reviver holds a reference, which contradicts refs == 0.
			finish()
			c.startWrite(k, e)
			return
		}
		// Revived since: its next Release will write.
		e.writing = false
		finish()
		c.mu.Unlock()
		return
	}
	e.writing = false
	if e.refs == 0 {
		if c.maxResident > 0 && c.accountedLocked() <= c.maxResident {
			// Budgeted mode keeps the written shard as a clean cache entry —
			// the budget is a shard cache, not just a ceiling — so a
			// re-Acquire skips the load. Eviction reclaims it LRU-first
			// whenever a must-have needs the memory.
			e.clean = true
		} else {
			delete(c.cache, k)
		}
	}
	c.updateResidentLocked()
	finish()
	c.mu.Unlock()
}

// Drain blocks until every background load and write-back has completed and
// returns the first asynchronous write error, if any. The caller must not
// issue concurrent Prefetch/Release calls while draining.
func (c *Cache) Drain() error {
	c.pending.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ioErr
}

// IOStats reports this cache's cumulative I/O counts and memory-budget
// decisions.
func (c *Cache) IOStats() IOStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush implements Store: wait for pending I/O, then store every resident
// shard, keeping all of them cached (the interface's checkpointing
// contract — prefetched shards and warm cache entries survive). A
// successful Flush also clears — and thereby retries — earlier asynchronous
// write-back failures: a failed write-back keeps its shard resident, so
// rewriting everything resident re-covers exactly the shards whose write
// was lost.
func (c *Cache) Flush() error {
	c.pending.Wait()
	c.mu.Lock()
	c.ioErr = nil
	shards := make([]*Shard, 0, len(c.cache))
	for _, e := range c.cache {
		// Clean retained entries are bit-identical to their durable copy (or
		// to their deterministic lazy init), so rewriting them on every
		// checkpoint would be O(warm cache) of writes for nothing.
		if e.shard != nil && !(e.clean && e.refs == 0) {
			shards = append(shards, e.shard)
		}
	}
	c.mu.Unlock()
	for _, sh := range shards {
		if err := c.backend.Store(sh); err != nil {
			err = fmt.Errorf("storage: flush shard (%d,%d): %w", sh.TypeIndex, sh.Part, err)
			c.mu.Lock()
			if c.ioErr == nil {
				c.ioErr = err
			}
			c.mu.Unlock()
			return err
		}
	}
	return nil
}

// ResidentBytes implements Store. Shards being prefetched count once
// loaded; shards awaiting write-back and the in-flight write snapshots
// count too — all genuinely occupy memory, and the pipeline's extra
// transient footprint should be visible to the §5.4.2 accounting rather
// than hidden. Under DiskStore.SetCodec the report is in budget-priced (codec)
// bytes, the same unit the admission budget charges, so the invariant
// "accounted ≥ resident" holds in one currency.
func (c *Cache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residentLocked()
}

func (c *Cache) residentLocked() int64 {
	total := c.snapBytes
	for _, e := range c.cache {
		if e.shard != nil {
			total += e.size
		}
	}
	return total
}

// updateResidentLocked refreshes the resident-bytes gauge. Called at every
// transition that changes real shard memory (load publish, snapshot
// reservation, write completion, eviction), so a /metrics scrape sees the
// same footprint ResidentBytes reports.
func (c *Cache) updateResidentLocked() {
	c.m.Resident.Set(c.residentLocked())
}

// Close rejects further background work and waits for what is in flight —
// prefetch loads included, so the owner may tear its backend down as soon
// as Close returns. It stores nothing: what is still resident is the
// owner's to Flush first (DiskStore does) or to abandon (a trainer that
// lost its lease must not publish its copy).
func (c *Cache) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Drain()
}

// CacheState is one consistent view of a cache's accounting and entries,
// taken under a single hold of its lock — for tests that pin the budget
// invariants, and for debugging.
type CacheState struct {
	// Budget is MaxResidentBytes; Accounted the admission measure (resident
	// shards + in-flight load projections + write snapshots); Resident what
	// ResidentBytes reports. Accounted ≥ Resident always.
	Budget, Accounted, Resident int64
	Entries                     []EntryState // in no particular order
}

// EntryState describes one cache entry: Loading until its load has
// published a shard (Queued while that load still waits for a pool slot),
// Writing while a Store of it is in flight, Clean when it is identical to
// its durable copy — evictable once Refs and Waiters are zero.
type EntryState struct {
	Type, Part                      int
	Loading, Queued, Writing, Clean bool
	Refs, Waiters                   int
}

// State reports the cache's accounting and entries.
func (c *Cache) State() CacheState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheState{Budget: c.maxResident, Accounted: c.accountedLocked(), Resident: c.residentLocked()}
	for k, e := range c.cache {
		st.Entries = append(st.Entries, EntryState{
			Type: k.t, Part: k.p,
			Loading: e.ready != nil, Queued: e.queued, Writing: e.writing, Clean: e.clean,
			Refs: e.refs, Waiters: e.waiters,
		})
	}
	return st
}

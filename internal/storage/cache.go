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
// (internal/dist). The cache calls both methods without its lock held, never
// calls Store for a shard a caller may still be mutating, and calls it when
// a modified shard has to leave memory (or on Flush/Drain) — not every time
// its last reference is dropped.
type Backend interface {
	// Load returns shard (t,p): its durable copy, or its deterministic lazy
	// initialisation when none exists yet. spare is a shard the cache has
	// dropped, or nil: Load decodes into its buffers when they are large
	// enough, and must not keep it.
	Load(t, p int, spare *Shard) (*Shard, error)
	// Store makes sh the durable copy; when it returns, a Load by anyone
	// sees sh's state. It must not keep sh after it returns: the cache hands
	// a dropped shard to the next Load.
	Store(sh *Shard) error
}

// cacheEntry is one cached shard together with its I/O state. An entry is in
// one of these states, always under the cache lock:
//
//	loading:  ready != nil — a Prefetch or first Acquire is running the
//	          backend's Load; shard/loadErr are set before ready closes.
//	in use:   refs > 0 — handed out for mutation, so never clean.
//	dirty:    refs == 0, !clean, !writing — released, modified since its
//	          durable copy, and retained because a budget is set and it
//	          fits. Nothing is written until it has to leave: the evictor
//	          (makeRoomLocked) or the clean it runs ahead of need
//	          (cleanAheadLocked) writes it, and so do Flush and Drain.
//	writing:  a Store of the live buffers is in flight; a revival waits for
//	          it. It marks the entry clean when it lands only if no Acquire
//	          handed the shard out meanwhile (gen).
//	clean:    refs == 0 and identical to the durable copy: evictable with
//	          no I/O.
//
// A cache that retains nothing — no budget, or a write-through backend — has
// no dirty state: there the last Release is the moment the shard leaves
// memory, so the same rule writes it right then.
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
	// or a retained shard whose write landed with no Acquire in between.
	// Clean entries evict without any I/O. Acquire clears the flag.
	clean bool
	// hinted marks a pending hint: a prefetch not yet acquired, or a cached
	// shard hinted again. No hint evicts it. Acquire clears the flag.
	hinted bool
	// gen counts the Acquires that handed this shard out. A write remembers
	// the value it started at and marks the entry clean only if it lands at
	// the same one: a shard that was revived, mutated and released while its
	// write was in flight stays dirty, so its newer bytes are written when it
	// next has to leave (writes of one shard are serialised by writeDone).
	gen int64
	// lastUse is the cache's logical clock (a monotonic counter, not wall
	// time) at the last call that touched the entry: when its hint was
	// queued, when refs dropped to zero — never when background I/O landed,
	// so the order is a function of the callers' call sequence alone.
	// Eviction takes the oldest idle entry, shedding the youngest queued hint.
	lastUse int64

	// writeDone is non-nil while a Store of the live buffers is in flight;
	// a revival waits for the whole write before the caller may mutate.
	writeDone chan struct{}
}

// dirty reports whether e holds a shard that may be newer than its durable
// copy: in use, or released and not written since.
func (e *cacheEntry) dirty() bool { return e.shard != nil && !e.clean }

// writing reports whether a Store of e's shard is in flight.
func (e *cacheEntry) writing() bool { return e.writeDone != nil }

// idleClean reports whether e may leave memory to admit a hint: nobody
// references or awaits it, no load or write of it is in flight, it is
// identical to its durable copy, and no hint is pending on it.
func (e *cacheEntry) idleClean() bool {
	return e.refs == 0 && e.ready == nil && e.waiters == 0 && e.clean && !e.writing() && !e.hinted
}

// CacheMetrics are the registry series a Cache publishes. Each owner binds
// them under its own historical names (pbg_storage_* for DiskStore,
// pbg_dist_* for the partition-server checkout cache); IOStats reads the
// cache's own per-instance counts, never these, so it stays exact when
// several in-process caches share one registry.
type CacheMetrics struct {
	Loads, Writes, Reused, Admits, Sheds, ForcedEvicts, CleanWaits *obs.Counter
	Resident, Dirty                                                *obs.Gauge
}

// IOStats is a Cache's cumulative I/O and memory-budget accounting. The
// counts are per cache instance; the same events also feed the CacheMetrics
// series of whichever obs hub the owner attached.
type IOStats struct {
	// Loads counts backend loads that produced a shard (reads, fetches, or
	// deterministic lazy inits).
	Loads int64
	// Writes counts shards the backend stored because they had to leave
	// memory — on eviction or ahead of it, at Drain, or on the last Release
	// of a cache that retains nothing. Flush's checkpoint writes are not
	// counted.
	Writes int64
	// ReusedWrites counts backend stores — write-backs and Flush's alike —
	// that rewrote a spare image in place instead of writing a fresh file
	// (DiskStore; see replaceFile).
	ReusedWrites int64
	// Admits counts loads that passed the admission check while a budget
	// was set (prefetch hints and must-have Acquires both count).
	Admits int64
	// PrefetchSheds counts prefetch hints the budget refused: dropped at
	// Prefetch time, or shed from the pool queue before their load started.
	PrefetchSheds int64
	// ForcedEvicts counts unreferenced shards evicted to make room: for a
	// must-have Acquire (LRU by last release; a dirty one is written first),
	// or for a hint (an idle clean shard no hint is pending on, LRU first).
	ForcedEvicts int64
	// CleanWaits counts Acquires that had to wait for a write: a must-have
	// whose victim was still dirty or mid-write, or a revival of a shard
	// whose live buffers were being stored. Near zero means the clean the
	// cache runs ahead of need keeps up.
	CleanWaits int64
}

// Cache is the partition buffer of §4.1/§4.2: it keeps referenced (and
// prefetched) shards in memory over a Backend that holds the rest. Loads
// hinted via Prefetch and write-backs run on a small background I/O pool so
// the training thread overlaps bucket transitions with compute.
//
// One write rule: a modified shard is stored when it has to leave memory.
// Without a budget the cache retains nothing, so that moment is the last
// Release. Every write stores the live buffers; a revival waits for it.
//
// One buffer cycle: a shard the cache drops with nobody holding it goes on
// a free list of at most cacheIOWorkers shards, and the next load decodes
// into it, so a warm cache allocates no shard memory. Like garbage, the free
// list is not accounted.
//
// SetMaxResidentBytes turns the cache into a memory-budgeted one: admission
// accounting (resident shards + in-flight load projections) is enforced
// against the budget, and a released shard stays resident and dirty while
// it fits, with no write at all. A must-have Acquire evicts unreferenced
// shards LRU-first: a clean one for free, a dirty one once its write has
// landed (waiting for in-flight I/O when that is the only way to free
// memory). A prefetch hint that does not fit evicts idle clean shards, LRU
// first, but never a pending hint — hints never displace hints — and is
// shed only when that cannot make it fit. To keep writes off the
// must-have's path, a hint the budget refuses — the sign that the next miss
// will need a victim — starts the write of the LRU victim ahead of need, at
// most one at a time; once it lands, that victim is clean for the next
// hint. Flush and Drain write what is dirty.
// Only a must-have whose working set simply cannot fit runs over budget.
// What a crash loses is therefore what was trained on resident shards since
// the last Flush or Drain; shard files are replaced atomically, so the
// backend always loads.
//
// The one policy a backend changes is fixed at construction: over a
// WriteThrough backend the last Release stores the shard before it returns
// and never retains it (see WritePolicy).
type Cache struct {
	backend Backend
	policy  WritePolicy
	schema  *graph.Schema
	dim     int

	mu          sync.Mutex
	cond        *sync.Cond // signalled when in-flight I/O frees accounted memory
	cache       map[shardKey]*cacheEntry
	free        []*Shard // dead shards for the next loads; see dropLocked
	ioErr       error    // first async write-back failure; sticky
	closed      bool
	maxResident int64 // admission budget; 0 = unbounded (no retention either)
	useSeq      int64 // logical clock for lastUse stamps
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
	// shard files), so a shard is stored when it leaves memory: under a
	// budget the last Release retains it dirty and the evictor, Flush or
	// Drain writes it; without one the last Release starts its write and the
	// entry is dropped when it lands. A failed write is a sticky error and
	// keeps the shard resident.
	WriteBack WritePolicy = iota
	// WriteThrough: the durable copies are shared, and another writer may be
	// handed a shard the moment this cache's owner lets go of it (a
	// partition server re-leasing a bucket's partitions). The last Release
	// blocks until Store lands, returns Store's error itself, and drops the
	// entry — a retained copy could only go stale.
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

// dropLocked removes an entry nobody references, awaits or writes from the
// cache. Its shard is dead from here on — no Acquire can reach it, no caller
// holds it — so this is where it joins the free list (up to cacheIOWorkers
// shards, the most loads the pool runs at once) for a later load.
func (c *Cache) dropLocked(k shardKey, e *cacheEntry) {
	delete(c.cache, k)
	if e.shard != nil && len(c.free) < cacheIOWorkers {
		c.free = append(c.free, e.shard)
	}
}

// SetObs attaches the cache's counters and resident-bytes gauge, and its
// load and write-back spans, to h. Call it once, before the first
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
// projections; see the type doc for the enforcement rules. train.New plumbs
// Config.MemBudgetBytes here.
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
// without touching the backend: its exact fp32 in-memory size, whatever
// codec its file is stored in.
func (c *Cache) shardBytes(t, p int) int64 {
	return ProjectedShardBytes(c.schema, c.dim, t, p)
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

// accountedLocked is the admission measure: actual resident shard bytes
// plus the projected bytes of loads still in flight. It upper-bounds
// ResidentBytes, so enforcing the budget here enforces it on real memory
// too.
func (c *Cache) accountedLocked() int64 {
	var total int64
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
// no reference, and loads nothing when the shard is already cached, loading,
// or mid-write (an Acquire revives the latter without touching the backend);
// such a shard is marked as a pending hint. Under a memory budget hints are
// advisory: one that does not fit may evict only idle clean shards no hint
// is pending on (roomForHintLocked), and is shed when that is not enough.
func (c *Cache) Prefetch(t, p int) {
	k := shardKey{t, p}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if e, ok := c.cache[k]; ok {
		e.hinted = true
		c.mu.Unlock()
		return
	}
	size := c.shardBytes(t, p)
	if c.maxResident > 0 {
		if !c.roomForHintLocked(size) {
			c.countLocked(&c.stats.PrefetchSheds, c.m.Sheds)
			c.cleanAheadLocked()
			c.mu.Unlock()
			return
		}
		c.countLocked(&c.stats.Admits, c.m.Admits)
	}
	e := &cacheEntry{ready: make(chan struct{}), size: size, queued: true, hinted: true, lastUse: c.bumpUseLocked()}
	e.span = c.obs.Trace.Start("storage", fmt.Sprintf("prefetch t%d p%d", t, p))
	c.cache[k] = e
	c.mu.Unlock()
	c.submit(func() { c.prefetchLoad(k, e) })
}

// roomForHintLocked makes a hint of size bytes fit the budget by evicting
// idle clean shards no hint is pending on (cacheEntry.idleClean), least
// recently used first, and reports whether it fits. It evicts nothing when
// all of them together would not make room.
func (c *Cache) roomForHintLocked(size int64) bool {
	over := c.accountedLocked() + size - c.maxResident
	if over <= 0 {
		return true
	}
	for _, e := range c.cache {
		if e.idleClean() {
			over -= e.size
		}
	}
	if over > 0 {
		return false
	}
	for c.accountedLocked()+size > c.maxResident {
		var victimK shardKey
		var victim *cacheEntry
		for k, e := range c.cache {
			if e.idleClean() && (victim == nil || e.lastUse < victim.lastUse) {
				victimK, victim = k, e
			}
		}
		c.dropLocked(victimK, victim)
		c.countLocked(&c.stats.ForcedEvicts, c.m.ForcedEvicts)
	}
	c.updateResidentLocked()
	return true
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
		c.cleanAheadLocked()
		c.mu.Unlock()
		return
	}
	c.loadLocked(k, e, true)
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

// loadLocked runs the backend's Load for shard k — into a shard off the free
// list, when there is one — and publishes the result into e. On failure the
// spare goes back on the list and the entry is removed so a retry can
// re-attempt the load; waiters read loadErr from their captured entry
// pointer. The caller holds c.mu; loadLocked unlocks it.
func (c *Cache) loadLocked(k shardKey, e *cacheEntry, prefetch bool) {
	var spare *Shard
	if n := len(c.free); n > 0 {
		spare, c.free = c.free[n-1], c.free[:n-1]
	}
	c.mu.Unlock()
	var lsp *obs.Span
	if e.span != nil {
		lsp = e.span.Child(fmt.Sprintf("load t%d p%d", k.t, k.p))
	} else {
		lsp = c.obs.Trace.Start("storage", fmt.Sprintf("load t%d p%d", k.t, k.p))
	}
	sh, err := c.backend.Load(k.t, k.p, spare)
	c.mu.Lock()
	e.shard, e.loadErr = sh, err
	if err != nil {
		delete(c.cache, k)
		if spare != nil {
			c.free = append(c.free, spare)
		}
	} else {
		e.size = sh.Bytes() // what shardBytes projected, from the actual shape
		if prefetch {
			// Until an Acquire hands it out, a prefetched shard is identical
			// to its durable copy (or its deterministic lazy init): evictable
			// with no write should a must-have need the memory. Its place in
			// the LRU order stays the hint's: stamping the landing instead
			// would let I/O timing decide which shard is evicted.
			e.clean = true
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
// training); a hit on an entry whose write is in flight revives the live
// in-memory shard once the write has landed and never goes back to the
// backend. Under a memory budget a miss is a must-have: makeRoomLocked
// sheds, evicts and waits until the load fits — and only runs over budget
// when the remaining bytes all belong to referenced shards.
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
			c.loadLocked(k, e, false) // synchronous load in this goroutine
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
		e.gen++
		e.clean, e.hinted = false, false
		sh := e.shard
		// A write may be storing these buffers outside the lock: wait for it
		// before the caller may mutate them.
		done := e.writeDone
		if done != nil {
			c.countLocked(&c.stats.CleanWaits, c.m.CleanWaits)
		}
		c.updateResidentLocked()
		c.mu.Unlock()
		if done != nil {
			<-done
		}
		return sh, nil
	}
}

// makeRoomLocked frees accounted memory until `need` more bytes fit inside
// the budget, in escalating steps: shed queued prefetch hints, evict the
// least-recently-used idle shard (for free when it is clean; a dirty one's
// write is started first), then wait for in-flight writes or pure-prefetch
// loads to land and retry. It returns waited=true when it released the lock
// (the caller must re-check the cache), and counts a CleanWait when what it
// waited for was a write. When every remaining byte belongs to referenced
// shards or joined loads — or writes are failing, so nothing dirty can
// leave — it gives up and lets the must-have proceed over budget: training
// cannot make progress otherwise.
func (c *Cache) makeRoomLocked(need int64) (waited bool) {
	forWrite := false
	for c.accountedLocked()+need > c.maxResident {
		if c.shedQueuedLocked() {
			continue
		}
		if c.evictLocked() {
			continue
		}
		write, ok := c.waitableLocked()
		if !ok {
			break
		}
		if write && !forWrite {
			forWrite = true
			c.countLocked(&c.stats.CleanWaits, c.m.CleanWaits)
		}
		c.cond.Wait()
		waited = true
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

// victimLocked picks the next shard to leave memory — the least recently
// used one that nobody references or awaits — and returns it if it can be
// dropped right now. A dirty victim cannot: its write is started instead
// (unless writes are failing), and like one whose write is already in
// flight it is reported as no victim yet; the caller's wait lets the write
// land. Taking a younger shard meanwhile would make which shard leaves
// depend on how fast the write was.
func (c *Cache) victimLocked() (shardKey, *cacheEntry) {
	var victimK shardKey
	var victim *cacheEntry
	for k, e := range c.cache {
		if e.refs == 0 && e.ready == nil && e.waiters == 0 && (victim == nil || e.lastUse < victim.lastUse) {
			victimK, victim = k, e
		}
	}
	switch {
	case victim == nil, victim.clean && !victim.writing():
		return victimK, victim
	case !victim.writing() && c.ioErr == nil:
		c.startWriteLocked(victimK, victim)
	}
	return shardKey{}, nil
}

// evictLocked drops the victim, if there is one to drop right now; its
// durable copy (or deterministic lazy init) is current.
func (c *Cache) evictLocked() bool {
	k, e := c.victimLocked()
	if e == nil {
		return false
	}
	c.dropLocked(k, e)
	c.countLocked(&c.stats.ForcedEvicts, c.m.ForcedEvicts)
	c.updateResidentLocked()
	c.cond.Broadcast()
	return true
}

// cleanAheadLocked runs when the budget has just refused a prefetch hint:
// the cache is full and the shard will arrive as a must-have miss, which
// needs a victim. If that victim is dirty its write starts now, on the pool,
// so the miss finds it clean instead of waiting for the write.
func (c *Cache) cleanAheadLocked() {
	c.victimLocked()
}

// waitableLocked reports whether any in-flight I/O will free accounted
// memory when it lands — a write of an unreferenced shard (write), or a
// pure-prefetch load (which lands clean, hence evictable).
func (c *Cache) waitableLocked() (write, ok bool) {
	for _, e := range c.cache {
		if e.writing() && e.refs == 0 {
			return true, true
		}
		if e.ready != nil && e.waiters == 0 && !e.queued && !e.shedded {
			ok = true
		}
	}
	return false, ok
}

// Release implements Store. Over a write-back backend the last reference
// leaves the shard to retireLocked: retained as it is while a budget is set
// and it fits — no write, no I/O — and otherwise stored asynchronously and
// dropped once the write lands; a write failure surfaces as the (sticky)
// error of a later Release, Flush, Drain, or Close. Over a write-through
// backend the last reference stores the shard before Release returns — with
// this call's own error — and then drops it.
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
	c.retireLocked(k, e)
	return err
}

// retireLocked settles an entry nobody references: it stays as it is —
// clean or dirty — while a budget is set and it fits, and otherwise has to
// leave memory, a dirty shard through a write that calls retireLocked again
// when it lands. The caller holds c.mu; retireLocked unlocks it.
func (c *Cache) retireLocked(k shardKey, e *cacheEntry) {
	switch {
	case e.writing():
		// A write of an older state is still in flight; it retires the entry
		// when it lands rather than racing a second write of the same shard.
	case c.maxResident > 0 && c.accountedLocked() <= c.maxResident:
		// The budget is a shard cache, not just a ceiling: a re-Acquire skips
		// the load, and eviction reclaims the entry LRU-first when a must-have
		// needs the memory.
	case e.clean:
		c.dropLocked(k, e)
		c.cond.Broadcast()
	default:
		c.startWriteLocked(k, e)
	}
	c.updateResidentLocked()
	c.mu.Unlock()
}

// storeThrough is the write-through last Release: it stores e's live
// buffers in the caller's goroutine and drops the entry once the write has
// landed, whatever its outcome — the durable copy may belong to another
// writer from here on, so a kept copy could only go stale. The caller holds
// c.mu; storeThrough unlocks it. An Acquire racing the write revives the
// entry and waits on writeDone, so it can neither reload the pre-write copy
// nor release (and start a second write) before this one lands.
func (c *Cache) storeThrough(k shardKey, e *cacheEntry) error {
	e.writeDone = make(chan struct{})
	c.mu.Unlock()
	err := c.store(k, e.shard)
	c.mu.Lock()
	if err == nil {
		c.countLocked(&c.stats.Writes, c.m.Writes)
	}
	if e.refs == 0 {
		c.dropLocked(k, e)
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

// startWriteLocked submits a write of e's live buffers — every write-back
// the cache makes: e is unreferenced, so nothing mutates them, and a
// revival waits for the write via writeDone.
func (c *Cache) startWriteLocked(k shardKey, e *cacheEntry) {
	e.writeDone = make(chan struct{})
	gen := e.gen
	c.submit(func() { c.writeBack(k, e, gen) })
}

// writeBack stores e's live buffers and retires the entry. The entry
// is clean only if the write lands at the generation it started at: a shard
// acquired meanwhile may have been mutated, so it stays dirty and is written
// again when it next has to leave. On failure the entry stays resident and
// dirty: the in-memory shard is the only current copy, so evicting it would
// lose the bucket's training — the sticky error surfaces on the next Release
// or Drain, while Flush retries the write (clearing the error if the retry
// lands).
func (c *Cache) writeBack(k shardKey, e *cacheEntry, gen int64) {
	werr := c.store(k, e.shard)
	c.mu.Lock()
	close(e.writeDone)
	e.writeDone = nil
	c.cond.Broadcast()
	switch {
	case werr != nil:
		if c.ioErr == nil {
			c.ioErr = fmt.Errorf("storage: write back shard (%d,%d): %w", k.t, k.p, werr)
		}
	case e.refs > 0:
		// Revived: its last Release retires it.
		c.countLocked(&c.stats.Writes, c.m.Writes)
	default:
		c.countLocked(&c.stats.Writes, c.m.Writes)
		e.clean = e.gen == gen
		c.retireLocked(k, e)
		return
	}
	c.updateResidentLocked()
	c.mu.Unlock()
}

// Drain blocks until every background load and write has completed and
// every dirty shard nobody holds is on the backend, and returns the first
// asynchronous write error, if any: after a nil Drain the backend has
// everything but what callers still reference. The caller must not issue
// concurrent Prefetch/Release calls while draining.
func (c *Cache) Drain() error {
	c.pending.Wait()
	c.mu.Lock()
	for k, e := range c.cache {
		if e.dirty() && e.refs == 0 && !e.writing() {
			c.startWriteLocked(k, e)
		}
	}
	c.mu.Unlock()
	return c.wait()
}

// wait blocks until the I/O pool is idle and reports the sticky write error.
func (c *Cache) wait() error {
	c.pending.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ioErr
}

// countReused records a backend store that rewrote a spare in place; the
// files backend calls it (DiskStore).
func (c *Cache) countReused() {
	c.mu.Lock()
	c.countLocked(&c.stats.ReusedWrites, c.m.Reused)
	c.mu.Unlock()
}

// IOStats reports this cache's cumulative I/O counts and memory-budget
// decisions.
func (c *Cache) IOStats() IOStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Flush implements Store: wait for pending I/O, then store every resident
// shard that is not clean, keeping all of them cached (the interface's
// checkpointing contract — prefetched shards and warm cache entries
// survive). Unreferenced shards it wrote are clean afterwards, so a
// checkpoint is not followed by a second write of the same bytes when they
// are evicted. A successful Flush also clears — and thereby retries —
// earlier asynchronous write failures: a failed write keeps its shard
// resident and dirty, so writing everything dirty re-covers exactly the
// shards whose write was lost.
func (c *Cache) Flush() error {
	c.pending.Wait()
	c.mu.Lock()
	c.ioErr = nil
	type dirty struct {
		e   *cacheEntry
		sh  *Shard
		gen int64
	}
	var shards []dirty
	for _, e := range c.cache {
		// Clean entries are bit-identical to their durable copy (or to their
		// deterministic lazy init), so rewriting them on every checkpoint
		// would be O(warm cache) of writes for nothing.
		if e.dirty() {
			shards = append(shards, dirty{e, e.shard, e.gen})
		}
	}
	c.mu.Unlock()
	for _, d := range shards {
		err := c.backend.Store(d.sh)
		c.mu.Lock()
		if err != nil {
			err = fmt.Errorf("storage: flush shard (%d,%d): %w", d.sh.TypeIndex, d.sh.Part, err)
			if c.ioErr == nil {
				c.ioErr = err
			}
			c.mu.Unlock()
			return err
		}
		if d.e.refs == 0 && d.e.gen == d.gen {
			d.e.clean = true
			c.updateResidentLocked()
		}
		c.mu.Unlock()
	}
	return nil
}

// ResidentBytes implements Store. Shards being prefetched count once
// loaded; shards awaiting or under write-back count too — both genuinely
// occupy memory, and the pipeline's extra transient footprint should be
// visible to the §5.4.2 accounting rather than hidden. The report is in
// decoded fp32 bytes, the unit the admission budget charges, whatever codec
// the backend stores shards in.
func (c *Cache) ResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residentLocked()
}

func (c *Cache) residentLocked() int64 {
	var total int64
	for _, e := range c.cache {
		if e.shard != nil {
			total += e.size
		}
	}
	return total
}

// updateResidentLocked refreshes the resident-bytes gauge — called at every
// transition that changes real shard memory (load publish, write
// completion, eviction), so a /metrics scrape sees the
// same footprint ResidentBytes reports — and the dirty-bytes gauge beside
// it: the resident shards a crash right now would lose training of, in use
// or retained dirty.
func (c *Cache) updateResidentLocked() {
	c.m.Resident.Set(c.residentLocked())
	var dirty int64
	for _, e := range c.cache {
		if e.dirty() {
			dirty += e.size
		}
	}
	c.m.Dirty.Set(dirty)
}

// Close rejects further background work, empties the free list and waits
// for what is in flight — prefetch loads included, so the owner may tear
// its backend down as soon as Close returns. It stores nothing: what is
// still resident is the owner's to Flush first (DiskStore does) or to
// abandon (a trainer that lost its lease must not publish its copy).
func (c *Cache) Close() error {
	c.mu.Lock()
	c.closed = true
	c.free = nil
	c.mu.Unlock()
	return c.wait()
}

// CacheState is one consistent view of a cache's accounting and entries,
// taken under a single hold of its lock — for tests that pin the budget
// invariants, and for debugging.
type CacheState struct {
	// Budget is MaxResidentBytes; Accounted the admission measure (resident
	// shards + in-flight load projections); Resident what
	// ResidentBytes reports. Accounted ≥ Resident always.
	Budget, Accounted, Resident int64
	Entries                     []EntryState // in no particular order
}

// EntryState describes one cache entry: Loading until its load has
// published a shard (Queued while that load still waits for a pool slot),
// Writing while a Store of it is in flight, Clean when it is identical to
// its durable copy — evictable once Refs and Waiters are zero — and Dirty
// when it is resident and not: in use, or released and retained until the
// evictor, Flush or Drain writes it.
type EntryState struct {
	Type, Part                             int
	Loading, Queued, Writing, Clean, Dirty bool
	Refs, Waiters                          int
}

// State reports the cache's accounting and entries.
func (c *Cache) State() CacheState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheState{Budget: c.maxResident, Accounted: c.accountedLocked(), Resident: c.residentLocked()}
	for k, e := range c.cache {
		st.Entries = append(st.Entries, EntryState{
			Type: k.t, Part: k.p,
			Loading: e.ready != nil, Queued: e.queued, Writing: e.writing(), Clean: e.clean,
			Dirty: e.dirty(),
			Refs:  e.refs, Waiters: e.waiters,
		})
	}
	return st
}

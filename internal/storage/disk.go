package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"pbg/internal/graph"
	"pbg/internal/obs"
)

// diskIOWorkers bounds the number of concurrent background shard loads and
// write-backs per DiskStore. Two is enough to overlap one prefetch with one
// eviction; four covers buckets whose relations span several entity types.
const diskIOWorkers = 4

// errShed marks a prefetch that the memory budget cancelled while it sat in
// the pool queue. An Acquire that joined the load observes it and retries as
// a must-have cache miss instead of surfacing an error: shedding a hint must
// never fail a real acquisition (and must never strand the joined waiter on
// a deleted loading entry).
var errShed = errors.New("storage: prefetch shed by memory budget")

// diskEntry is one cached shard together with its I/O state. An entry moves
// through three states, always under the store lock:
//
//	loading:  ready != nil — a Prefetch or first Acquire is reading the file
//	          (or initialising); shard/loadErr are set before ready closes.
//	resident: ready == nil, writing == false — the shard is usable.
//	writing:  refs hit zero and a write-back is in flight. The write works
//	          on a snapshot copied under the store lock, so a concurrent
//	          Acquire revives the live in-memory shard immediately — it
//	          neither re-reads a stale or half-renamed file nor waits for
//	          the disk write. The entry stays cached until the rename lands.
//	          (Under a memory budget with no headroom for the snapshot copy,
//	          the write uses the live buffers instead and a revival waits
//	          for the disk write via writeDone.)
type diskEntry struct {
	shard *Shard
	refs  int

	// size is the projected in-memory footprint while the shard is still
	// loading (shard == nil); admission accounting charges loads up front so
	// a burst of prefetch hints cannot overshoot the budget. Shard shapes
	// are known from the schema, so the projection is exact.
	size int64

	ready   chan struct{} // non-nil while a load is in flight
	loadErr error         // set before ready closes; immutable afterwards
	// waiters counts Acquires blocked on ready (or re-locking just after it
	// closed); eviction skips entries a waiter is about to claim.
	waiters int
	// queued marks a prefetch whose pool load has not started yet; only
	// queued loads can be shed (a running disk read cannot be cancelled).
	queued bool
	// shedded tells the pool goroutine its entry was cancelled and removed
	// from the cache; it must abandon the load without touching the map.
	shedded bool

	// span is the open prefetch-window span (Prefetch call → load
	// published or hint shed); the load itself traces as its child. Nil
	// when tracing is off or the entry came from a direct Acquire.
	span *obs.Span

	// clean marks a resident shard that is bit-identical to its disk copy
	// (or to its deterministic lazy init): a prefetched-but-unacquired load,
	// or — under a budget — a shard retained in cache after its write-back
	// landed. Clean entries evict without any I/O. Acquire clears the flag.
	clean bool
	// lastUse is the LRU stamp (a monotonic release counter, not wall
	// time): bumped when refs drop to zero and when a prefetch load lands.
	lastUse int64

	writing bool
	// rewrite marks that refs hit zero again while a write was in flight;
	// the completion handler chains a write of a fresh snapshot, so an
	// older in-flight write can never overwrite newer data (writes of one
	// shard are strictly serialised through this flag).
	rewrite bool
	// snapDone is non-nil for the brief window while the write-back's
	// snapshot copy is being taken outside the store lock; an Acquire that
	// revives the entry waits on it (a memcpy, not a disk write) before
	// handing out the buffers for mutation.
	snapDone chan struct{}
	// writeDone is non-nil while a write-back of the live buffers is in
	// flight (the budget had no headroom for a snapshot copy); a revival
	// waits for the whole disk write before the caller may mutate.
	writeDone chan struct{}
}

// diskMetrics holds the store's registry handles. The counters are the
// authoritative accounting — IOStats is a point-in-time view over them —
// and every one is an uncontended atomic bumped at disk-I/O granularity.
type diskMetrics struct {
	loads, writes, admits, sheds, forcedEvicts *obs.Counter
	resident                                   *obs.Gauge
}

func newDiskMetrics(reg *obs.Registry) diskMetrics {
	return diskMetrics{
		loads:        reg.Counter("pbg_storage_loads_total"),
		writes:       reg.Counter("pbg_storage_writebacks_total"),
		admits:       reg.Counter("pbg_storage_admits_total"),
		sheds:        reg.Counter("pbg_storage_prefetch_sheds_total"),
		forcedEvicts: reg.Counter("pbg_storage_forced_evicts_total"),
		resident:     reg.Gauge("pbg_storage_resident_bytes"),
	}
}

// IOStats is DiskStore's cumulative I/O and memory-budget accounting — a
// snapshot of the store's obs registry counters (see SetObs).
type IOStats struct {
	// Loads counts shard loads (disk reads or deterministic lazy inits).
	Loads int64
	// Writes counts shard write-backs (including Flush rewrites).
	Writes int64
	// Admits counts loads that passed the admission check while a budget
	// was set (prefetch hints and must-have Acquires both count).
	Admits int64
	// PrefetchSheds counts prefetch hints the budget refused: dropped at
	// Prefetch time, or shed from the pool queue before their load started.
	PrefetchSheds int64
	// ForcedEvicts counts unreferenced clean shards evicted to make room
	// for a must-have Acquire (LRU by last release; no I/O needed — the
	// disk copy is current).
	ForcedEvicts int64
}

// DiskStore persists shards under dir and keeps only referenced (or
// prefetched) shards in memory — the partition-swapping mode that gives the
// 88% memory reduction of §5.4.2. Loads hinted via Prefetch and the
// write-back of evicted shards run on a small background I/O pool so the
// training thread overlaps bucket transitions with compute (§4.1
// pipelining). Write-backs double-buffer: each writes a snapshot taken at
// eviction, costing one transient shard copy per in-flight write (bounded
// by the pool size) in exchange for re-Acquires never stalling on the disk.
//
// SetMaxResidentBytes turns the store into a memory-budgeted shard cache:
// admission accounting (resident shards + in-flight load projections +
// write snapshots) is enforced against the budget — prefetch hints that
// don't fit are dropped or shed, a must-have Acquire evicts unreferenced
// shards LRU-first (waiting for in-flight write-backs when that is the only
// way to free memory), and shards whose write-back landed are retained as
// clean cache entries while they fit. Only a must-have whose working set
// simply cannot fit runs over budget.
type DiskStore struct {
	schema *graph.Schema
	dim    int
	seed   uint64
	scale  float32
	dir    string
	codec  Codec // on-disk encoding + budget pricing; see SetCodec

	mu          sync.Mutex
	cond        *sync.Cond // signalled when in-flight I/O frees accounted memory
	cache       map[shardKey]*diskEntry
	ioErr       error // first async write-back failure; sticky
	closed      bool
	maxResident int64 // admission budget; 0 = unbounded (no retention either)
	useSeq      int64 // LRU clock for lastUse stamps
	snapBytes   int64 // memory held by in-flight write-back snapshots

	// obs carries the store's metrics and spans; m caches the registry
	// handles. Both are set at construction (private quiet hub) or by a
	// single SetObs call before the store is used, and read without the
	// store lock afterwards.
	obs *obs.Hub
	m   diskMetrics

	sem     chan struct{} // bounds concurrent background I/O
	pending sync.WaitGroup

	// testHookPrefetchLoad, when set before any Prefetch, runs in the pool
	// goroutine just before a queued prefetch re-checks admission — tests
	// use it to pin the join-then-shed interleaving deterministically.
	testHookPrefetchLoad func(k shardKey)
}

// NewDiskStore creates a disk-backed store rooted at dir.
func NewDiskStore(dir string, schema *graph.Schema, dim int, seed uint64, initScale float32) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskStore{
		schema: schema,
		dim:    dim,
		seed:   seed,
		scale:  initScale,
		dir:    dir,
		cache:  make(map[shardKey]*diskEntry),
		sem:    make(chan struct{}, diskIOWorkers),
		obs:    obs.NewQuietHub(),
	}
	d.m = newDiskMetrics(d.obs.Reg)
	d.cond = sync.NewCond(&d.mu)
	return d, nil
}

// SetObs attaches the store's metrics (pbg_storage_* counters, the
// resident-bytes gauge) and its load/write-back/snapshot spans to h. Call
// it once, before the store's first Prefetch/Acquire: attaching re-creates
// the metric handles in h's registry, so counts recorded on the previous
// hub are not carried over. train.New plumbs Config.Obs here automatically
// for any store exposing this method.
func (d *DiskStore) SetObs(h *obs.Hub) {
	if h == nil {
		return
	}
	d.obs = h
	d.m = newDiskMetrics(h.Reg)
}

// SetCodec selects the shard encoding for every subsequent write-back and
// flush, and switches the memory budget to codec pricing: admission,
// eviction, snapshot reservations, and ResidentBytes all charge
// ProjectedShardBytesCodec instead of fp32 bytes, so a 2–4× smaller codec
// directly admits 2–4× more shards (and a wider prefetch lookahead) at the
// same SetMaxResidentBytes budget. The budget is thus an I/O-footprint
// cost model: the store's steady state is quantized bytes on disk and in
// cache-pricing terms, with the decoded fp32 working copies of the
// currently-trained bucket living transiently above it — exactly the
// shards a trainer holds references to, which no budget may evict anyway.
//
// Like SetObs, call it once before the store's first Prefetch/Acquire;
// reads transparently decode whatever codec each file already is, so a
// directory written under a different codec converges to the new one as
// shards are rewritten.
func (d *DiskStore) SetCodec(c Codec) {
	d.codec = c
}

// Codec reports the store's shard encoding.
func (d *DiskStore) Codec() Codec {
	return d.codec
}

// SetMaxResidentBytes sets the admission budget (0 disables budgeting and
// restores evict-on-write-back). The budget bounds resident shards plus
// in-flight load projections plus write-back snapshots; see the type doc
// for the enforcement rules.
func (d *DiskStore) SetMaxResidentBytes(n int64) {
	d.mu.Lock()
	d.maxResident = n
	d.mu.Unlock()
}

// MaxResidentBytes reports the current admission budget (0 = unbounded).
func (d *DiskStore) MaxResidentBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxResident
}

func (d *DiskStore) path(t, p int) string {
	return ShardPath(d.dir, t, p)
}

// shardBytes is the budget price of shard (t,p), known from the schema
// without touching disk: its exact fp32 in-memory size, or its quantized
// footprint when a codec is set (see SetCodec for the cost model).
func (d *DiskStore) shardBytes(t, p int) int64 {
	return ProjectedShardBytesCodec(d.schema, d.dim, t, p, d.codec)
}

// sizeOf is the budget price of a loaded shard — the same quantity
// shardBytes projects, derived from the shard's actual shape so the two
// can never disagree for the same (count, dim).
func (d *DiskStore) sizeOf(sh *Shard) int64 {
	return LayoutOf(sh, d.codec).payloadBytes()
}

// newShard lazily initialises shard (t,p) with the deterministic per-shard
// seed derivation shared with the distributed partition servers.
func (d *DiskStore) newShard(t, p int) *Shard {
	e := d.schema.Entities[t]
	sh := NewShard(t, p, e.PartitionCount(p), d.dim)
	sh.Init(newShardRNG(d.seed, t, p), d.scale)
	return sh
}

// submit runs fn on the background I/O pool.
func (d *DiskStore) submit(fn func()) {
	d.pending.Add(1)
	go func() {
		defer d.pending.Done()
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
		fn()
	}()
}

// accountedLocked is the admission measure: actual resident shard bytes,
// plus the projected bytes of loads still in flight, plus in-flight write
// snapshots. It upper-bounds ResidentBytes, so enforcing the budget here
// enforces it on real memory too.
func (d *DiskStore) accountedLocked() int64 {
	total := d.snapBytes
	for _, e := range d.cache {
		if e.shard != nil {
			total += d.sizeOf(e.shard)
		} else {
			total += e.size
		}
	}
	return total
}

func (d *DiskStore) bumpUseLocked() int64 {
	d.useSeq++
	return d.useSeq
}

// Prefetch implements Store: it starts loading shard (t,p) on the background
// pool so a later Acquire finds it resident. It never blocks on I/O, takes
// no reference, and is a no-op when the shard is already cached, loading, or
// mid-write-back (an Acquire revives the latter without touching disk).
// Under a memory budget a hint that does not fit is dropped — hints are
// advisory, so the budget sheds them rather than evicting for them.
func (d *DiskStore) Prefetch(t, p int) {
	k := shardKey{t, p}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if _, ok := d.cache[k]; ok {
		d.mu.Unlock()
		return
	}
	size := d.shardBytes(t, p)
	if d.maxResident > 0 {
		if d.accountedLocked()+size > d.maxResident {
			d.m.sheds.Inc()
			d.mu.Unlock()
			return
		}
		d.m.admits.Inc()
	}
	e := &diskEntry{ready: make(chan struct{}), size: size, queued: true}
	e.span = d.obs.Trace.Start("storage", fmt.Sprintf("prefetch t%d p%d", t, p))
	d.cache[k] = e
	d.mu.Unlock()
	d.submit(func() { d.prefetchLoad(k, e) })
}

// prefetchLoad runs an admitted hint on the pool. Admission is re-checked
// when the load actually starts: must-have Acquires may have consumed the
// budget while the hint sat in the queue, in which case the hint is shed —
// even if an Acquire has already joined it (the waiter observes errShed and
// retries as a must-have miss, so no loading entry is ever stranded).
func (d *DiskStore) prefetchLoad(k shardKey, e *diskEntry) {
	d.mu.Lock()
	hook := d.testHookPrefetchLoad
	d.mu.Unlock()
	if hook != nil {
		hook(k)
	}
	d.mu.Lock()
	if e.shedded {
		d.mu.Unlock()
		return
	}
	e.queued = false
	if d.maxResident > 0 && d.accountedLocked() > d.maxResident {
		d.shedLocked(k, e)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	d.load(k, e, true)
}

// shedLocked cancels a queued prefetch: the entry leaves the cache, waiters
// are woken with errShed (they retry as must-have misses), and the pool
// goroutine — if it has not run yet — abandons the load via the shedded
// flag.
func (d *DiskStore) shedLocked(k shardKey, e *diskEntry) {
	e.shedded = true
	e.loadErr = errShed
	delete(d.cache, k)
	d.m.sheds.Inc()
	e.span.End()
	e.span = nil
	if e.ready != nil {
		close(e.ready)
		e.ready = nil
	}
	d.cond.Broadcast()
}

// load reads or initialises shard k and publishes the result into e. On
// failure the entry is removed so a retry can re-attempt the load; waiters
// read loadErr from their captured entry pointer. Lazy initialisation only
// happens when the shard file verifiably does not exist — any other stat
// failure is an error, because re-initialising over a real-but-unreadable
// file would silently discard that partition's training on write-back.
func (d *DiskStore) load(k shardKey, e *diskEntry, prefetch bool) {
	var lsp *obs.Span
	if e.span != nil {
		lsp = e.span.Child(fmt.Sprintf("load t%d p%d", k.t, k.p))
	} else {
		lsp = d.obs.Trace.Start("storage", fmt.Sprintf("load t%d p%d", k.t, k.p))
	}
	var sh *Shard
	var err error
	if _, serr := os.Stat(d.path(k.t, k.p)); serr == nil {
		sh, err = ReadShard(d.path(k.t, k.p))
	} else if os.IsNotExist(serr) {
		sh = d.newShard(k.t, k.p)
	} else {
		err = fmt.Errorf("storage: stat shard (%d,%d): %w", k.t, k.p, serr)
	}
	d.mu.Lock()
	e.shard, e.loadErr = sh, err
	if err != nil {
		delete(d.cache, k)
	} else {
		e.size = d.sizeOf(sh)
		if prefetch && d.maxResident > 0 {
			// Until an Acquire hands it out, a prefetched shard is identical
			// to its disk copy (or its deterministic lazy init): evictable
			// with no write should a must-have need the memory.
			e.clean = true
			e.lastUse = d.bumpUseLocked()
		}
	}
	d.m.loads.Inc()
	lsp.End()
	e.span.End()
	e.span = nil
	d.updateResidentLocked()
	close(e.ready)
	e.ready = nil
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Acquire implements Store, loading from disk when evicted earlier. A hit on
// a prefetched-but-still-loading entry waits for the background load rather
// than issuing a second read; a hit on an entry whose write-back is in
// flight revives the live in-memory shard immediately (the writer works on
// a snapshot) and never re-reads the file. Under a memory budget a miss is
// a must-have: makeRoomLocked evicts unreferenced shards (LRU by last
// release) and waits for in-flight write-backs until the load fits — and
// only runs over budget when the remaining bytes all belong to referenced
// shards.
func (d *DiskStore) Acquire(t, p int) (*Shard, error) {
	k := shardKey{t, p}
	d.mu.Lock()
	for {
		e, ok := d.cache[k]
		if !ok {
			size := d.shardBytes(t, p)
			if d.maxResident > 0 {
				if waited := d.makeRoomLocked(size); waited {
					continue // the cache changed while we waited; re-check
				}
				d.m.admits.Inc()
			}
			e = &diskEntry{ready: make(chan struct{}), size: size}
			d.cache[k] = e
			d.mu.Unlock()
			d.load(k, e, false) // synchronous load in this goroutine
			if e.loadErr != nil {
				return nil, e.loadErr
			}
			d.mu.Lock()
			continue
		}
		if e.ready != nil { // load in flight (prefetch or racing Acquire)
			ready := e.ready
			e.waiters++
			d.mu.Unlock()
			<-ready
			d.mu.Lock()
			e.waiters--
			if e.loadErr == errShed {
				continue // the budget shed the hint we joined; retry as a miss
			}
			if e.loadErr != nil {
				d.mu.Unlock()
				return nil, e.loadErr
			}
			continue
		}
		e.refs++
		e.clean = false
		sh := e.shard
		if e.snapDone != nil {
			// A write-back is snapshotting these buffers outside the lock;
			// wait for the memcpy (not the disk write) before the caller may
			// mutate them.
			done := e.snapDone
			d.mu.Unlock()
			<-done
			return sh, nil
		}
		if e.writeDone != nil {
			// The budget had no headroom for a snapshot, so the write-back
			// holds the live buffers; wait for the disk write itself.
			done := e.writeDone
			d.mu.Unlock()
			<-done
			return sh, nil
		}
		d.mu.Unlock()
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
func (d *DiskStore) makeRoomLocked(need int64) (waited bool) {
	for d.accountedLocked()+need > d.maxResident {
		if d.shedQueuedLocked() {
			continue
		}
		if d.evictCleanLocked() {
			continue
		}
		if d.waitableLocked() {
			d.cond.Wait()
			waited = true
			continue
		}
		break
	}
	return waited
}

// shedQueuedLocked cancels one queued prefetch nobody has joined yet.
func (d *DiskStore) shedQueuedLocked() bool {
	for k, e := range d.cache {
		if e.queued && !e.shedded && e.waiters == 0 {
			d.shedLocked(k, e)
			return true
		}
	}
	return false
}

// evictCleanLocked drops the least-recently-used unreferenced clean shard;
// its disk copy (or deterministic lazy init) is current, so no write is
// needed. Entries a waiter is about to claim are skipped.
func (d *DiskStore) evictCleanLocked() bool {
	var victimK shardKey
	var victim *diskEntry
	for k, e := range d.cache {
		if e.clean && e.refs == 0 && e.ready == nil && !e.writing && e.waiters == 0 {
			if victim == nil || e.lastUse < victim.lastUse {
				victimK, victim = k, e
			}
		}
	}
	if victim == nil {
		return false
	}
	delete(d.cache, victimK)
	d.m.forcedEvicts.Inc()
	d.updateResidentLocked()
	d.cond.Broadcast()
	return true
}

// waitableLocked reports whether any in-flight I/O will free accounted
// memory when it lands: a write snapshot, a write-back of an unreferenced
// shard, or a pure-prefetch load (which becomes clean, hence evictable).
func (d *DiskStore) waitableLocked() bool {
	if d.snapBytes > 0 {
		return true
	}
	for _, e := range d.cache {
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
// (taken under the store lock, when no trainer holds a reference) instead
// of the live buffers, so a revived shard can be mutated while its previous
// state is still being written out.
func (s *Shard) snapshot() *Shard {
	return &Shard{
		TypeIndex: s.TypeIndex, Part: s.Part, Count: s.Count, Dim: s.Dim,
		Embs: append([]float32(nil), s.Embs...),
		Acc:  append([]float32(nil), s.Acc...),
	}
}

// Release implements Store: the last reference schedules an asynchronous
// write-back of a snapshot on the I/O pool and the shard is evicted once
// the write lands (retained as a clean cache entry instead when a budget
// is set and it fits). Because write-backs are asynchronous, a failure
// surfaces as the (sticky) error of a later Release, Flush, Drain, or
// Close call.
func (d *DiskStore) Release(t, p int) error {
	k := shardKey{t, p}
	d.mu.Lock()
	e, ok := d.cache[k]
	if !ok || e.refs <= 0 || e.ready != nil {
		d.mu.Unlock()
		return fmt.Errorf("storage: Release of unacquired shard (%d,%d)", t, p)
	}
	e.refs--
	err := d.ioErr
	if e.refs > 0 {
		d.mu.Unlock()
		return err
	}
	e.lastUse = d.bumpUseLocked()
	if e.writing {
		// A write of an older snapshot is still in flight; chain a rewrite
		// behind it rather than racing two renames to the same file.
		e.rewrite = true
		d.mu.Unlock()
		return err
	}
	e.writing = true
	d.startWrite(k, e)
	return err
}

// startWrite snapshots e's shard and submits its write-back. The caller
// must hold d.mu with e.writing freshly set; startWrite unlocks it. The
// multi-MB snapshot copy runs outside the store lock — guarded by
// e.snapDone so only a revival of this very shard waits for the memcpy —
// keeping evictions from convoying every other Acquire/Prefetch/Release.
// When a budget is set and the snapshot copy itself would not fit, the
// write uses the live buffers instead (refs is zero, so nothing mutates
// them) and a revival waits for the disk write via writeDone.
func (d *DiskStore) startWrite(k shardKey, e *diskEntry) {
	if d.maxResident > 0 && d.accountedLocked()+d.sizeOf(e.shard) > d.maxResident {
		e.writeDone = make(chan struct{})
		live := e.shard
		d.mu.Unlock()
		d.submit(func() { d.writeBack(k, e, live, true) })
		return
	}
	e.snapDone = make(chan struct{})
	sh := e.shard
	// Reserve the snapshot's bytes before releasing the lock: an admission
	// check racing the memcpy must already see them, or a prefetch admitted
	// during the copy would push real memory past the budget.
	d.snapBytes += d.sizeOf(sh)
	d.updateResidentLocked()
	d.mu.Unlock()
	ssp := d.obs.Trace.Start("storage", fmt.Sprintf("snapshot t%d p%d", k.t, k.p))
	snap := sh.snapshot()
	ssp.End()
	d.mu.Lock()
	close(e.snapDone)
	e.snapDone = nil
	d.mu.Unlock()
	d.submit(func() { d.writeBack(k, e, snap, false) })
}

// writeBack persists a snapshot of e's shard (or the live buffers when
// live) and evicts the entry unless an Acquire revived it while the write
// was in flight. On failure the entry stays resident: the in-memory shard
// is the only current copy, so evicting it would lose the bucket's training
// — the sticky error surfaces on the next Release or Drain, while Flush and
// Close retry the write (clearing the error if the retry lands).
func (d *DiskStore) writeBack(k shardKey, e *diskEntry, snap *Shard, live bool) {
	wsp := d.obs.Trace.Start("storage", fmt.Sprintf("writeback t%d p%d", k.t, k.p))
	werr := WriteShardCodec(d.path(k.t, k.p), snap, d.codec)
	wsp.End()
	d.mu.Lock()
	d.m.writes.Inc()
	if !live {
		d.snapBytes -= d.sizeOf(snap)
	}
	finish := func() {
		if e.writeDone != nil {
			close(e.writeDone)
			e.writeDone = nil
		}
		d.cond.Broadcast()
	}
	if werr != nil {
		e.writing = false
		e.rewrite = false
		if d.ioErr == nil {
			d.ioErr = fmt.Errorf("storage: write back shard (%d,%d): %w", k.t, k.p, werr)
		}
		finish()
		d.mu.Unlock()
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
			d.startWrite(k, e)
			return
		}
		// Revived since: its next Release will write.
		e.writing = false
		finish()
		d.mu.Unlock()
		return
	}
	e.writing = false
	if e.refs == 0 {
		if d.maxResident > 0 && d.accountedLocked() <= d.maxResident {
			// Budgeted mode keeps the written shard as a clean cache entry —
			// the budget is a shard cache, not just a ceiling — so a
			// re-Acquire skips the disk read. Eviction reclaims it LRU-first
			// whenever a must-have needs the memory.
			e.clean = true
		} else {
			delete(d.cache, k)
		}
	}
	d.updateResidentLocked()
	finish()
	d.mu.Unlock()
}

// Drain blocks until every background load and write-back has completed and
// returns the first asynchronous write error, if any. The caller must not
// issue concurrent Prefetch/Release calls while draining.
func (d *DiskStore) Drain() error {
	d.pending.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ioErr
}

// IOStats reports cumulative I/O counts and memory-budget decisions, for
// tests and throughput accounting. It is a snapshot of the store's obs
// registry counters, so callers see the same numbers a /metrics scrape
// would.
func (d *DiskStore) IOStats() IOStats {
	return IOStats{
		Loads:         d.m.loads.Value(),
		Writes:        d.m.writes.Value(),
		Admits:        d.m.admits.Value(),
		PrefetchSheds: d.m.sheds.Value(),
		ForcedEvicts:  d.m.forcedEvicts.Value(),
	}
}

// Flush implements Store: wait for pending I/O, then persist every resident
// shard, keeping all of them cached (the interface's checkpointing
// contract — prefetched shards and warm cache entries survive). A
// successful Flush also clears — and thereby retries — earlier asynchronous
// write-back failures: a failed write-back keeps its shard resident, so
// rewriting everything resident re-covers exactly the shards whose write
// was lost.
func (d *DiskStore) Flush() error {
	d.pending.Wait()
	type item struct {
		k shardKey
		e *diskEntry
	}
	d.mu.Lock()
	d.ioErr = nil
	items := make([]item, 0, len(d.cache))
	for k, e := range d.cache {
		// Clean retained entries are bit-identical to their disk copy (or
		// to their deterministic lazy init), so rewriting them on every
		// checkpoint would be O(warm cache) of disk writes for nothing.
		if e.shard != nil && !(e.clean && e.refs == 0) {
			items = append(items, item{k, e})
		}
	}
	d.mu.Unlock()
	for _, it := range items {
		if err := WriteShardCodec(d.path(it.k.t, it.k.p), it.e.shard, d.codec); err != nil {
			d.mu.Lock()
			if d.ioErr == nil {
				d.ioErr = fmt.Errorf("storage: flush shard (%d,%d): %w", it.k.t, it.k.p, err)
			}
			d.mu.Unlock()
			return err
		}
	}
	return nil
}

// ResidentBytes implements Store. Shards being prefetched count once
// loaded; shards awaiting write-back and the in-flight write snapshots
// count too — all genuinely occupy memory, and the pipeline's extra
// transient footprint should be visible to the §5.4.2 accounting rather
// than hidden. Under SetCodec the report is in budget-priced (codec)
// bytes, the same unit the admission budget charges, so the invariant
// "accounted ≥ resident" holds in one currency.
func (d *DiskStore) ResidentBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.residentLocked()
}

func (d *DiskStore) residentLocked() int64 {
	total := d.snapBytes
	for _, e := range d.cache {
		if e.shard != nil {
			total += d.sizeOf(e.shard)
		}
	}
	return total
}

// updateResidentLocked refreshes the resident-bytes gauge. Called at every
// transition that changes real shard memory (load publish, snapshot
// reservation, write-back completion, eviction), so a /metrics scrape sees
// the same footprint ResidentBytes reports.
func (d *DiskStore) updateResidentLocked() {
	d.m.resident.Set(d.residentLocked())
}

// Close implements Store: persist everything still resident and reject
// further background work.
func (d *DiskStore) Close() error {
	err := d.Flush()
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return err
}

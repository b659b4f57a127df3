package dist

// Conformance suite for storage.Cache, run against both of its backends —
// a directory of shard files (storage.DiskStore) and a loopback
// PartitionServer (remoteStore). It lives here because this is the lowest
// package that can see both. Every case drives the store through the
// storage.Store surface and observes it through Cache.State/IOStats; the one
// place the backends legitimately differ — what the last Release does — is
// keyed on the backend's declared write policy, never on its type.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
	"pbg/internal/train"
)

// cacheUnderTest is one Cache-backed store plus what the suite needs to
// know about its backend.
type cacheUnderTest struct {
	store  storage.Store // the store as callers hold it (its own Close)
	cache  *storage.Cache
	setObs func(*obs.Hub)
	// writeThrough is the policy the store built its cache with.
	writeThrough bool
	// durable reads shard (t,p)'s durable copy, bypassing the cache.
	durable func(t, p int) (*storage.Shard, error)
	// The registry names the store publishes loads, writes and resident
	// bytes under.
	loadsName, writesName, residentName string
}

type cacheFactory func(t *testing.T, schema *graph.Schema, dim int) cacheUnderTest

func newFilesCache(t *testing.T, schema *graph.Schema, dim int) cacheUnderTest {
	dir := t.TempDir()
	ds := storetest.NewDisk(t, dir, schema, dim, 1, 1)
	return cacheUnderTest{
		store: ds, cache: ds.Cache, setObs: ds.SetObs,
		durable: func(tp, p int) (*storage.Shard, error) {
			return storage.ReadShard(storage.ShardPath(dir, tp, p))
		},
		loadsName: "pbg_storage_loads_total", writesName: "pbg_storage_writebacks_total",
		residentName: "pbg_storage_resident_bytes",
	}
}

func newPartitionServerCache(t *testing.T, schema *graph.Schema, dim int) cacheUnderTest {
	ps := NewPartitionServer(schema, dim, 1)
	store := dialLoopback(t, ps, schema, dim)
	return cacheUnderTest{
		store: store, cache: store.Cache, setObs: store.SetObs, writeThrough: true,
		durable: func(tp, p int) (*storage.Shard, error) {
			args := GetArgs{TypeIndex: tp, Part: p, Count: schema.Entities[tp].PartitionCount(p), Dim: dim}
			var reply ShardReply
			if err := ps.Get(args, &reply); err != nil {
				return nil, err
			}
			return decodeGetReply(args, reply.Shard)
		},
		loadsName: "pbg_dist_fetches_total", writesName: "pbg_dist_puts_total",
		residentName: "pbg_dist_resident_bytes",
	}
}

// dialLoopback serves rcvr as "PartitionServer" on loopback TCP and returns
// a store over it; both are torn down with the test.
func dialLoopback(t *testing.T, rcvr any, schema *graph.Schema, dim int) *remoteStore {
	t.Helper()
	l, addr, err := serve(map[string]any{"PartitionServer": rcvr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() }) // a listener only stops accepting; nothing to report
	store, err := dialStore(schema, dim, 1, false, []string{addr}, storeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := store.Close(); err != nil {
			t.Errorf("closing remote store: %v", err)
		}
	})
	return store
}

// lifecycleSchema has a partitioned and an unpartitioned type.
func lifecycleSchema() *graph.Schema {
	return graph.MustSchema(
		[]graph.EntityType{
			{Name: "node", Count: 20, NumPartitions: 4},
			{Name: "tag", Count: 6, NumPartitions: 1},
		},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "tag", Operator: "identity"}},
	)
}

// budgetSchema has one partitioned type with 4 equal shards so budget math
// is exact: each shard is 5 rows × (dim+1) × 4 bytes.
func budgetSchema() *graph.Schema {
	return graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 20, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
}

// entryOf finds shard (t,p) in a State snapshot.
func entryOf(st storage.CacheState, t, p int) (storage.EntryState, bool) {
	for _, e := range st.Entries {
		if e.Type == t && e.Part == p {
			return e, true
		}
	}
	return storage.EntryState{}, false
}

func (c cacheUnderTest) cached(t, p int) bool {
	_, ok := entryOf(c.cache.State(), t, p)
	return ok
}

// waitUntil spins (yielding) until cond holds; it is a bounded handshake on
// cache state, not a timing assumption — failures mean the condition can
// never hold, and surface as a fatal after a generous bound.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
		if i%10_000 == 9_999 {
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("condition never became true")
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func acquire(t *testing.T, c cacheUnderTest, tp, p int) *storage.Shard {
	t.Helper()
	sh, err := c.store.Acquire(tp, p)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestCacheConformance(t *testing.T) {
	backends := []struct {
		name string
		new  cacheFactory
	}{
		{"files", newFilesCache},
		{"partition-server", newPartitionServerCache},
	}
	cases := []struct {
		name string
		run  func(*testing.T, cacheFactory)
	}{
		{"RefCounting", testCacheRefCounting},
		{"FlushKeepsResident", testCacheFlushKeepsResident},
		{"ConcurrentAcquireRelease", testCacheConcurrentAcquireRelease},
		{"Prefetch", testCachePrefetch},
		{"BudgetShedsPrefetchHints", testCacheBudgetShedsPrefetchHints},
		{"BudgetEvictsPrefetchedLRU", testCacheBudgetEvictsPrefetchedLRU},
		{"BudgetEvictsReleasedLRU", testCacheBudgetEvictsReleasedLRU},
		{"WriteCounts", testCacheWriteCounts},
		{"PrefetchShedJoinedAcquire", testCachePrefetchShedJoinedAcquire},
		{"ShedsYoungestQueuedHint", testCacheShedsYoungestQueuedHint},
		{"SpanNesting", testCacheSpanNesting},
	}
	for _, b := range backends {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) { c.run(t, b.new) })
		}
	}
}

func testCacheRefCounting(t *testing.T, newCache cacheFactory) {
	c := newCache(t, lifecycleSchema(), 8)
	a := acquire(t, c, 0, 0)
	b := acquire(t, c, 0, 0)
	if a != b {
		t.Fatal("double acquire returned different shards")
	}
	must(t, c.store.Release(0, 0))
	// Still referenced: must stay resident.
	if c.store.ResidentBytes() == 0 {
		t.Fatal("shard evicted while still referenced")
	}
	must(t, c.store.Release(0, 0))
	must(t, c.cache.Drain())
	if c.store.ResidentBytes() != 0 {
		t.Fatal("shard not evicted at refcount zero")
	}
}

func testCacheFlushKeepsResident(t *testing.T, newCache cacheFactory) {
	c := newCache(t, lifecycleSchema(), 8)
	sh := acquire(t, c, 1, 0)
	sh.Row(0)[0] = 5
	must(t, c.store.Flush())
	if c.store.ResidentBytes() == 0 {
		t.Fatal("Flush must not evict")
	}
	got, err := c.durable(1, 0)
	must(t, err)
	if got.Row(0)[0] != 5 {
		t.Fatal("Flush did not persist state")
	}
	must(t, c.store.Release(1, 0))
}

// testCacheConcurrentAcquireRelease pins the write race: a Release that
// evicts must never let a concurrent Acquire observe a stale durable copy
// (a half-renamed file, a Put still on the wire). Each goroutine owns one
// embedding cell and bumps it once per iteration; any stale read surfaces as
// a lost increment.
func testCacheConcurrentAcquireRelease(t *testing.T, newCache cacheFactory) {
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 64, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	c := newCache(t, schema, 4)
	const workers = 8
	const iters = 150
	// Zero the counter cells (Init fills them with random values).
	for part := 0; part < 2; part++ {
		sh := acquire(t, c, 0, part)
		for w := 0; w < workers; w++ {
			sh.Row(w)[0] = 0
		}
		must(t, c.store.Release(0, part))
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			part := w % 2
			for i := 0; i < iters; i++ {
				if i%3 == w%3 {
					// Interleave hints for both partitions: prefetches must
					// coexist with concurrent Acquire/Release traffic.
					c.store.Prefetch(0, (part+i)%2)
				}
				sh, err := c.store.Acquire(0, part)
				if err != nil {
					errs[w] = err
					return
				}
				sh.Row(w)[0]++ // cell owned by this goroutine
				if err := c.store.Release(0, part); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 0; w < workers; w++ {
		sh := acquire(t, c, 0, w%2)
		if got := sh.Row(w)[0]; got != iters {
			t.Fatalf("worker %d cell = %v, want %v (lost updates through the write race)", w, got, iters)
		}
		must(t, c.store.Release(0, w%2))
	}
	must(t, c.store.Close())
}

// testCachePrefetch checks the Prefetch contract: the hint loads the shard
// in the background, a later Acquire returns exactly the data it would have
// loaded itself, and no double-load can fork the shard into two copies.
func testCachePrefetch(t *testing.T, newCache cacheFactory) {
	c := newCache(t, lifecycleSchema(), 8)
	// Persist a recognisable shard, then evict it.
	sh := acquire(t, c, 0, 1)
	sh.Row(2)[0] = 99
	must(t, c.store.Release(0, 1))
	must(t, c.cache.Drain())
	c.store.Prefetch(0, 1)
	c.store.Prefetch(0, 1) // repeated hints must not double-load
	got := acquire(t, c, 0, 1)
	if got.Row(2)[0] != 99 {
		t.Fatalf("prefetched shard lost state: %v", got.Row(2)[0])
	}
	// The prefetched copy and a second Acquire must alias the same shard.
	if again := acquire(t, c, 0, 1); again != got {
		t.Fatal("Acquire after prefetch returned a different shard copy")
	}
	for i := 0; i < 2; i++ {
		must(t, c.store.Release(0, 1))
	}
	must(t, c.store.Close())
	if io := c.cache.IOStats(); io.Loads != 2 || io.Writes < 1 {
		t.Fatalf("unexpected IO stats: %+v (want exactly 2 loads: the miss and the one hint)", io)
	}
}

func testCacheBudgetShedsPrefetchHints(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	c := newCache(t, schema, 8)
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	c.cache.SetMaxResidentBytes(2 * shard)
	// Fill the budget with two referenced shards.
	acquire(t, c, 0, 0)
	acquire(t, c, 0, 1)
	// A hint that does not fit is dropped, not queued.
	c.store.Prefetch(0, 2)
	if io := c.cache.IOStats(); io.PrefetchSheds != 1 || io.Admits != 2 {
		t.Fatalf("sheds = %d, admits = %d, want 1 and 2 (stats %+v)", io.PrefetchSheds, io.Admits, io)
	}
	if c.cached(0, 2) {
		t.Fatal("shed hint left a cache entry")
	}
	// The shard is still acquirable as a must-have (over-budget allowance:
	// everything else is referenced).
	acquire(t, c, 0, 2)
	must(t, storetest.CheckBudget(c.cache.State()))
	for p := 0; p < 3; p++ {
		must(t, c.store.Release(0, p))
	}
	must(t, c.store.Close())
}

// testCacheBudgetEvictsPrefetchedLRU: hints that fit are admitted and land
// clean, a hint past the budget is dropped, and a must-have evicts the
// least-recently-landed never-acquired shard — with no write: it was never
// modified, so the durable copy is still canonical.
func testCacheBudgetEvictsPrefetchedLRU(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	c := newCache(t, schema, 8)
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	c.cache.SetMaxResidentBytes(2 * shard)
	// Two hints fit; land them one at a time so the LRU order (by load
	// completion) is deterministic: p0 is the older entry.
	for _, p := range []int{0, 1} {
		c.store.Prefetch(0, p)
		waitUntil(t, func() bool {
			e, ok := entryOf(c.cache.State(), 0, p)
			return ok && !e.Loading
		})
	}
	// A third hint exceeds the budget: dropped, no cache entry.
	c.store.Prefetch(0, 2)
	if sheds := c.cache.IOStats().PrefetchSheds; sheds != 1 || c.cached(0, 2) {
		t.Fatalf("over-budget hint not dropped: sheds=%d cached=%v", sheds, c.cached(0, 2))
	}
	// A must-have evicts the least-recently-fetched unacquired shard.
	acquire(t, c, 0, 2)
	if io := c.cache.IOStats(); io.ForcedEvicts != 1 || io.Writes != 0 || c.cached(0, 0) || !c.cached(0, 1) {
		t.Fatalf("must-have did not evict the LRU prefetched shard for free: %+v, p0 cached=%v p1 cached=%v",
			io, c.cached(0, 0), c.cached(0, 1))
	}
	if rb := c.store.ResidentBytes(); rb > 2*shard {
		t.Fatalf("resident %d exceeds budget %d", rb, 2*shard)
	}
	must(t, c.store.Release(0, 2))
}

// testCacheBudgetEvictsReleasedLRU pins what happens to released shards
// under a budget. A write-back cache retains them clean while they fit and
// evicts the least recently released for a must-have; a write-through cache
// retains nothing. Either way the released state survives in the backend.
func testCacheBudgetEvictsReleasedLRU(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	c := newCache(t, schema, 8)
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	c.cache.SetMaxResidentBytes(2 * shard)
	// Release two modified shards, p0 first (the LRU victim).
	for _, p := range []int{0, 1} {
		sh := acquire(t, c, 0, p)
		sh.Row(0)[0] = float32(10 + p)
		must(t, c.store.Release(0, p))
		must(t, c.cache.Drain())
	}
	retained, evicts := 2*shard, int64(1)
	if c.writeThrough {
		retained, evicts = 0, 0
	}
	if rb := c.store.ResidentBytes(); rb != retained {
		t.Fatalf("resident %d after both releases, want %d", rb, retained)
	}
	// A must-have for a third shard evicts the least recently released.
	acquire(t, c, 0, 2)
	if io := c.cache.IOStats(); io.ForcedEvicts != evicts {
		t.Fatalf("forced evicts = %d, want %d (stats %+v)", io.ForcedEvicts, evicts, io)
	}
	if p0, p1 := c.cached(0, 0), c.cached(0, 1); p0 || p1 == c.writeThrough {
		t.Fatalf("LRU eviction wrong: p0 cached=%v p1 cached=%v (want p0 gone, p1 kept only by a write-back cache)", p0, p1)
	}
	if c.store.ResidentBytes() > 2*shard {
		t.Fatalf("resident %d exceeds budget %d", c.store.ResidentBytes(), 2*shard)
	}
	// The evicted shard reloads from the backend with its state intact.
	must(t, c.store.Release(0, 2))
	if back := acquire(t, c, 0, 0); back.Row(0)[0] != 10 {
		t.Fatalf("evicted shard lost state: %v", back.Row(0)[0])
	}
	must(t, c.store.Release(0, 0))
	must(t, c.store.Close())
}

// testCacheWriteCounts pins, as exact IOStats.Writes counts, the one write
// rule — a modified shard is stored when it leaves memory — on every kind
// of cache. One that retains nothing (no budget, or a write-through
// backend under any budget) stores on every last Release, exactly as it did
// before the budgeted write-back cache learnt to retain dirty shards; that
// one stores nothing until a shard is evicted or Drain asks.
func testCacheWriteCounts(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	for _, budgetShards := range []int64{0, 2} {
		c := newCache(t, schema, 8)
		c.cache.SetMaxResidentBytes(budgetShards * shard)
		retains := budgetShards > 0 && !c.writeThrough
		const releases = 6
		for i := 0; i < releases; i++ {
			sh := acquire(t, c, 0, i%2)
			sh.Row(0)[0] = float32(i)
			must(t, c.store.Release(0, i%2))
			want := int64(i + 1)
			if retains {
				want = 0
			} else {
				// Land the asynchronous write, or the next Acquire of this
				// shard could revive it and fold two releases into one write.
				must(t, c.cache.Drain())
			}
			if got := c.cache.IOStats().Writes; got != want {
				t.Fatalf("budget %d shards: writes = %d after release %d, want %d", budgetShards, got, i+1, want)
			}
		}
		must(t, c.cache.Drain())
		want := int64(releases)
		if retains {
			want = 2 // the two shards, once each
		}
		if got := c.cache.IOStats().Writes; got != want {
			t.Fatalf("budget %d shards: writes = %d after Drain, want %d", budgetShards, got, want)
		}
		for p, cell := range []float32{4, 5} {
			got, err := c.durable(0, p)
			must(t, err)
			if got.Row(0)[0] != cell {
				t.Fatalf("budget %d shards: durable shard %d holds %v, want %v", budgetShards, p, got.Row(0)[0], cell)
			}
		}
		must(t, c.store.Close())
	}
}

// testCachePrefetchShedJoinedAcquire pins the join-then-shed interleaving
// (the admission-failure path): a prefetch is admitted, an Acquire joins the
// in-flight load, then the budget — consumed meanwhile by a must-have —
// sheds the queued hint when its pool load starts. The joined Acquire must
// retry as a must-have miss and succeed; no loading entry may be left
// stranded in the cache.
func testCachePrefetchShedJoinedAcquire(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	c := newCache(t, schema, 8)
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	c.cache.SetMaxResidentBytes(shard + shard/2) // fits the hint, not hint + must-have

	gate := make(chan struct{})
	c.cache.TestHookQueuedLoad = func(tp, p int) {
		if tp == 0 && p == 1 {
			<-gate // hold the queued hint until the test tightens the budget
		}
	}

	c.store.Prefetch(0, 1) // admitted: nothing else is resident
	if got := c.cache.IOStats().Admits; got != 1 {
		t.Fatalf("admits = %d, want 1", got)
	}

	// Join the in-flight prefetch from another goroutine.
	type result struct {
		sh  *storage.Shard
		err error
	}
	joined := make(chan result, 1)
	go func() {
		sh, err := c.store.Acquire(0, 1)
		joined <- result{sh, err}
	}()
	waitUntil(t, func() bool {
		e, ok := entryOf(c.cache.State(), 0, 1)
		return ok && e.Waiters == 1
	})

	// A must-have consumes the budget while the hint sits in the queue.
	// makeRoom must NOT shed the joined hint (a waiter is about to claim
	// it); the must-have runs over budget instead.
	acquire(t, c, 0, 0)

	close(gate) // the pool load now re-checks admission: over budget → shed

	res := <-joined
	if res.err != nil {
		t.Fatalf("joined Acquire failed after shed: %v", res.err)
	}
	if res.sh == nil || res.sh.Part != 1 {
		t.Fatalf("joined Acquire returned wrong shard: %+v", res.sh)
	}
	if io := c.cache.IOStats(); io.PrefetchSheds != 1 {
		t.Fatalf("sheds = %d, want 1 (stats %+v)", io.PrefetchSheds, io)
	}
	// No stranded loading entry: the cache holds exactly the two live
	// shards, both resident.
	st := c.cache.State()
	for _, e := range st.Entries {
		if e.Loading || e.Refs != 1 {
			t.Errorf("stranded entry %+v", e)
		}
	}
	if n := len(st.Entries); n != 2 {
		t.Fatalf("cache has %d entries, want 2", n)
	}
	must(t, c.store.Release(0, 0))
	must(t, c.store.Release(0, 1))
	must(t, c.store.Close())
}

// testCacheShedsYoungestQueuedHint: when a must-have has to shed one of
// several queued hints, the most recently queued goes — the pipeline issues
// hints in bucket order, so that is the shard needed furthest in the
// future. Picked by map iteration order instead, the survivor (and with it
// the load and shed counts at a fixed seed) would vary from run to run;
// fifty fresh caches make that variation certain to show.
func testCacheShedsYoungestQueuedHint(t *testing.T, newCache cacheFactory) {
	schema := budgetSchema()
	shard := storage.ProjectedShardBytes(schema, 8, 0, 0)
	for i := 0; i < 50; i++ {
		c := newCache(t, schema, 8)
		c.cache.SetMaxResidentBytes(2 * shard)
		gate := make(chan struct{})
		c.cache.TestHookQueuedLoad = func(int, int) { <-gate } // every hint stays queued
		c.store.Prefetch(0, 0)
		c.store.Prefetch(0, 1)
		acquire(t, c, 0, 2) // must-have: one of the two hints has to go
		older, okOlder := entryOf(c.cache.State(), 0, 0)
		if !okOlder || !older.Queued || c.cached(0, 1) {
			t.Fatalf("round %d: older hint kept=%v queued=%v, younger hint kept=%v (want the younger one shed)",
				i, okOlder, older.Queued, c.cached(0, 1))
		}
		close(gate)
		acquire(t, c, 0, 0) // joins the surviving hint's load
		if io := c.cache.IOStats(); io.PrefetchSheds != 1 || io.Loads != 2 {
			t.Fatalf("round %d: sheds = %d, loads = %d, want 1 and 2", i, io.PrefetchSheds, io.Loads)
		}
		must(t, c.store.Release(0, 0))
		must(t, c.store.Release(0, 2))
		must(t, c.store.Close())
	}
}

// findSpan returns the first recorded span whose name has the given prefix.
func findSpan(evs []obs.SpanEvent, prefix string) (obs.SpanEvent, bool) {
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, prefix) {
			return ev, true
		}
	}
	return obs.SpanEvent{}, false
}

// testCacheSpanNesting drives one shard through the full prefetch → acquire
// → release → write lifecycle and asserts the recorded spans tell that
// story: the load nests inside its prefetch window (and is its child), and
// the write — of the live buffers, with no copy first — starts only after
// Release.
func testCacheSpanNesting(t *testing.T, newCache cacheFactory) {
	hub := obs.NewHub()
	c := newCache(t, lifecycleSchema(), 8)
	c.setObs(hub)

	c.store.Prefetch(0, 1)
	sh := acquire(t, c, 0, 1)
	sh.Row(0)[0] = 1.0
	released := time.Now()
	must(t, c.store.Release(0, 1))
	must(t, c.cache.Drain())

	evs := hub.Trace.Events()
	span := func(prefix string) obs.SpanEvent {
		t.Helper()
		ev, ok := findSpan(evs, prefix)
		if !ok {
			t.Fatalf("no span with prefix %q in %d events", prefix, len(evs))
		}
		return ev
	}
	prefetch, load, write := span("prefetch t0 p1"), span("load t0 p1"), span("writeback t0 p1")
	if load.Parent != prefetch.ID {
		t.Errorf("load parent = %d, want prefetch span %d", load.Parent, prefetch.ID)
	}
	if load.Start.Before(prefetch.Start) {
		t.Error("load starts before its prefetch window opens")
	}
	if load.Start.Add(load.Dur).After(prefetch.Start.Add(prefetch.Dur)) {
		t.Error("load ends after its prefetch window closes")
	}
	if write.Start.Before(released) {
		t.Errorf("writeback span starts %v before Release", released.Sub(write.Start))
	}
	if _, ok := findSpan(evs, "snapshot "); ok {
		t.Error("snapshot span recorded: a write stores the live buffers")
	}

	// IOStats and the registry the endpoint scrapes count the same events.
	reg := hub.Reg.Snapshot()
	stats := c.cache.IOStats()
	if stats.Loads != reg.Counters[c.loadsName] || stats.Loads != 1 {
		t.Errorf("loads: IOStats %d, registry %d, want 1", stats.Loads, reg.Counters[c.loadsName])
	}
	if stats.Writes != reg.Counters[c.writesName] || stats.Writes != 1 {
		t.Errorf("writes: IOStats %d, registry %d, want 1", stats.Writes, reg.Counters[c.writesName])
	}
	// Unbudgeted caches evict once the write lands, so the resident gauge
	// must have returned to zero.
	if got := reg.Gauges[c.residentName]; got != 0 {
		t.Errorf("resident gauge = %d after drain, want 0", got)
	}
}

// TestCacheRemoteStorePricesFP32: train.New hands Config.Codec to any store
// with a SetCodec method, and the wire (hence the checkout cache) holds fp32
// whatever the run's checkpoint codec is — so the remote store must not
// grow one by embedding the cache, or its budget would under-price every
// shard.
func TestCacheRemoteStorePricesFP32(t *testing.T) {
	schema := budgetSchema()
	var store any = dialLoopback(t, NewPartitionServer(schema, 8, 1), schema, 8)
	if _, ok := store.(interface{ SetCodec(storage.Codec) }); ok {
		t.Fatal("remoteStore exposes SetCodec: train.New would price its fp32 shards in the run's codec")
	}
}

// gatedPartitionServer holds every Get until the test opens the gate.
type gatedPartitionServer struct {
	*PartitionServer
	started, open chan struct{}
}

func (g *gatedPartitionServer) Get(args GetArgs, reply *ShardReply) error {
	close(g.started)
	<-g.open
	return g.PartitionServer.Get(args, reply)
}

// TestCacheCloseWaitsForPrefetch: Close must not hang up the partition
// servers under a prefetch still on the wire. The fetch used to run on an
// untracked goroutine, so a Close racing it set clients to nil and the
// fetch then picked its server with `% 0`.
func TestCacheCloseWaitsForPrefetch(t *testing.T) {
	schema := testSchema(t)
	const dim = 8
	ps := &gatedPartitionServer{
		PartitionServer: NewPartitionServer(schema, dim, 7),
		started:         make(chan struct{}),
		open:            make(chan struct{}),
	}
	store := dialLoopback(t, ps, schema, dim)
	store.Prefetch(0, 1)
	<-ps.started
	closed := make(chan error, 1)
	go func() { closed <- store.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a fetch in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(ps.open)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := store.IOStats().Loads; got != 1 {
		t.Fatalf("loads = %d, want 1: the in-flight fetch must land before Close returns", got)
	}
}

// TestCacheBudgetInvariantProperty runs the pipelined trainer — randomized
// grid, bucket order and budget (which sets the prefetch depth), as
// train.TestPipelineBudgetInvariantProperty does over a DiskStore — over a
// budgeted remoteStore and holds it to the same invariants: accounted ≥
// resident and resident ≤ budget unless nothing evictable is left
// (storetest.CheckBudget, sampled continuously), the high-water within one
// shard of the budget, and every acquired shard released.
func TestCacheBudgetInvariantProperty(t *testing.T) {
	orders := []string{partition.OrderInsideOut, partition.OrderBudgetAware}
	cases := 4
	if testing.Short() {
		cases = 2
	}
	r := rng.New(99)
	for i := 0; i < cases; i++ {
		parts := []int{2, 4, 8}[r.Intn(3)]
		order := orders[r.Intn(len(orders))]
		shardMult := int64(2 + r.Intn(5))
		const nodes, dim = 240, 8
		name := fmt.Sprintf("parts=%d/order=%s/budget=%dx", parts, order, shardMult)
		t.Run(name, func(t *testing.T) {
			g, err := datagen.Social(datagen.SocialConfig{
				Nodes: nodes, AvgOutDegree: 4, NumPartitions: parts, Seed: uint64(31 + i),
			})
			must(t, err)
			perShard := storage.ProjectedShardBytes(g.Schema, dim, 0, 0)
			budget := shardMult * perShard
			store := dialLoopback(t, NewPartitionServer(g.Schema, dim, 7), g.Schema, dim)
			st := storetest.New(store)
			tr, err := train.New(g, st, train.Config{
				Dim: dim, Epochs: 2, Seed: uint64(5 + i), Workers: 2, HogwildOff: true,
				BucketOrder: order, MemBudgetBytes: budget,
			})
			must(t, err)
			stop := storetest.WatchBudget(store.Cache)
			stats, err := tr.Train(nil)
			peak, berr := stop()
			must(t, err)
			must(t, berr)
			if peak > budget+perShard {
				t.Fatalf("sampled resident %d exceeds budget %d + one-shard allowance %d", peak, budget, perShard)
			}
			for _, s := range stats {
				if s.ResidentHighWater > budget+perShard {
					t.Fatalf("epoch %d high-water %d exceeds budget %d + allowance %d",
						s.Epoch, s.ResidentHighWater, budget, perShard)
				}
			}
			must(t, st.LeakCheck())
			if n := st.Outstanding(); n != 0 {
				t.Fatalf("%d references outstanding after training", n)
			}
			if rb := store.ResidentBytes(); rb > budget {
				t.Fatalf("resident %d over budget %d after training", rb, budget)
			}
		})
	}
}

// decodeGetReply decodes a Get reply held in memory, which must be the shard
// args asked for: the checks remoteStore.Load makes on a reply it streams.
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

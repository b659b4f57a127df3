package storage

import (
	"runtime"
	"testing"
	"time"

	"pbg/internal/graph"
)

// budgetSchema has one partitioned type with 4 equal shards so budget math
// is exact: each shard is 5 rows × (dim+1) × 4 bytes.
func budgetSchema(t *testing.T) *graph.Schema {
	t.Helper()
	return graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 20, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
}

// waitUntil spins (yielding) until cond holds; it is a bounded handshake on
// internal state, not a timing assumption — failures mean the condition can
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

func TestDiskStoreBudgetShedsPrefetchHints(t *testing.T) {
	st := newTestDisk(t, "", budgetSchema(t), 8, 1, 1)
	shard := st.shardBytes(0, 0)
	st.SetMaxResidentBytes(2 * shard)
	// Fill the budget with two referenced shards.
	if _, err := st.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	// A hint that does not fit is dropped, not queued.
	st.Prefetch(0, 2)
	io := st.IOStats()
	if io.PrefetchSheds != 1 {
		t.Fatalf("sheds = %d, want 1 (stats %+v)", io.PrefetchSheds, io)
	}
	st.mu.Lock()
	_, cached := st.cache[shardKey{0, 2}]
	st.mu.Unlock()
	if cached {
		t.Fatal("shed hint left a cache entry")
	}
	// The shard is still acquirable as a must-have (over-budget allowance:
	// everything else is referenced).
	if _, err := st.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := st.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreBudgetRetainsCleanShards(t *testing.T) {
	st := newTestDisk(t, "", budgetSchema(t), 8, 1, 1)
	shard := st.shardBytes(0, 0)
	st.SetMaxResidentBytes(4 * shard)
	sh, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh.Row(0)[0] = 42
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	// Budgeted mode retains the written shard as a clean cache entry.
	if st.ResidentBytes() == 0 {
		t.Fatal("budgeted store evicted a shard it had room to retain")
	}
	loadsBefore := st.IOStats().Loads
	again, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Row(0)[0] != 42 {
		t.Fatalf("retained shard lost state: %v", again.Row(0)[0])
	}
	if got := st.IOStats().Loads; got != loadsBefore {
		t.Fatalf("re-acquire of a retained shard hit disk: loads %d -> %d", loadsBefore, got)
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreBudgetForcedEvictionLRU(t *testing.T) {
	st := newTestDisk(t, "", budgetSchema(t), 8, 1, 1)
	shard := st.shardBytes(0, 0)
	st.SetMaxResidentBytes(2 * shard)
	// Leave two clean retained shards: p0 released first (LRU victim).
	for _, p := range []int{0, 1} {
		sh, err := st.Acquire(0, p)
		if err != nil {
			t.Fatal(err)
		}
		sh.Row(0)[0] = float32(10 + p)
		if err := st.Release(0, p); err != nil {
			t.Fatal(err)
		}
		if err := st.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if st.ResidentBytes() != 2*shard {
		t.Fatalf("resident %d, want both shards retained (%d)", st.ResidentBytes(), 2*shard)
	}
	// A must-have for a third shard evicts the least recently released.
	if _, err := st.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	io := st.IOStats()
	if io.ForcedEvicts != 1 {
		t.Fatalf("forced evicts = %d, want 1 (stats %+v)", io.ForcedEvicts, io)
	}
	st.mu.Lock()
	_, p0 := st.cache[shardKey{0, 0}]
	_, p1 := st.cache[shardKey{0, 1}]
	st.mu.Unlock()
	if p0 || !p1 {
		t.Fatalf("LRU eviction wrong: p0 cached=%v p1 cached=%v (want p0 evicted)", p0, p1)
	}
	if st.ResidentBytes() > 2*shard {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes(), 2*shard)
	}
	// The evicted shard reloads from disk with its state intact.
	if err := st.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	back, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Row(0)[0] != 10 {
		t.Fatalf("evicted shard lost state: %v", back.Row(0)[0])
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreBudgetLiveWriteBack pins the no-headroom write path: with a
// budget of exactly one shard there is no room for a write-back snapshot,
// so the write uses the live buffers and a mid-write revival waits for the
// disk write instead of a memcpy — state must survive both ways.
func TestDiskStoreBudgetLiveWriteBack(t *testing.T) {
	st := newTestDisk(t, "", budgetSchema(t), 8, 1, 1)
	st.SetMaxResidentBytes(st.shardBytes(0, 0)) // one shard: snapshot can never fit
	zero, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	zero.Row(0)[0] = 0 // lazy init fills the cell with noise
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sh, err := st.Acquire(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh.Row(0)[0]++
		if err := st.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	sh, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Row(0)[0]; got != 20 {
		t.Fatalf("cell = %v, want 20 (lost updates through live write-back revival)", got)
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStorePrefetchShedJoinedAcquire pins the join-then-shed
// interleaving (the admission-failure path): a prefetch is admitted, an
// Acquire joins the in-flight load, then the budget — consumed meanwhile by
// a must-have — sheds the queued hint when its pool load starts. The joined
// Acquire must retry as a must-have miss and succeed; no loading entry may
// be left stranded in the cache.
func TestDiskStorePrefetchShedJoinedAcquire(t *testing.T) {
	st := newTestDisk(t, "", budgetSchema(t), 8, 1, 1)
	shard := st.shardBytes(0, 0)
	st.SetMaxResidentBytes(shard + shard/2) // fits the hint, not hint + must-have

	gate := make(chan struct{})
	st.testHookPrefetchLoad = func(k shardKey) {
		if k == (shardKey{0, 1}) {
			<-gate // hold the queued hint until the test tightens the budget
		}
	}

	st.Prefetch(0, 1) // admitted: nothing else is resident
	if got := st.IOStats().Admits; got != 1 {
		t.Fatalf("admits = %d, want 1", got)
	}

	// Join the in-flight prefetch from another goroutine.
	type result struct {
		sh  *Shard
		err error
	}
	joined := make(chan result, 1)
	go func() {
		sh, err := st.Acquire(0, 1)
		joined <- result{sh, err}
	}()
	waitUntil(t, func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		e := st.cache[shardKey{0, 1}]
		return e != nil && e.waiters == 1
	})

	// A must-have consumes the budget while the hint sits in the queue.
	// makeRoom must NOT shed the joined hint (a waiter is about to claim
	// it); the must-have runs over budget instead.
	if _, err := st.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}

	close(gate) // the pool load now re-checks admission: over budget → shed

	res := <-joined
	if res.err != nil {
		t.Fatalf("joined Acquire failed after shed: %v", res.err)
	}
	if res.sh == nil || res.sh.Part != 1 {
		t.Fatalf("joined Acquire returned wrong shard: %+v", res.sh)
	}
	io := st.IOStats()
	if io.PrefetchSheds != 1 {
		t.Fatalf("sheds = %d, want 1 (stats %+v)", io.PrefetchSheds, io)
	}
	// No stranded loading entry: the cache holds exactly the two live
	// shards, both resident (ready == nil).
	st.mu.Lock()
	for k, e := range st.cache {
		if e.ready != nil || e.shard == nil {
			t.Errorf("stranded loading entry for %+v", k)
		}
	}
	n := len(st.cache)
	st.mu.Unlock()
	if n != 2 {
		t.Fatalf("cache has %d entries, want 2", n)
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

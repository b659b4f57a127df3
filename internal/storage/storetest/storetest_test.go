package storetest

import (
	"errors"
	"testing"
	"time"

	"pbg/internal/graph"
	"pbg/internal/storage"
)

func harness(t *testing.T) (*Store, *Backend, *storage.Cache) {
	t.Helper()
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 12, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	return NewCache(t, schema, 4, 1)
}

// entry finds shard (0,p) in c's state.
func entry(c *storage.Cache, p int) (storage.EntryState, bool) {
	for _, e := range c.State().Entries {
		if e.Type == 0 && e.Part == p {
			return e, true
		}
	}
	return storage.EntryState{}, false
}

// awaitJoin returns once an Acquire is blocked on shard (0,p)'s load.
func awaitJoin(t *testing.T, c *storage.Cache, p int) {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		if e, ok := entry(c, p); ok && e.Waiters == 1 {
			return
		}
		time.Sleep(10 * time.Microsecond)
	}
	t.Fatal("no Acquire joined the load")
}

func TestEventLogAndLedger(t *testing.T) {
	st, _, _ := harness(t)
	st.Prefetch(0, 1)
	sh, err := st.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sh == nil || sh.Part != 1 {
		t.Fatalf("wrong shard: %+v", sh)
	}
	if st.Refs(0, 1) != 1 || st.Outstanding() != 1 {
		t.Fatalf("ledger wrong: refs=%d outstanding=%d", st.Refs(0, 1), st.Outstanding())
	}
	if err := st.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	k := Key{0, 1}
	if st.FirstIndex(KindPrefetch, k) >= st.FirstIndex(KindAcquire, k) {
		t.Fatal("prefetch not logged before acquire")
	}
	if st.CountEvents(KindEvict, k) != 1 {
		t.Fatal("refcount zero did not log an evict")
	}
	if err := st.Release(0, 1); err == nil {
		t.Fatal("over-release not detected")
	}
}

func TestGateHoldsLoadDeterministically(t *testing.T) {
	st, be, c := harness(t)
	gate := be.GateLoad(0, 2)
	st.Prefetch(0, 2)
	// The cache's load is now blocked on the gate; an Acquire joins it.
	got := make(chan *storage.Shard, 1)
	go func() {
		sh, err := st.Acquire(0, 2)
		if err != nil {
			t.Error(err)
		}
		got <- sh
	}()
	<-gate.Started() // deterministic handshake: the load is stalled
	awaitJoin(t, c, 2)
	select {
	case <-got:
		t.Fatal("Acquire completed while the gate was closed")
	default:
	}
	gate.Open()
	if sh := <-got; sh == nil || sh.Part != 2 {
		t.Fatalf("gated acquire returned wrong shard: %+v", sh)
	}
	if e, _ := entry(c, 2); e.Loading || e.Waiters != 0 || c.IOStats().Loads != 1 {
		t.Fatalf("joined load still pending or loaded twice: %+v, %+v", e, c.IOStats())
	}
	if err := st.Release(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestScriptedErrors(t *testing.T) {
	st, be, c := harness(t)
	boom := errors.New("boom")
	be.FailLoad(0, 0, boom)
	if _, err := st.Acquire(0, 0); !errors.Is(err, boom) {
		t.Fatalf("scripted load error not surfaced: %v", err)
	}
	// Cleared: the retry succeeds, like a DiskStore load retry.
	be.FailLoad(0, 0, nil)
	//lint:ignore pairedrelease the scripted FailLoad above makes the first Acquire fail (holding nothing); this retry is paired with the Release below and LeakCheck verifies the balance
	if _, err := st.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	wb := errors.New("write-back failed")
	be.FailStore(0, 0, wb)
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err) // the write runs after Release returns
	}
	if err := c.Drain(); !errors.Is(err, wb) {
		t.Fatalf("scripted write-back error not surfaced: %v", err)
	}
	// The refcount was still decremented (the cache's sticky-error shape).
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// The failed write kept the shard; Flush retries it.
	be.FailStore(0, 0, nil)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchErrorSurfacesAtJoin(t *testing.T) {
	st, be, c := harness(t)
	boom := errors.New("load failed")
	gate := be.GateLoad(0, 3)
	be.FailLoad(0, 3, boom)
	st.Prefetch(0, 3)
	joined := make(chan error, 1)
	go func() {
		_, err := st.Acquire(0, 3)
		joined <- err
	}()
	awaitJoin(t, c, 3)
	gate.Open()
	if err := <-joined; !errors.Is(err, boom) {
		t.Fatalf("prefetch load error not observed by the joined Acquire: %v", err)
	}
	// The failed load evaporated; a retry succeeds.
	if _, ok := entry(c, 3); ok {
		t.Fatal("a failed load left its entry behind")
	}
	be.FailLoad(0, 3, nil)
	//lint:ignore pairedrelease the scripted FailLoad makes the prefetched Acquire above fail (holding nothing); this retry is paired with the Release below
	if _, err := st.Acquire(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Release(0, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPassthroughForwardsHints(t *testing.T) {
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 12, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	ds := NewDisk(t, "", schema, 4, 1, 1)
	st := New(ds)
	st.Prefetch(0, 0) // must reach the DiskStore's background machinery
	sh, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Part != 0 {
		t.Fatalf("wrong shard: %+v", sh)
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ds.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := ds.IOStats().Loads; got != 1 {
		t.Fatalf("inner store loads = %d, want 1 (hint + join, no double load)", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

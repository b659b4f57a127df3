package storetest

import (
	"errors"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/storage"
)

func harness(t *testing.T) (*Store, *storage.MemStore) {
	t.Helper()
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 12, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	mem := storage.NewMemStore(schema, 4, 1, 1)
	return New(mem), mem
}

func TestEventLogAndLedger(t *testing.T) {
	st, _ := harness(t)
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
	st, _ := harness(t)
	gate := st.GateLoad(0, 2)
	st.Prefetch(0, 2)
	// The emulated load is now blocked on the gate; an Acquire joins it.
	got := make(chan *storage.Shard, 1)
	go func() {
		sh, err := st.Acquire(0, 2)
		if err != nil {
			t.Error(err)
		}
		got <- sh
	}()
	<-gate.Started() // deterministic handshake: the load is stalled
	select {
	case <-got:
		t.Fatal("Acquire completed while the gate was closed")
	default:
	}
	gate.Open()
	if sh := <-got; sh == nil || sh.Part != 2 {
		t.Fatalf("gated acquire returned wrong shard: %+v", sh)
	}
	if st.PendingLoads() != 0 {
		t.Fatal("consumed load still pending")
	}
	if err := st.Release(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestScriptedErrors(t *testing.T) {
	st, _ := harness(t)
	boom := errors.New("boom")
	st.FailAcquire(0, 0, boom)
	if _, err := st.Acquire(0, 0); !errors.Is(err, boom) {
		t.Fatalf("scripted acquire error not surfaced: %v", err)
	}
	// One-shot: the retry succeeds, like a DiskStore load retry.
	//lint:ignore pairedrelease the scripted FailAcquire above makes the first Acquire fail (holding nothing); this retry is paired with the Release below and LeakCheck verifies the balance
	if _, err := st.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	wb := errors.New("write-back failed")
	st.FailRelease(0, 0, wb)
	if err := st.Release(0, 0); !errors.Is(err, wb) {
		t.Fatalf("scripted release error not surfaced: %v", err)
	}
	// The refcount was still decremented (DiskStore's sticky-error shape).
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchErrorSurfacesAtJoin(t *testing.T) {
	st, _ := harness(t)
	boom := errors.New("load failed")
	st.FailAcquire(0, 3, boom)
	st.Prefetch(0, 3)
	if _, err := st.Acquire(0, 3); !errors.Is(err, boom) {
		t.Fatalf("prefetch load error not observed by the joined Acquire: %v", err)
	}
	// The failed load evaporated; a retry succeeds.
	//lint:ignore pairedrelease the scripted FailAcquire makes the prefetched Acquire above fail (holding nothing); this retry is paired with the Release below
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
	st := NewPassthrough(ds)
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

package storage

import (
	"testing"

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

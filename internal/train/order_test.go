package train

import (
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// checkInvariant reports whether every bucket after the first touches a
// partition an earlier bucket touched: §4.1's alignment condition, as
// partition's tests check it.
func checkInvariant(order []partition.Bucket) bool {
	seen := map[int]bool{}
	for i, b := range order {
		if i > 0 && !seen[b.P1] && !seen[b.P2] {
			return false
		}
		seen[b.P1] = true
		seen[b.P2] = true
	}
	return true
}

// orderTestTrainer builds a trainer over an 8-partition social graph with
// the given order and budget (0 = unbudgeted), against a MemStore (these
// tests exercise order construction, not I/O).
func orderTestTrainer(t *testing.T, order string, budgetShards int) *Trainer {
	t.Helper()
	const nodes, parts, dim = 4000, 8, 16
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: nodes, AvgOutDegree: 4, NumPartitions: parts, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dim: dim, Seed: 3, BucketOrder: order, Epochs: 1}
	if budgetShards > 0 {
		cfg.MemBudgetBytes = int64(budgetShards) * storage.ProjectedShardBytes(g.Schema, dim, 0, 0)
	}
	tr, err := New(g, storage.NewMemStore(g.Schema, dim, 7, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBudgetAwareOrderUsesBudgetSlots(t *testing.T) {
	// Budget of 5 shards: one is the in-flight allowance, leaving 4 buffer
	// slots for the single partitioned entity type.
	tr := orderTestTrainer(t, partition.OrderBudgetAware, 5)
	if got := tr.BufferSlots(); got != 4 {
		t.Fatalf("BufferSlots = %d, want 4", got)
	}
	slots := tr.BufferSlots()
	io, _ := partition.Order(partition.OrderInsideOut, 8, 8, 0)
	ioCost := partition.SwapCostUnderBuffer(io, slots)
	baCost := partition.SwapCostUnderBuffer(tr.Buckets(), slots)
	t.Logf("slots=%d: inside_out %d loads, trainer order %d loads", slots, ioCost, baCost)
	if baCost >= ioCost {
		t.Fatalf("budget_aware trainer order costs %d loads, inside_out %d", baCost, ioCost)
	}
	if !checkInvariant(tr.Buckets()) {
		t.Fatal("trainer order violates the initialisation invariant")
	}
}

func TestBudgetAwareOrderDegradesWithoutBudget(t *testing.T) {
	tr := orderTestTrainer(t, partition.OrderBudgetAware, 0)
	if got := tr.BufferSlots(); got != 0 {
		t.Fatalf("BufferSlots = %d without a budget, want 0", got)
	}
	io, _ := partition.Order(partition.OrderInsideOut, 8, 8, 0)
	for i, b := range tr.Buckets() {
		if b != io[i] {
			t.Fatalf("unbudgeted budget_aware order diverges from inside_out at %d: %v vs %v", i, b, io[i])
		}
	}
}

func TestBudgetAwareOrderTrains(t *testing.T) {
	tr := orderTestTrainer(t, partition.OrderBudgetAware, 5)
	st, err := tr.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 || st.Loss == 0 {
		t.Fatalf("epoch trained nothing: %+v", st)
	}
	// Every bucket of the 8×8 grid must still be visited exactly once.
	if len(tr.Buckets()) != 64 {
		t.Fatalf("order has %d buckets, want 64", len(tr.Buckets()))
	}
}

// TestPlannedOrderForcesNoMoreEvictions is the measured half of the planned
// order's claim: on a DiskStore whose budget affords 3, 4 and 6 partition
// slots, training on the plan forces no more evictions than training
// inside-out at the same budgets (summed over the three, to damp prefetch
// timing in any one cell). The projected half is partition's
// TestBudgetAwareBeatsInsideOut8x8Buffer3 and TestPlanBudgetAwareGolden.
func TestPlannedOrderForcesNoMoreEvictions(t *testing.T) {
	const parts, dim = 8, 16
	g, err := datagen.Social(datagen.SocialConfig{Nodes: 2000, AvgOutDegree: 8, NumPartitions: parts, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// One slot is one shard of the single entity type, plus the in-flight
	// allowance the slot pricing sets aside.
	perShard := storage.ProjectedShardBytes(g.Schema, dim, 0, 0)
	evicts := map[string]int64{}
	for _, slots := range []int{3, 4, 6} {
		for _, order := range []string{partition.OrderInsideOut, ""} {
			store := storetest.NewDisk(t, "", g.Schema, dim, 8, 1)
			tr, err := New(g, store, Config{
				Dim: dim, Epochs: 1, Workers: 1, Seed: 7,
				BucketOrder: order, MemBudgetBytes: int64(slots+1) * perShard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.BufferSlots(); got != slots {
				t.Fatalf("trainer priced %d buffer slots, want %d", got, slots)
			}
			if _, err := tr.Train(nil); err != nil {
				t.Fatal(err)
			}
			evicts[order] += store.IOStats().ForcedEvicts
		}
	}
	t.Logf("forced evictions over 3/4/6 slots: inside_out %d, planned %d", evicts[partition.OrderInsideOut], evicts[""])
	if evicts[""] > evicts[partition.OrderInsideOut] {
		t.Fatalf("the planned order forced %d evictions, inside_out %d", evicts[""], evicts[partition.OrderInsideOut])
	}
}

// TestBucketOrderSpellings pins the three accepted BucketOrder values: ""
// is the planned order, "inside_out" is Figure 1's order under any budget,
// and the deleted orderings are refused rather than ignored.
func TestBucketOrderSpellings(t *testing.T) {
	planned := orderTestTrainer(t, partition.OrderBudgetAware, 5).Buckets()
	def := orderTestTrainer(t, "", 5).Buckets()
	io, _ := partition.Order(partition.OrderInsideOut, 8, 8, 0)
	pinned := orderTestTrainer(t, partition.OrderInsideOut, 5).Buckets()
	for i := range io {
		if def[i] != planned[i] {
			t.Fatalf("default order diverges from the planned one at %d", i)
		}
		if pinned[i] != io[i] {
			t.Fatalf("inside_out under a budget diverges from inside-out at %d", i)
		}
	}
	g := smallSocial(t, 2)
	for _, name := range []string{"sequential", "random", "chained"} {
		if _, err := New(g, storage.NewMemStore(g.Schema, 8, 1, 1), Config{Dim: 8, BucketOrder: name}); err == nil {
			t.Errorf("BucketOrder %q accepted", name)
		}
	}
}

// BufferSlots reports how many resident partition slots the configured
// memory budget affords (0 = unbudgeted): the capacity the planned order
// optimises against.
func (t *Trainer) BufferSlots() int {
	return BufferSlotsFor(t.g.Schema, t.cfg.Dim, t.cfg.MemBudgetBytes, storage.CodecFP32)
}

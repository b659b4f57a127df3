package train

// Property coverage for the memory budget (run under -race in CI): across
// randomized schemas, both bucket orders, budgets — which set the prefetch
// depth the controller starts at and may widen to — and shard codecs, the
// store's resident bytes never exceed MaxResidentBytes plus the single
// in-flight shard allowance, and every acquired shard is eventually
// released. The invariant is observed two ways at once: storetest.WatchBudget
// hammering the cache's State while epochs run (so transients — prefetch
// projections, write-backs in flight — cannot hide between samples; each
// sample must also pass storetest.CheckBudget), and the per-epoch
// ResidentHighWater the executor records. internal/dist runs the same
// property over the partition-server backend
// (TestCacheBudgetInvariantProperty).

import (
	"fmt"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/partition"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

func TestPipelineBudgetInvariantProperty(t *testing.T) {
	orders := []string{partition.OrderInsideOut, partition.OrderBudgetAware}
	cases := 6
	if testing.Short() {
		cases = 3
	}
	r := rng.New(99)
	for i := 0; i < cases; i++ {
		parts := []int{2, 4, 8}[r.Intn(3)]
		order := orders[r.Intn(len(orders))]
		codec := storage.Codecs()[r.Intn(len(storage.Codecs()))]
		const nodes, dim = 240, 8
		// A bucket's working set is two shards; budgets below that would
		// legitimately run over (referenced shards cannot be evicted), so
		// randomize from the working set upward — priced through the case's
		// codec, the same currency admission charges. Two shards hold the
		// depth at 0, larger budgets let it start at 1 and widen; the last
		// case is unbounded (depth 1, fixed).
		shardMult := int64(2 + r.Intn(5))
		if i == cases-1 {
			shardMult = 0
		}
		name := fmt.Sprintf("parts=%d/order=%s/codec=%s/budget=%dx", parts, order, codec, shardMult)
		t.Run(name, func(t *testing.T) {
			g, err := datagen.Social(datagen.SocialConfig{
				Nodes: nodes, AvgOutDegree: 4, NumPartitions: parts, Seed: uint64(31 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
			perShard := storage.ProjectedShardBytesCodec(g.Schema, dim, 0, 0, codec)
			budget := shardMult * perShard
			ds := storetest.NewDisk(t, "", g.Schema, dim, 7, 1)
			st := storetest.New(ds)
			tr, err := New(g, st, Config{
				Dim: dim, Epochs: 2, Seed: uint64(5 + i), Workers: 2, HogwildOff: true,
				BucketOrder: order, MemBudgetBytes: budget, Codec: codec.String(),
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := storetest.WatchBudget(ds.Cache)
			stats, err := tr.Train(nil)
			peak, berr := stop()
			if err != nil {
				t.Fatal(err)
			}
			if berr != nil {
				t.Fatal(berr)
			}
			if err := ds.Drain(); err != nil {
				t.Fatal(err)
			}
			if budget > 0 {
				if peak > budget+perShard {
					t.Fatalf("sampled resident %d exceeds budget %d + one-shard allowance %d", peak, budget, perShard)
				}
				for _, s := range stats {
					if s.ResidentHighWater > budget+perShard {
						t.Fatalf("epoch %d high-water %d exceeds budget %d + allowance %d",
							s.Epoch, s.ResidentHighWater, budget, perShard)
					}
				}
			}
			// No leaks: every acquired shard was released, nothing pending.
			if err := st.LeakCheck(); err != nil {
				t.Fatal(err)
			}
			if n := st.Outstanding(); n != 0 {
				t.Fatalf("%d references outstanding after training", n)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

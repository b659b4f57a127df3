package storage

import (
	"fmt"
	"testing"

	"pbg/internal/rng"
)

// TestBudgetedCacheMatchesModel drives a budgeted write-back cache with
// random Acquire/mutate/Release/Prefetch/Flush sequences against an
// in-memory model of what every shard's first cell should hold. At every
// step the admission measure stays within the budget plus the one shard a
// must-have may run over by, and what an Acquire returns is what the model
// says; after Drain every shard file equals the model.
func TestBudgetedCacheMatchesModel(t *testing.T) {
	const parts = 8
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			r := rng.New(uint64(100 + round))
			slots := int64(2 + r.Intn(3))
			c, files := newRecordingCache(t, partitionedSchema(8*parts, parts), slots)
			shard := c.shardBytes(0, 0)
			model := map[int]float32{} // cells written so far
			touched := map[int]bool{}  // shards whose cell the test has set
			held := map[int]*Shard{}   // at most 3 at a time: budget + one shard at worst
			check := func(step int) {
				st := c.State()
				if st.Accounted > st.Budget+shard {
					t.Fatalf("step %d: accounted %d exceeds budget %d + one shard %d", step, st.Accounted, st.Budget, shard)
				}
				if st.Accounted < st.Resident {
					t.Fatalf("step %d: accounted %d < resident %d", step, st.Accounted, st.Resident)
				}
			}
			for step := 0; step < 400; step++ {
				p := r.Intn(parts)
				switch op := r.Intn(10); {
				case op < 4 && held[p] == nil && len(held) < 3:
					sh, err := c.Acquire(0, p)
					if err != nil {
						t.Fatal(err)
					}
					if touched[p] && sh.Row(0)[0] != model[p] {
						t.Fatalf("step %d: shard %d cell = %v, model says %v", step, p, sh.Row(0)[0], model[p])
					}
					held[p] = sh
				case op < 4 && held[p] != nil:
					model[p] = float32(step)
					touched[p] = true
					held[p].Row(0)[0] = model[p]
				case op < 7 && held[p] != nil:
					delete(held, p)
					if err := c.Release(0, p); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					c.Prefetch(0, p)
				case len(held) == 0:
					// Flush stores referenced shards from their live buffers, so
					// the test only checkpoints while it holds nothing.
					if err := c.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				check(step)
			}
			for p := range held {
				if err := c.Release(0, p); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < parts; p++ {
				if !touched[p] {
					continue
				}
				if got := files.durableCell(t, p); got != model[p] {
					t.Fatalf("after Drain shard %d's file holds %v, model says %v", p, got, model[p])
				}
			}
		})
	}
}

// TestPlanReplayWritesOncePerEviction replays social_ooc's swap plan (P=16,
// 6 shards of budget, budget_aware, lookahead 2) and pins the write rule as
// a count: nothing is written but what left memory or was dirty at Drain.
// The only way Writes could exceed that sum is a clean ahead of need that
// was wasted — its shard re-acquired before it was evicted; on this plan
// there is none. (A plan priced for all six slots leaves the LRU shard due
// back before the next miss about one time in three.)
func TestPlanReplayWritesOncePerEviction(t *testing.T) {
	c, _ := newRecordingCache(t, partitionedSchema(16*oocParts, oocParts), oocSlots)
	order := oocPlan(t)
	const epochs = 3
	cell := float32(0)
	for e := 0; e < epochs; e++ {
		if err := replayEpoch(c, order, oocLookahead, func(sh *Shard) { cell++; sh.Row(0)[0] = cell }); err != nil {
			t.Fatal(err)
		}
	}
	dirtyAtDrain := int64(0)
	for _, e := range c.State().Entries {
		if e.Dirty && e.Refs == 0 {
			dirtyAtDrain++
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	io := c.IOStats()
	t.Logf("epochs %d: loads %d, writes %d, forced evicts %d, dirty at Drain %d, clean waits %d, sheds %d",
		epochs, io.Loads, io.Writes, io.ForcedEvicts, dirtyAtDrain, io.CleanWaits, io.PrefetchSheds)
	if want := io.ForcedEvicts + dirtyAtDrain; io.Writes != want {
		t.Fatalf("writes = %d, want forced evicts %d + dirty at Drain %d = %d", io.Writes, io.ForcedEvicts, dirtyAtDrain, want)
	}
}

package storage

import "testing"

// A prefetch hint the budget cannot fit evicts an idle clean shard before
// it is shed — never a dirty one, and never one a hint is pending on.

// cleanPair leaves shards 0 and 1 of a 2-shard budget resident, idle and
// clean, p0 the least recently used, with cells 10 and 11 on the backend.
func cleanPair(t *testing.T) (*Cache, *recordingFiles) {
	t.Helper()
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 10)
	setCell(t, c, 1, 11)
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if e := stateOf(t, c, p); !e.Clean || e.Refs != 0 {
			t.Fatalf("shard %d is %+v, want idle and clean", p, e)
		}
	}
	return c, files
}

func cached(c *Cache, p int) bool {
	for _, e := range c.State().Entries {
		if e.Type == 0 && e.Part == p {
			return true
		}
	}
	return false
}

// TestHintEvictsIdleCleanShard: the hint is admitted by evicting the least
// recently used idle clean shard, with no write, where it used to be shed.
func TestHintEvictsIdleCleanShard(t *testing.T) {
	c, files := cleanPair(t)
	stores := len(files.stores())
	c.Prefetch(0, 2)
	if io := c.IOStats(); io.PrefetchSheds != 0 || io.ForcedEvicts != 1 {
		t.Fatalf("stats %+v, want the hint admitted by one eviction", io)
	}
	if cached(c, 0) || !cached(c, 1) || !cached(c, 2) {
		t.Fatalf("cached p0 %v p1 %v p2 %v, want p0 evicted for the hint", cached(c, 0), cached(c, 1), cached(c, 2))
	}
	if got := len(files.stores()); got != stores {
		t.Fatalf("evicting a clean shard stored %d shards", got-stores)
	}
	if _, err := c.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := files.durableCell(t, 0); got != 10 {
		t.Fatalf("the evicted shard's file holds %v, want 10", got)
	}
}

// TestHintSparesPendingHints: hints never displace hints. A clean shard
// hinted again stays although it is the least recently used, and once every
// idle clean shard is a pending hint the next hint is shed.
func TestHintSparesPendingHints(t *testing.T) {
	c, _ := cleanPair(t)
	c.Prefetch(0, 0) // resident: marks p0 as a pending hint, loads nothing
	c.Prefetch(0, 2)
	if cached(c, 1) || !cached(c, 0) {
		t.Fatalf("cached p0 %v p1 %v, want p1 evicted and the re-hinted p0 kept", cached(c, 0), cached(c, 1))
	}
	eventually(t, func() bool { return !stateOf(t, c, 2).Loading })
	c.Prefetch(0, 3) // p0 re-hinted, p2 prefetched and not acquired: nothing to evict
	if io := c.IOStats(); io.PrefetchSheds != 1 || io.ForcedEvicts != 1 || cached(c, 3) {
		t.Fatalf("stats %+v, p3 cached %v: want the third hint shed", io, cached(c, 3))
	}
	// An Acquire consumes the hint: released and clean again, p0 may go.
	if _, err := c.Acquire(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	c.Prefetch(0, 3)
	if cached(c, 0) || !cached(c, 3) {
		t.Fatalf("cached p0 %v p3 %v, want p0 evicted once its hint was consumed", cached(c, 0), cached(c, 3))
	}
}

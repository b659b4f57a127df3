package storage

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The dirty-idle state of a budgeted write-back cache, pinned over the real
// files backend with its Store calls recorded (and, where a test needs a
// write held in flight or failed, hooked).

func stateOf(t *testing.T, c *Cache, p int) EntryState {
	t.Helper()
	for _, e := range c.State().Entries {
		if e.Type == 0 && e.Part == p {
			return e
		}
	}
	t.Fatalf("shard (0,%d) is not cached", p)
	return EntryState{}
}

// setCell acquires shard p, sets its first cell and releases it.
func setCell(t *testing.T, c *Cache, p int, v float32) {
	t.Helper()
	sh, err := c.Acquire(0, p)
	if err != nil {
		t.Fatal(err)
	}
	sh.Row(0)[0] = v
	if err := c.Release(0, p); err != nil {
		t.Fatal(err)
	}
}

func eventually(t *testing.T, cond func() bool) {
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

func TestBudgetedReleaseStoresNothing(t *testing.T) {
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 42)
	if got := files.stores(); len(got) != 0 {
		t.Fatalf("a Release inside the budget stored %v", got)
	}
	if e := stateOf(t, c, 0); !e.Dirty || e.Clean || e.Writing || e.Refs != 0 {
		t.Fatalf("released shard is %+v, want dirty and idle", e)
	}
	if io := c.IOStats(); io.Writes != 0 {
		t.Fatalf("writes = %d, want 0", io.Writes)
	}
	// Drain is what makes "nobody holds it" mean "it is on the backend".
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := files.stores(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Drain stored %v, want [0]", got)
	}
	if e := stateOf(t, c, 0); !e.Clean || e.Dirty {
		t.Fatalf("drained shard is %+v, want clean", e)
	}
	if got := files.durableCell(t, 0); got != 42 {
		t.Fatalf("durable cell = %v, want 42", got)
	}
	// A second Drain has nothing left to write.
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if io := c.IOStats(); io.Writes != 1 {
		t.Fatalf("writes = %d after two Drains, want 1", io.Writes)
	}
}

func TestEvictDirtyStoresFirst(t *testing.T) {
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 10)
	setCell(t, c, 1, 11)
	// The miss needs a victim: p0, least recently released, and dirty — so
	// it is written, then evicted; p1 is not touched.
	if _, err := c.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := files.stores(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("eviction stored %v, want [0]", got)
	}
	if io := c.IOStats(); io.Writes != 1 || io.ForcedEvicts != 1 || io.CleanWaits != 1 {
		t.Fatalf("stats %+v, want 1 write, 1 forced evict, 1 clean wait", io)
	}
	if e := stateOf(t, c, 1); !e.Dirty {
		t.Fatalf("p1 is %+v, want still dirty", e)
	}
	if err := c.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	// The reload sees the update; its own victim is p1.
	sh, err := c.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Row(0)[0]; got != 10 {
		t.Fatalf("reloaded cell = %v, want 10", got)
	}
	if got := files.stores(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("stores %v, want [0 1]", got)
	}
	if err := c.Release(0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRevivedDuringCleanStaysDirty: a shard re-acquired while its clean is
// in flight, mutated and released must not be marked clean by the landing
// write — its next eviction stores the newer bytes.
func TestRevivedDuringCleanStaysDirty(t *testing.T) {
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 1)
	if _, err := c.Acquire(0, 1); err != nil { // p1 stays held: the cache is full
		t.Fatal(err)
	}
	started, open := make(chan struct{}), make(chan struct{})
	files.setHook(func(*Shard) error {
		close(started)
		<-open
		return nil
	})
	// A hint the budget refuses starts the clean of the LRU dirty shard.
	c.Prefetch(0, 2)
	<-started
	files.setHook(nil)
	if io := c.IOStats(); io.PrefetchSheds != 1 {
		t.Fatalf("sheds = %d, want 1", io.PrefetchSheds)
	}
	revived := make(chan *Shard, 1)
	go func() {
		sh, err := c.Acquire(0, 0)
		if err != nil {
			t.Error(err)
		}
		revived <- sh
	}()
	eventually(t, func() bool { e := stateOf(t, c, 0); return e.Refs == 1 && e.Writing })
	select {
	case <-revived:
		t.Fatal("revival returned while the write still held the live buffers")
	default:
	}
	close(open)
	sh := <-revived
	sh.Row(0)[0] = 2
	if err := c.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if e := stateOf(t, c, 0); e.Clean || !e.Dirty || e.Writing {
		t.Fatalf("revived shard is %+v after the clean landed, want dirty", e)
	}
	if got := files.durableCell(t, 0); got != 1 {
		t.Fatalf("durable cell = %v, want the pre-revival 1", got)
	}
	if io := c.IOStats(); io.CleanWaits != 1 {
		t.Fatalf("clean waits = %d, want 1 (the revival)", io.CleanWaits)
	}
	if err := c.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(0, 2); err != nil { // evicts p0 again
		t.Fatal(err)
	}
	if got := files.stores(); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Fatalf("stores %v, want [0 0]", got)
	}
	if got := files.durableCell(t, 0); got != 2 {
		t.Fatalf("durable cell = %v, want 2", got)
	}
	if err := c.Release(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFailedCleanKeepsShardAndFlushRetries(t *testing.T) {
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 5)
	setCell(t, c, 1, 6)
	boom := errors.New("disk full")
	files.setHook(func(sh *Shard) error {
		if sh.Part == 0 {
			return boom
		}
		return nil
	})
	// The victim's write fails: the shard must stay (it is the only current
	// copy) and the must-have runs over budget rather than spin on it.
	if _, err := c.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	if e := stateOf(t, c, 0); !e.Dirty || e.Writing {
		t.Fatalf("shard whose clean failed is %+v, want resident and dirty", e)
	}
	if err := c.Release(0, 2); !errors.Is(err, boom) {
		t.Fatalf("Release after a failed clean returned %v, want the sticky error", err)
	}
	if err := c.Drain(); !errors.Is(err, boom) {
		t.Fatalf("Drain returned %v, want the sticky error", err)
	}
	files.setHook(nil)
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush retrying the failed write: %v", err)
	}
	if got := files.durableCell(t, 0); got != 5 {
		t.Fatalf("durable cell = %v after Flush, want 5", got)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("Drain after a successful Flush: %v", err)
	}
}

// TestFlushMarksIdleShardsClean: a checkpoint is not followed by a second
// write of the same bytes when the shard is evicted.
func TestFlushMarksIdleShardsClean(t *testing.T) {
	c, files := newRecordingCache(t, budgetSchema(t), 2)
	setCell(t, c, 0, 7)
	held, err := c.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	held.Row(0)[0] = 8
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if e := stateOf(t, c, 0); !e.Clean {
		t.Fatalf("flushed idle shard is %+v, want clean", e)
	}
	if e := stateOf(t, c, 1); e.Clean {
		t.Fatalf("flushed shard still in use is %+v, want not clean", e)
	}
	before := len(files.stores())
	if _, err := c.Acquire(0, 2); err != nil { // evicts p0, for free
		t.Fatal(err)
	}
	if got := len(files.stores()); got != before {
		t.Fatalf("evicting a flushed shard stored it again (%v)", files.stores())
	}
	for _, p := range []int{1, 2} {
		if err := c.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseWithDirtyShardsLosesNothing(t *testing.T) {
	dir := t.TempDir()
	st := newTestDisk(t, dir, budgetSchema(t), 8, 1, 1)
	st.SetMaxResidentBytes(3 * st.shardBytes(0, 0))
	for p := 0; p < 3; p++ {
		setCell(t, st.Cache, p, float32(20+p))
	}
	if io := st.IOStats(); io.Writes != 0 {
		t.Fatalf("writes = %d before Close, want 0", io.Writes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		sh, err := ReadShard(ShardPath(dir, 0, p))
		if err != nil {
			t.Fatal(err)
		}
		if got := sh.Row(0)[0]; got != float32(20+p) {
			t.Fatalf("shard %d cell = %v after Close, want %v", p, got, 20+p)
		}
	}
}

package storage

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// freeList returns a copy of the cache's free list.
func freeList(c *Cache) []*Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Shard(nil), c.free...)
}

// TestRecycleOnlyWhenShardIsDead pins the one moment a shard joins the
// cache's free list. A write-through Release stores the shard and drops the
// entry — but an Acquire that arrives mid-store revives the entry, and that
// shard is the reviver's, not the free list's: only dropLocked, deleting an
// entry with no reference left, may free it. Every later load decodes into
// what was freed.
func TestRecycleOnlyWhenShardIsDead(t *testing.T) {
	schema := budgetSchema(t)
	const dim = 8
	files := &recordingFiles{shardFiles: &shardFiles{dir: t.TempDir(), schema: schema, dim: dim, seed: 1, scale: 1}}
	c := NewCache(files, WriteThrough, schema, dim, newDiskMetrics)
	t.Cleanup(func() { _ = c.Close() }) // nothing resident by then

	sh, err := c.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	started, open := make(chan struct{}), make(chan struct{})
	files.setHook(func(*Shard) error {
		close(started)
		<-open
		return nil
	})
	released := make(chan error, 1)
	go func() { released <- c.Release(0, 0) }()
	<-started
	files.setHook(nil)
	revived := make(chan *Shard, 1)
	go func() {
		again, err := c.Acquire(0, 0)
		if err != nil {
			t.Error(err)
		}
		revived <- again
	}()
	eventually(t, func() bool { e := stateOf(t, c, 0); return e.Refs == 1 && e.Writing })
	close(open)
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if again := <-revived; again != sh {
		t.Fatal("revival handed out a different shard")
	}
	if free := freeList(c); len(free) != 0 {
		t.Fatalf("a shard revived during its store was freed: %d on the free list", len(free))
	}
	// Now it really goes: stored, dropped with no reference, freed once.
	if err := c.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if free := freeList(c); len(free) != 1 || free[0] != sh {
		t.Fatalf("free list %v after the last release, want exactly the released shard", free)
	}
	// The next load — a lazy init here — decodes into it, overwriting it whole.
	next, err := c.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := files.shardFiles.Load(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != sh || len(freeList(c)) != 0 {
		t.Fatal("the next load did not take the freed shard")
	}
	if LayoutOf(next, CodecFP32) != LayoutOf(want, CodecFP32) || !sameBits(next.Embs, want.Embs) || !sameBits(next.Acc, want.Acc) {
		t.Fatal("a load into a freed shard differs from a load into a fresh one")
	}
	if err := c.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	// A prefetched shard nobody acquired is dropped clean by the budget's
	// evictor: dead as well, and the must-have's load decodes into it.
	c.SetMaxResidentBytes(c.shardBytes(0, 0))
	c.Prefetch(0, 2)
	eventually(t, func() bool { return stateOf(t, c, 2).Clean })
	got, err := c.Acquire(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != sh || got.Part != 3 || len(freeList(c)) != 0 {
		t.Fatal("evicting a clean prefetched shard did not hand its buffers to the next load")
	}
	if err := c.Release(0, 3); err != nil {
		t.Fatal(err)
	}
}

// bytesPerOp is the fewest bytes allocated per call of op over five windows
// of n calls. The op's own allocations land in every window; what the rest
// of the process allocates meanwhile lands in some, so the minimum is the
// op's.
func bytesPerOp(n int, op func(i int)) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for w := 0; w < 5; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			op(i)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/uint64(n))
	}
	return best
}

// TestDiskLoadSteadyStateAllocs is the files backend's twin of dist's
// TestSwapSteadyStateAllocs, at benchmark/'s social_ooc shape: 16
// partitions of 3 000 × 128 under a 6-shard budget, cycled so that every
// Acquire misses and evicts a dirty shard. Once warm, each load decodes into
// the shard its eviction freed, so a load + write cycle allocates only file
// and call bookkeeping — a fresh shard is 1.5 MB.
func TestDiskLoadSteadyStateAllocs(t *testing.T) {
	const parts, dim = 16, 128
	st := newTestDisk(t, "", partitionedSchema(parts*3000, parts), dim, 1, 1)
	st.SetMaxResidentBytes(6 * st.shardBytes(0, 0))
	cycle := func(i int) {
		p := i % parts
		sh, err := st.Acquire(0, p)
		if err != nil {
			t.Fatal(err)
		}
		sh.Row(0)[0]++
		if err := st.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*parts; i++ { // warm-up: every file written, the free list filled
		cycle(i)
	}
	if got := bytesPerOp(parts, cycle); got >= 16<<10 {
		t.Fatalf("a warm load + write cycle allocates %d bytes, want < 16 KiB (shard: %d bytes)", got, st.shardBytes(0, 0))
	}
}

// TestStreamingPairOnBigEndianPath forces the byte-order-independent path a
// big-endian host takes and holds both halves of the streaming pair to the
// little-endian fast path: the same image out, the same floats in — into a
// recycled shard included.
func TestStreamingPairOnBigEndianPath(t *testing.T) {
	sh := NewShard(2, 3, 37, 5)
	for i := range sh.Embs {
		sh.Embs[i] = float32(i)*0.37 - 9
	}
	for i := range sh.Acc {
		sh.Acc[i] = float32(i) + 0.5
	}
	for _, codec := range Codecs() {
		l := LayoutOf(sh, codec)
		fast, err := l.Encode(sh)
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.Decode(fast)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
			hostLittleEndian = false
			var portable bytes.Buffer
			if err := l.EncodeTo(&portable, sh); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(portable.Bytes(), fast) {
				t.Fatalf("%v: portable EncodeTo and the fast path wrote different images", codec)
			}
			// A larger dead shard full of other floats: reused, and overwritten whole.
			reuse := NewShard(0, 0, 50, 5)
			for i := range reuse.Embs {
				reuse.Embs[i] = -1
			}
			got, err := l.DecodeInto(bytes.NewReader(fast[l.HeaderBytes():]), reuse)
			if err != nil {
				t.Fatal(err)
			}
			if got != reuse {
				t.Fatalf("%v: DecodeInto did not reuse a shard that was large enough", codec)
			}
			if LayoutOf(got, codec) != l || !sameBits(got.Embs, want.Embs) || !sameBits(got.Acc, want.Acc) {
				t.Fatalf("%v: portable DecodeInto read a different shard", codec)
			}
		}()
		small := NewShard(0, 0, 3, 5)
		got, err := l.DecodeInto(bytes.NewReader(fast[l.HeaderBytes():]), small)
		if err != nil {
			t.Fatal(err)
		}
		if got == small || !sameBits(got.Embs, want.Embs) {
			t.Fatalf("%v: DecodeInto reused a shard that was too small", codec)
		}
	}
}

package storage

import (
	"bytes"
	"sync"
	"testing"
)

// recyclingFiles is a shard-file backend that also takes dead shards back,
// the way the partition-server checkout store does.
type recyclingFiles struct {
	*recordingFiles
	mu       sync.Mutex
	recycled []*Shard
}

func (r *recyclingFiles) Recycle(sh *Shard) {
	r.mu.Lock()
	r.recycled = append(r.recycled, sh)
	r.mu.Unlock()
}

func (r *recyclingFiles) dead() []*Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Shard(nil), r.recycled...)
}

// TestRecycleOnlyWhenShardIsDead pins the one moment a backend gets a shard
// back. A write-through Release stores the shard and drops the entry — but an
// Acquire that arrives mid-store revives the entry, and that shard is the
// reviver's, not the backend's: the hook must fire only when the entry is
// deleted with no reference left.
func TestRecycleOnlyWhenShardIsDead(t *testing.T) {
	schema := budgetSchema(t)
	const dim = 8
	files := &recyclingFiles{recordingFiles: &recordingFiles{shardFiles: &shardFiles{dir: t.TempDir(), schema: schema, dim: dim, seed: 1, scale: 1}}}
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
	if dead := files.dead(); len(dead) != 0 {
		t.Fatalf("a shard revived during its store was recycled: %d recycled", len(dead))
	}
	// Now it really goes: stored, dropped with no reference, handed back once.
	if err := c.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if dead := files.dead(); len(dead) != 1 || dead[0] != sh {
		t.Fatalf("recycled %v after the last release, want exactly the released shard", dead)
	}
	// A prefetched shard nobody acquired is dropped clean by the budget's
	// evictor: dead as well.
	c.SetMaxResidentBytes(c.shardBytes(0, 0))
	c.Prefetch(0, 1)
	eventually(t, func() bool { return stateOf(t, c, 1).Clean })
	if _, err := c.Acquire(0, 2); err != nil {
		t.Fatal(err)
	}
	if dead := files.dead(); len(dead) != 2 || dead[1].Part != 1 {
		t.Fatalf("evicting a clean prefetched shard recycled %d shards", len(dead))
	}
	if err := c.Release(0, 2); err != nil {
		t.Fatal(err)
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

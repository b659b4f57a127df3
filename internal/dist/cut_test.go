package dist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pbg/internal/storage"
	"pbg/internal/train"
)

// TestCutWaitsForDurableShards: a cut names a bucket done only once the
// shards of both its partitions are on disk as the partition server holds
// them. With the server's durable writer held, a trainer finishes an epoch
// (every bucket committed, every image queued and none written), and the
// cut neither returns nor writes a manifest; released, the writer drains,
// the cut commits the epoch, and every done bucket's shard files are the
// server's images byte for byte. A manifest written without the flush named
// sixteen done buckets over no shard file at all.
func TestCutWaitsForDurableShards(t *testing.T) {
	const dim = 8
	g := chaosGraph(t)
	order := insideOutOrder(t, 4)
	dir := t.TempDir()

	ps := NewPartitionServer(g.Schema, dim, 3, WithDurableDir(dir))
	if err := ps.closeDurable(); err != nil {
		t.Fatal(err)
	}
	held := newDurableState(dir) // its write-behind goroutine is not started
	ps.durable = held
	pl, partAddr, err := serve(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	ls := NewLockServer(order)
	defer ls.close()
	ll, lockAddr, err := serve(ls)
	if err != nil {
		t.Fatal(err)
	}
	defer ll.Close()

	node, err := NewNode(g, NodeConfig{LockAddr: lockAddr, PartitionAddrs: []string{partAddr},
		Train: train.Config{Dim: dim, Workers: 1, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := ls.StartEpoch(StartEpochArgs{Epoch: 1}, &StartEpochReply{}); err != nil {
		t.Fatal(err)
	}
	if _, err := node.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	cuts, err := OpenCuts(dir, g.Schema, train.Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() { wrote <- cuts.Write(ls, []string{partAddr}, nil) }()
	select {
	case err := <-wrote:
		t.Fatalf("the cut returned (%v) while the durable writer was held", err)
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		t.Fatal("a manifest was written while the durable writer was held")
	}
	go held.run(ps)
	defer held.close()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	m, ok, err := ReadManifest(dir, 4, 4)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if m.Epoch != 1 || len(m.Done) != len(order) {
		t.Fatalf("cut at epoch %d with %d buckets done, want epoch 1 with all %d", m.Epoch, len(m.Done), len(order))
	}
	for _, b := range m.Done {
		for _, p := range b.Parts() {
			k := partKey{0, p}
			st := ps.stripe(k)
			st.mu.Lock()
			img := append([]byte(nil), st.shards[k].b...)
			st.mu.Unlock()
			disk, err := os.ReadFile(storage.ShardPath(dir, 0, p))
			if err != nil {
				t.Fatalf("bucket %v is done and partition %d's shard file is not: %v", b, p, err)
			}
			if !bytes.Equal(disk, img) {
				t.Fatalf("bucket %v is done and partition %d's shard file is older than the server's image", b, p)
			}
		}
	}
}

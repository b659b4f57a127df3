//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package serve_test

import (
	"slices"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/serve"
	"pbg/internal/storage"
)

// TestMappedSpareNeverRewritten: a DiskStore that keeps training into a
// directory serve has mapped never rewrites a mapped image in place. The
// first write-back displaces the mapped shard image into the store's spare;
// the next finds it held under serve's shared lock, drops the name and
// writes a fresh file, and the eight after that reuse the spares nobody
// maps. The mapped rows read the same bytes throughout.
func TestMappedSpareNeverRewritten(t *testing.T) {
	if !serve.MmapAvailable() {
		t.Skip("no mapping on this platform: serve reads a private copy")
	}
	const dim = 8
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 40, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	dir := t.TempDir()
	st, err := storage.NewDiskStore(dir, schema, dim, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	for p := 0; p < 2; p++ {
		if _, err := st.Acquire(0, p); err != nil {
			t.Fatal(err)
		}
		if err := st.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	ss, err := serve.OpenShardSet(dir, schema, dim)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	mapped := ss.Rows(0, 0).Data
	want := slices.Clone(mapped)

	base := st.IOStats()
	for i := 0; i < 10; i++ {
		sh, err := st.Acquire(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range sh.Embs {
			sh.Embs[j] = float32(100 + i)
		}
		if err := st.Release(0, 0); err != nil { // no budget: the last Release writes
			t.Fatal(err)
		}
		if err := st.Drain(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mapped, want) {
			t.Fatalf("write-back %d changed the mapped image", i+1)
		}
	}
	io := st.IOStats()
	if writes := io.Writes - base.Writes; writes != 10 {
		t.Fatalf("%d write-backs, want 10", writes)
	}
	if reused := io.ReusedWrites - base.ReusedWrites; reused != 8 {
		t.Fatalf("%d of 10 write-backs reused a spare, want 8 (all but the one that displaced the mapped image and the one that found it held)", reused)
	}
	back, err := storage.ReadShard(storage.ShardPath(dir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if back.Embs[0] != 109 {
		t.Fatalf("the shard file holds %v, want the last write-back's 109", back.Embs[0])
	}
}

package serve_test

import (
	"math"
	"os"
	"testing"

	"pbg/internal/serve"
	"pbg/internal/storage"
)

// TestZeroCopyRowsBitParity is the parity claim of the one read path: every
// fp32 row served as a view into the file's bytes — the platform's byte
// source and, forced through a test hook, the private-buffer source — is
// bit-identical to the same row decoded by storage.ReadShard.
func TestZeroCopyRowsBitParity(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	platform, err := serve.OpenShardSet(f.Dir, f.Graph.Schema, f.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	private, err := serve.OpenShardSetPrivate(f.Dir, f.Graph.Schema, f.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	defer private.Close()

	for ti := range f.Graph.Schema.Entities {
		ent := &f.Graph.Schema.Entities[ti]
		for p := 0; p < ent.NumPartitions; p++ {
			ref, err := storage.ReadShard(storage.ShardPath(f.Dir, ti, p))
			if err != nil {
				t.Fatal(err)
			}
			for name, ss := range map[string]*serve.ShardSet{"platform": platform, "private": private} {
				m := ss.Rows(ti, p)
				if m.Rows != ref.Count || m.Cols != ref.Dim {
					t.Fatalf("%s shard %d/%d is %dx%d, decoder says %dx%d", name, ti, p, m.Rows, m.Cols, ref.Count, ref.Dim)
				}
				for r := 0; r < ref.Count; r++ {
					id := int32(p*ent.PartSize() + r)
					got, want := ss.Row(ti, id), ref.Row(r)
					for k := range want {
						if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
							t.Fatalf("%s type %d id %d dim %d: view %x, decoder %x", name, ti, id, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
	if serve.MmapAvailable() && platform.MappedShards() == 0 {
		t.Fatalf("no shard mapped on an mmap-capable platform")
	}
	if private.MappedShards() != 0 {
		t.Fatalf("private-buffer source reported %d mapped shards", private.MappedShards())
	}
	if platform.Bytes() != private.Bytes() {
		t.Fatalf("byte accounting depends on the source: %d mapped, %d private", platform.Bytes(), private.Bytes())
	}
}

func TestOpenShardSetRejectsCorruptShard(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	dir := t.TempDir()
	// Copy the checkpoint, then truncate one shard.
	if err := copyDir(f.Dir, dir); err != nil {
		t.Fatal(err)
	}
	path := storage.ShardPath(dir, 0, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.OpenShardSet(dir, f.Graph.Schema, f.Cfg.Dim); err == nil {
		t.Fatal("opened a truncated shard without error")
	}
	// Corrupt the magic.
	copy(data, []byte{0, 1, 2, 3})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.OpenShardSet(dir, f.Graph.Schema, f.Cfg.Dim); err == nil {
		t.Fatal("opened a bad-magic shard without error")
	}
}

func TestOpenShardSetRejectsDimMismatch(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	if _, err := serve.OpenShardSet(f.Dir, f.Graph.Schema, f.Cfg.Dim+1); err == nil {
		t.Fatal("opened checkpoint with wrong dim without error")
	}
}

// TestOpenRejectsMalformedRelations: a checkpoint whose relations.pbg holds
// fewer relation blocks than the schema has relations, or is short, padded
// or claims more than it holds, makes serve.Open return an error. The first
// case used to index past the blocks it had just found missing and panic.
func TestOpenRejectsMalformedRelations(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	dir := t.TempDir()
	if err := copyDir(f.Dir, dir); err != nil {
		t.Fatal(err)
	}
	relPath := dir + "/relations.pbg"
	rs, err := storage.ReadRelations(relPath)
	if err != nil {
		t.Fatal(err)
	}
	fewer := t.TempDir() + "/relations.pbg"
	if err := storage.WriteRelations(fewer, &storage.RelationState{
		Params: rs.Params[:len(rs.Params)-1], Acc: rs.Acc[:len(rs.Acc)-1],
	}); err != nil {
		t.Fatal(err)
	}
	fewerImg, err := os.ReadFile(fewer)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(relPath)
	if err != nil {
		t.Fatal(err)
	}
	inflated := append([]byte{}, img...)
	inflated[7] = 0x7f // the relation count's top byte
	for name, bad := range map[string][]byte{
		"one relation fewer": fewerImg,
		"short":              img[:len(img)-1],
		"trailing byte":      append(append([]byte{}, img...), 0),
		"inflated count":     inflated,
	} {
		if err := os.WriteFile(relPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if srv, err := serve.Open(dir, f.ServerConfig()); err == nil {
			_ = srv.Close()
			t.Errorf("%s: Open accepted the checkpoint", name)
		}
	}
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			return err
		}
		if err := os.WriteFile(dst+"/"+e.Name(), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"pbg/internal/obs"
)

// The spare cycle of a shard write-back (replaceFile with spare set): the
// image a write displaces is kept as path.spare and rewritten in place by
// the next write, unless someone else can see it.

// writeImage replaces path with b, keeping a spare.
func writeImage(t *testing.T, path string, b []byte) bool {
	t.Helper()
	reused, err := replaceFile(path, int64(len(b)), true, func(f *os.File) error {
		_, err := f.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return reused
}

// image returns n bytes of v.
func image(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirNames lists dir's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestSpareRewrittenInPlace: the first write of a path has nothing to keep,
// the second keeps the image it displaced, and from the third on each write
// lands in the file the previous one displaced — the same inode, shrunk to
// what was written when the new image is shorter.
func TestSpareRewrittenInPlace(t *testing.T) {
	if !canReuse(t) {
		t.Skip("no flock on this platform: every write is a fresh file")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_t0_p0.pbg")
	if writeImage(t, path, image(4096, 1)) {
		t.Fatal("the first write reused a spare")
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("after the first write the directory holds %v, want the file alone", names)
	}
	if writeImage(t, path, image(4096, 2)) {
		t.Fatal("the second write reused a spare")
	}
	if got := readFile(t, path+spareSuffix); !bytes.Equal(got, image(4096, 1)) {
		t.Fatal("the spare is not the displaced image")
	}
	for i, size := range []int{4096, 4096, 1000, 4096} {
		spare, err := os.Stat(path + spareSuffix)
		if err != nil {
			t.Fatal(err)
		}
		want := image(size, byte(3+i))
		if !writeImage(t, path, want) {
			t.Fatalf("write %d did not reuse the spare", 3+i)
		}
		live, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(spare, live) {
			t.Fatalf("write %d: the live file is not the spare it rewrote", 3+i)
		}
		if got := readFile(t, path); !bytes.Equal(got, want) {
			t.Fatalf("write %d: the live file holds %d bytes, not the %d written", 3+i, len(got), len(want))
		}
	}
	if names := dirNames(t, dir); len(names) != 2 || names[1] != "shard_t0_p0.pbg.spare" {
		t.Fatalf("the directory holds %v, want the file and its spare", names)
	}
}

// TestSpareFailedRewriteKeepsLive injects a failure after the spare has been
// rewritten whole and before it is published: the live name must still hold
// the old image byte for byte, the torn spare must be gone (nothing ever
// reads it), and the next write must start over with a fresh file.
func TestSpareFailedRewriteKeepsLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_t0_p0.pbg")
	writeImage(t, path, image(4096, 1))
	writeImage(t, path, image(4096, 2))
	boom := errors.New("failed before publishing")
	reused, err := replaceFile(path, 4096, true, func(f *os.File) error {
		if _, err := f.Write(image(4096, 3)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) || reused {
		t.Fatalf("got reused %v, error %v; want the emit's error", reused, err)
	}
	if got := readFile(t, path); !bytes.Equal(got, image(4096, 2)) {
		t.Fatal("a failed rewrite changed the live file")
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("after a failed rewrite the directory holds %v, want the live file alone", names)
	}
	if writeImage(t, path, image(4096, 4)) {
		t.Fatal("the write after a failed rewrite reused a spare")
	}
	if got := readFile(t, path); !bytes.Equal(got, image(4096, 4)) {
		t.Fatal("the write after a failed rewrite did not land")
	}
}

// TestSpareLinkedNeverRewritten: a spare with a second name — a hard link,
// as a checkpoint generation would add — is never rewritten: the linked
// bytes stay what they were across ten writes, and the writes after the
// first go back to reusing the spares nobody else names.
func TestSpareLinkedNeverRewritten(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_t0_p0.pbg")
	writeImage(t, path, image(4096, 1))
	writeImage(t, path, image(4096, 2))
	kept := filepath.Join(dir, "generation_1")
	if err := os.Link(path+spareSuffix, kept); err != nil {
		t.Skipf("the file system refuses hard links: %v", err)
	}
	reused := 0
	for i := 0; i < 10; i++ {
		if writeImage(t, path, image(4096, byte(3+i))) {
			reused++
		}
		if got := readFile(t, kept); !bytes.Equal(got, image(4096, 1)) {
			t.Fatalf("write %d rewrote a linked image", i)
		}
	}
	if want := 9; canReuse(t) && reused != want {
		t.Fatalf("%d of 10 writes reused a spare, want %d (all but the one that found the linked spare)", reused, want)
	}
}

// canReuse reports whether this platform rewrites spares at all.
func canReuse(t *testing.T) bool {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "probe")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, ok := exclusive(f)
	return ok
}

// TestDiskStoreReusesSpares runs a budgeted DiskStore for a few epochs over
// a directory a Flush has filled: every write-back after each shard's first
// one rewrites the spare its previous write-back kept, and the reuse count
// is published beside the write-back count.
func TestDiskStoreReusesSpares(t *testing.T) {
	if !canReuse(t) {
		t.Skip("no flock on this platform: every write is a fresh file")
	}
	const parts, dim = 8, 16
	st := newTestDisk(t, "", partitionedSchema(parts*50, parts), dim, 1, 1)
	hub := obs.NewHub()
	st.SetObs(hub)
	st.SetMaxResidentBytes(3 * st.shardBytes(0, 0))
	for p := 0; p < parts; p++ {
		if _, err := st.Acquire(0, p); err != nil {
			t.Fatal(err)
		}
		if err := st.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	base := st.IOStats() // every shard has a file now, and none a spare
	written := map[int]bool{}
	for epoch := 0; epoch < 3; epoch++ {
		for p := 0; p < parts; p++ {
			sh, err := st.Acquire(0, p)
			if err != nil {
				t.Fatal(err)
			}
			sh.Row(0)[0] = float32(epoch)
			if err := st.Release(0, p); err != nil {
				t.Fatal(err)
			}
			written[p] = true
		}
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	io := st.IOStats()
	writes, reused := io.Writes-base.Writes, io.ReusedWrites-base.ReusedWrites
	if writes <= int64(len(written)) {
		t.Fatalf("%d write-backs of %d shards: the budget evicted too little to test reuse", writes, len(written))
	}
	if want := writes - int64(len(written)); reused != want {
		t.Fatalf("reused %d of %d write-backs, want %d (all but each shard's first)", reused, writes, want)
	}
	if got := hub.Reg.Snapshot().Counters["pbg_storage_writeback_reused_total"]; got != io.ReusedWrites {
		t.Fatalf("pbg_storage_writeback_reused_total = %d, IOStats.ReusedWrites = %d", got, io.ReusedWrites)
	}
}

// TestDiskStoreLeavesOnlyShardFiles: after Flush and after Close the
// directory holds the shard files alone — the spares the write-backs kept
// are removed — and NewDiskStore removes the spares and temp files a killed
// process left.
func TestDiskStoreLeavesOnlyShardFiles(t *testing.T) {
	const parts, dim = 4, 8
	schema := partitionedSchema(parts*20, parts)
	dir := t.TempDir()
	shards := make([]string, parts)
	for p := range shards {
		shards[p] = filepath.Base(ShardPath(dir, 0, p))
	}
	st, err := NewDiskStore(dir, schema, dim, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.SetMaxResidentBytes(2 * st.shardBytes(0, 0))
	touch := func() {
		for round := 0; round < 3; round++ {
			for p := 0; p < parts; p++ {
				sh, err := st.Acquire(0, p)
				if err != nil {
					t.Fatal(err)
				}
				sh.Row(0)[0]++
				if err := st.Release(0, p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	touch()
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) == parts && canReuse(t) {
		t.Fatalf("write-backs kept no spare: %v", names)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !slices.Equal(names, shards) {
		t.Fatalf("after Flush the directory holds %v, want %v", names, shards)
	}
	touch()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !slices.Equal(names, shards) {
		t.Fatalf("after Close the directory holds %v, want %v", names, shards)
	}

	// What a killed store leaves: a spare and the temp names of a write cut
	// between its link and its renames.
	for _, name := range []string{shards[0] + spareSuffix, shards[1] + spareSuffix, shards[1] + ".tmp7", shards[2] + ".tmp8"} {
		if err := os.WriteFile(filepath.Join(dir, name), image(100, 9), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newTestDisk(t, dir, schema, dim, 1, 1)
	if names := dirNames(t, dir); !slices.Equal(names, shards) {
		t.Fatalf("after NewDiskStore the directory holds %v, want %v", names, shards)
	}
}

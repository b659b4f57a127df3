package train

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// TestSameSeedSameShardBytesInt8WithEvictions is TestSameSeedSameShardBytes
// for the case PR 16 left open: -codec int8 under a budget that evicts. A
// shard's rows are quantized when — and only when — it is written, evicted
// and reloaded. While every last Release started a write and a re-Acquire
// either revived the live fp32 rows or reloaded the quantized file by
// timing, two same-seed runs never agreed (10 of 10 differed at the parent
// of this test). Now a shard is written when the evictor picks it, the
// evictor's order is a function of the epoch thread's own calls, and the
// runs agree. What is not covered: a working set over the budget, where
// which hint is shed and when an over-budget shard is dropped still follow
// I/O timing.
func TestSameSeedSameShardBytesInt8WithEvictions(t *testing.T) {
	g := smallSocial(t, 8)
	run := func() string {
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, 20, 7, 1)
		tr, err := New(g, store, Config{
			Dim: 20, Epochs: 2, Seed: 3, Workers: 1, Codec: "int8",
			MemBudgetBytes: 3 * storage.ProjectedShardBytesCodec(g.Schema, 20, 0, 0, storage.CodecInt8),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(nil); err != nil {
			t.Fatal(err)
		}
		if io := store.IOStats(); io.ForcedEvicts == 0 {
			t.Fatalf("the budget forced no eviction (%+v): the run does not exercise the swap path", io)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	a, b := run(), run()
	files, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 8 {
		t.Fatalf("training wrote %d shard files, want 8", len(files))
	}
	for _, f := range files {
		x, err := os.ReadFile(filepath.Join(a, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two same-seed int8 runs with evictions", f.Name())
		}
	}
}

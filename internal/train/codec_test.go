package train

import (
	"math"
	"testing"

	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// TestPipelineQuantizedLossParityWithSerial drives write-back→reload through
// a DiskStore that writes int8 files (DiskStore.SetCodec) under a budget
// tight enough to force mid-epoch eviction, in both the serial and
// pipelined executors. Quantization error enters only at
// evict+reload (resident shards stay fp32), and which reloads observe
// quantized bytes depends on asynchronous write-back timing — harmless under
// fp32 (reload is lossless, the fp32 parity tests pin bit-equality) but
// run-to-run visible here even serially. So the pin is parity bands, not
// bit-equality: repeated serial runs agree tightly, pipeline agrees with
// serial, the loss still descends, and the checkpoint on disk is genuinely
// v2/int8.
func TestPipelineQuantizedLossParityWithSerial(t *testing.T) {
	probeG := smallSocial(t, 4)
	probe, err := New(probeG, storage.NewMemStore(probeG.Schema, 16, 7, 1), Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	// One bucket's working set plus the allowance: every bucket swap must
	// evict, so reloads observe quantized bytes all epoch.
	budget := probe.windowBytes(0) + probe.maxShardBytes()

	run := func(serial bool) ([]EpochStats, string) {
		g := smallSocial(t, 4)
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, 16, 7, 1)
		store.SetCodec(storage.CodecInt8)
		tr, err := New(g, store, Config{Dim: 16, Epochs: 3, Seed: 3, MemBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		var stats []EpochStats
		if serial {
			stats = trainSerial(t, tr)
		} else if stats, err = tr.Train(nil); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return stats, dir
	}

	pipe, pipeDir := run(false)
	serial, _ := run(true)
	serial2, _ := run(true)

	for e := range serial {
		if diff := math.Abs(serial[e].Loss-serial2[e].Loss) / serial2[e].Loss; diff > 0.02 {
			t.Fatalf("epoch %d: repeated quantized serial runs diverged: %v vs %v (%.2f%% > 2%%)",
				e, serial[e].Loss, serial2[e].Loss, diff*100)
		}
	}
	for _, stats := range [][]EpochStats{pipe, serial} {
		first := stats[0].Loss / float64(stats[0].Edges)
		last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
		if last >= first*0.9 {
			t.Fatalf("quantized loss did not decrease: %v → %v", first, last)
		}
		if stats[len(stats)-1].PartitionIO == 0 {
			t.Fatal("tight budget run reported zero partition loads — eviction never exercised the codec")
		}
	}
	pLast := pipe[len(pipe)-1].Loss / float64(pipe[len(pipe)-1].Edges)
	sLast := serial[len(serial)-1].Loss / float64(serial[len(serial)-1].Edges)
	if diff := math.Abs(pLast-sLast) / sLast; diff > 0.10 {
		t.Fatalf("pipelined int8 loss %v diverged from serial %v (%.1f%% > 10%%)", pLast, sLast, diff*100)
	}

	// The written checkpoint must actually be the quantized format.
	_, codec, err := storage.ReadShardCodec(storage.ShardPath(pipeDir, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if codec != storage.CodecInt8 {
		t.Fatalf("checkpoint shard codec %v, want int8", codec)
	}
}

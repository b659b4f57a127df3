package train

import (
	"math"
	"testing"

	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// TestCodecWidensBudgetWindow pins the cost-model contract of the quantized
// codec: every budget consumer prices shards through the codec, so the same
// -mem-budget affords a wider window when shards shrink. No knob other than
// Config.Codec changes between the compared runs.
func TestCodecWidensBudgetWindow(t *testing.T) {
	g := smallSocial(t, 4)
	dim := 16

	// Slot pricing: order planning must see more resident partition slots
	// per byte under a smaller codec.
	budget := 6 * storage.ProjectedShardBytes(g.Schema, dim, 0, 0)
	fp32Slots := BufferSlotsFor(g.Schema, dim, budget, storage.CodecFP32)
	int8Slots := BufferSlotsFor(g.Schema, dim, budget, storage.CodecInt8)
	fp16Slots := BufferSlotsFor(g.Schema, dim, budget, storage.CodecFP16)
	if int8Slots <= fp32Slots {
		t.Fatalf("int8 slots %d not wider than fp32 slots %d at budget %d", int8Slots, fp32Slots, budget)
	}
	if fp16Slots <= fp32Slots {
		t.Fatalf("fp16 slots %d not wider than fp32 slots %d at budget %d", fp16Slots, fp32Slots, budget)
	}

	// Prefetch depth: a budget that holds an fp32 run to lookahead 0 (one
	// bucket's working set plus the in-flight allowance, the
	// TestLookaheadIsTheDeepestWindowTheBudgetFits construction) still
	// affords pipelined prefetch once the same shards are priced int8.
	probe := depthTrainer(t, Config{Dim: dim})
	tight := probe.windowBytes(0) + probe.maxShardBytes()
	fp32Tr := depthTrainer(t, Config{Dim: dim, MemBudgetBytes: tight})
	int8Tr := depthTrainer(t, Config{Dim: dim, MemBudgetBytes: tight, Codec: "int8"})
	if fp32Tr.Lookahead() != 0 {
		t.Fatalf("fp32 lookahead %d under one-bucket budget, want 0", fp32Tr.Lookahead())
	}
	if int8Tr.Lookahead() <= fp32Tr.Lookahead() {
		t.Fatalf("int8 lookahead %d not wider than fp32's %d at the same budget %d",
			int8Tr.Lookahead(), fp32Tr.Lookahead(), tight)
	}

	// The depth's per-shard pricing itself must shrink with the codec.
	fp32Shard := fp32Tr.shardKeyBytes(shardKey{0, 0})
	int8Shard := int8Tr.shardKeyBytes(shardKey{0, 0})
	if int8Shard*2 > fp32Shard {
		t.Fatalf("int8 shard priced %d, want ≥2x under fp32's %d", int8Shard, fp32Shard)
	}
}

// TestTrainerSetsStoreCodec checks New plumbs Config.Codec into a store that
// supports it (DiskStore) and silently skips one that does not (MemStore —
// the codec still takes effect when Model.Checkpoint writes a DiskStore).
func TestTrainerSetsStoreCodec(t *testing.T) {
	g := smallSocial(t, 4)
	ds := storetest.NewDisk(t, "", g.Schema, 16, 7, 1)
	tr, err := New(g, ds, Config{Dim: 16, Codec: "fp16"})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Codec() != storage.CodecFP16 {
		t.Fatalf("DiskStore codec %v after New, want fp16", ds.Codec())
	}
	if tr.Codec() != storage.CodecFP16 {
		t.Fatalf("Trainer codec %v, want fp16", tr.Codec())
	}

	ms := storage.NewMemStore(g.Schema, 16, 7, 1)
	tr, err = New(g, ms, Config{Dim: 16, Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Codec() != storage.CodecInt8 {
		t.Fatalf("MemStore trainer codec %v, want int8", tr.Codec())
	}

	if _, err := New(g, ms, Config{Dim: 16, Codec: "bf16"}); err == nil {
		t.Fatal("New accepted unknown codec bf16")
	}
}

// TestPipelineQuantizedLossParityWithSerial drives write-back→reload through
// the int8 codec under a budget tight enough to force mid-epoch eviction, in
// both the serial and pipelined executors. Quantization error enters only at
// evict+reload (resident shards stay fp32), and which reloads observe
// quantized bytes depends on asynchronous write-back timing — harmless under
// fp32 (reload is lossless, the fp32 parity tests pin bit-equality) but
// run-to-run visible here even serially. So the pin is parity bands, not
// bit-equality: repeated serial runs agree tightly, pipeline agrees with
// serial, the loss still descends, and the checkpoint on disk is genuinely
// v2/int8.
func TestPipelineQuantizedLossParityWithSerial(t *testing.T) {
	probeG := smallSocial(t, 4)
	probe, err := New(probeG, storage.NewMemStore(probeG.Schema, 16, 7, 1), Config{Dim: 16, Codec: "int8"})
	if err != nil {
		t.Fatal(err)
	}
	// One bucket's int8-priced working set plus the allowance: every bucket
	// swap must evict, so reloads observe quantized bytes all epoch.
	budget := probe.windowBytes(0) + probe.maxShardBytes()

	run := func(serial bool) ([]EpochStats, string) {
		g := smallSocial(t, 4)
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, 16, 7, 1)
		tr, err := New(g, store, Config{
			Dim: 16, Epochs: 3, Seed: 3, MemBudgetBytes: budget, Codec: "int8",
		})
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

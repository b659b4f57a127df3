package train

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
	"pbg/internal/vec"
)

func smallSocial(t *testing.T, parts int) *graph.Graph {
	t.Helper()
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: 400, AvgOutDegree: 8, NumPartitions: parts, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTrainer(t *testing.T, g *graph.Graph, cfg Config) *Trainer {
	t.Helper()
	if cfg.Dim == 0 {
		cfg.Dim = 16
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 3
	}
	store := storage.NewMemStore(g.Schema, cfg.Dim, 7, 1)
	tr, err := New(g, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrainLossDecreases(t *testing.T) {
	g := smallSocial(t, 1)
	tr := newTrainer(t, g, Config{Epochs: 5, Seed: 3})
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("got %d epochs", len(stats))
	}
	first := stats[0].Loss / float64(stats[0].Edges)
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	if last >= first*0.9 {
		t.Fatalf("per-edge loss did not decrease: %v → %v", first, last)
	}
	for _, s := range stats {
		if s.Edges != g.Edges.Len() {
			t.Fatalf("epoch %d trained %d edges, want %d", s.Epoch, s.Edges, g.Edges.Len())
		}
	}
}

func TestTrainPartitionedMatchesUnpartitionedShape(t *testing.T) {
	// Partitioned training must also drive the loss down; quality parity is
	// asserted end-to-end in the eval integration tests.
	g := smallSocial(t, 4)
	tr := newTrainer(t, g, Config{Epochs: 4, Seed: 3})
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := stats[0].Loss / float64(stats[0].Edges)
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	if last >= first*0.9 {
		t.Fatalf("partitioned loss did not decrease: %v → %v", first, last)
	}
	// 16 buckets must all have been visited.
	if stats[0].BucketsActive == 0 {
		t.Fatal("no buckets trained")
	}
	if stats[0].PartitionIO == 0 {
		t.Fatal("partitioned run reported zero partition loads")
	}
}

func TestTrainWithDiskStoreSwapping(t *testing.T) {
	// 8 partitions: the pipelined executor may transiently hold the current
	// bucket's two partitions plus prefetched and writing-back shards, so a
	// finer grid is needed to observe peak resident < full model. Without a
	// budget the unbudgeted store's residency is timing-dependent — async
	// write-backs keep evicted shards (and their snapshot copies) counted
	// until the disk write lands, so on a slow run all 8 shards plus
	// several snapshots can coexist and exceed the full model transiently.
	// A budget makes the bound deterministic: admission enforces it.
	g := smallSocial(t, 8)
	dir := t.TempDir()
	store := storetest.NewDisk(t, dir, g.Schema, 16, 7, 1)
	// Close drains the background write-backs; without it their temp files
	// race the TempDir cleanup.
	defer store.Close()
	perShard := storage.ProjectedShardBytes(g.Schema, 16, 0, 0)
	budget := 5 * perShard
	tr, err := New(g, store, Config{Dim: 16, Epochs: 2, Seed: 3, MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	first := stats[0].Loss / float64(stats[0].Edges)
	if last >= first {
		t.Fatalf("disk-backed loss did not decrease: %v → %v", first, last)
	}
	// Swapping must keep the peak resident footprint well under the full
	// model: the budget plus the one-in-flight-shard
	// allowance is still three shards below the 8-shard full model.
	full := int64(400 * (16 + 1) * 4)
	peak := stats[len(stats)-1].PeakResident
	if peak > budget+perShard {
		t.Fatalf("peak resident %d exceeded budget %d + one-shard allowance", peak, budget)
	}
	if peak >= full {
		t.Fatalf("peak resident %d not smaller than full model %d", peak, full)
	}
}

// TestSameSeedSameShardBytes pins run-to-run determinism on whichever vec
// kernel path this machine runs: two same-seed Workers:1 trainings write
// byte-identical shard directories. Checkpoint bytes are a function of the
// kernel path (vec.Kernel), so the comparison is within one process; the
// dimension is not a multiple of 8, which puts the kernels' tails on the path.
func TestSameSeedSameShardBytes(t *testing.T) {
	g := smallSocial(t, 4)
	run := func() string {
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, 20, 7, 1)
		tr, err := New(g, store, Config{Dim: 20, Epochs: 2, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(nil); err != nil {
			t.Fatal(err)
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
	if len(files) == 0 {
		t.Fatal("training wrote no shard files")
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
			t.Errorf("%s differs between two same-seed runs on the %s kernels", f.Name(), vec.Kernel())
		}
	}
}

// TestTrainPipelinedDiskStoreRace exercises the pipelined executor end to
// end on a multi-partition DiskStore with four HOGWILD workers; run under
// -race it checks the prefetch/write-back machinery never lets a background
// I/O goroutine touch buffers a trainer is mutating.
func TestTrainPipelinedDiskStoreRace(t *testing.T) {
	g := smallSocial(t, 4)
	dir := t.TempDir()
	store := storetest.NewDisk(t, dir, g.Schema, 16, 7, 1)
	tr, err := New(g, store, Config{
		Dim: 16, Epochs: 3, Seed: 3, Workers: 4,
		// A budget that fits every window buys the deepest prefetch.
		MemBudgetBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	first := stats[0].Loss / float64(stats[0].Edges)
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	if last >= first {
		t.Fatalf("pipelined loss did not decrease: %v → %v", first, last)
	}
	for _, s := range stats {
		if s.Edges != g.Edges.Len() {
			t.Fatalf("epoch %d trained %d edges, want %d", s.Epoch, s.Edges, g.Edges.Len())
		}
	}
}

// TestPipelineMatchesSerialLoss pins the pipelined executor to the serial
// baseline: same seed, same store type, same per-epoch loss and edge count
// (shard lifetimes change, the math must not).
func TestPipelineMatchesSerialLoss(t *testing.T) {
	run := func(serial bool) []EpochStats {
		g := smallSocial(t, 4)
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, 16, 7, 1)
		tr, err := New(g, store, Config{Dim: 16, Epochs: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if serial {
			return trainSerial(t, tr)
		}
		stats, err := tr.Train(nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	pipe := run(false)
	serial := run(true)
	for e := range pipe {
		if pipe[e].Loss != serial[e].Loss || pipe[e].Edges != serial[e].Edges {
			t.Fatalf("epoch %d diverged: pipeline (%v, %d) vs serial (%v, %d)",
				e, pipe[e].Loss, pipe[e].Edges, serial[e].Loss, serial[e].Edges)
		}
	}
}

// TestPipelineMatchesSerialLossTightBudget is the budget regression pin: a
// budget so tight only one bucket's shards fit sets the prefetch depth to
// 0 and forces the store into constant eviction —
// and the losses must still be bit-identical to the serial baseline
// (admission, shedding, and eviction may change shard lifetimes, never the
// math).
func TestPipelineMatchesSerialLossTightBudget(t *testing.T) {
	// Price one bucket's working set on a probe trainer.
	probeG := smallSocial(t, 4)
	probe, err := New(probeG, storage.NewMemStore(probeG.Schema, 16, 7, 1), Config{Dim: 16})
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.windowBytes(0) + probe.maxShardBytes()

	// Both runs plan their order against the same budget.
	run := func(serial bool) []EpochStats {
		g := smallSocial(t, 4)
		store := storetest.NewDisk(t, "", g.Schema, 16, 7, 1)
		tr, err := New(g, store, Config{Dim: 16, Epochs: 2, Seed: 3, MemBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		if serial {
			return trainSerial(t, tr)
		}
		if tr.Lookahead() != 0 {
			t.Fatalf("one-bucket budget must force lookahead 0, got %d", tr.Lookahead())
		}
		stats, err := tr.Train(nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	pipe := run(false)
	serial := run(true)
	for e := range pipe {
		if pipe[e].Loss != serial[e].Loss || pipe[e].Edges != serial[e].Edges {
			t.Fatalf("epoch %d diverged under tight budget: pipeline (%v, %d) vs serial (%v, %d)",
				e, pipe[e].Loss, pipe[e].Edges, serial[e].Loss, serial[e].Edges)
		}
	}
	for _, s := range pipe {
		if s.ResidentHighWater > budget+probe.maxShardBytes() {
			t.Fatalf("epoch %d high-water %d exceeds tight budget %d + allowance", s.Epoch, s.ResidentHighWater, budget)
		}
	}
}

// TestTrainMultiWorkerHogwild trains four HOGWILD workers on one bucket,
// over an operator without parameters and over two with a relation block,
// which the workers update under the relation lock while the others score
// from their snapshots. Under -race it checks that the production worker
// path shares nothing unsynchronised but the row accumulator
// optim.RowAdagrad.Update is exempt for. The translation row is the one
// that sees a chunk score from the live block: its operator reads the
// parameters in Go, while complex_diagonal (kg_mem's operator) reads them
// in assembly on amd64, which the detector does not instrument.
func TestTrainMultiWorkerHogwild(t *testing.T) {
	kg := func(op string) *graph.Graph {
		g, err := datagen.Knowledge(datagen.KGConfig{Entities: 300, Relations: 6, Edges: 3000, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Schema.Relations {
			g.Schema.Relations[i].Operator = op
		}
		return g
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"social_identity", smallSocial(t, 1)},
		{"kg_translation", kg("translation")},
		{"kg_complex_diagonal", kg("complex_diagonal")},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := newTrainer(t, c.g, Config{Epochs: 3, Workers: 4, Seed: 5})
			stats, err := tr.Train(nil)
			if err != nil {
				t.Fatal(err)
			}
			first := stats[0].Loss / float64(stats[0].Edges)
			last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
			if last >= first*0.9 {
				t.Fatalf("hogwild loss did not decrease: %v → %v", first, last)
			}
		})
	}
}

func TestTrainMultiRelationOperators(t *testing.T) {
	// A KG where relations use the translation operator.
	g, err := datagen.Knowledge(datagen.KGConfig{Entities: 300, Relations: 6, Edges: 3000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, g, Config{Epochs: 4, Seed: 7, Loss: "softmax", Comparator: "dot"})
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := stats[0].Loss / float64(stats[0].Edges)
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	if last >= first {
		t.Fatalf("KG loss did not decrease: %v → %v", first, last)
	}
	// Relation parameters must have moved off their identity init.
	moved := false
	for r := range g.Schema.Relations {
		for _, v := range tr.RelParams(r) {
			if v != 0 {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("relation parameters never updated")
	}
}

func TestTrainReciprocal(t *testing.T) {
	g, err := datagen.Knowledge(datagen.KGConfig{Entities: 200, Relations: 4, Edges: 1500, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, g, Config{Epochs: 2, Seed: 7, Reciprocal: true, Loss: "softmax"})
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	// Reciprocal blocks are double sized.
	sc := tr.Scorer(0)
	if len(tr.RelParams(0)) != sc.RelParamCount() {
		t.Fatal("param block size mismatch")
	}
}

func TestTrainBipartiteTypeConstraints(t *testing.T) {
	g, err := datagen.Bipartite(datagen.BipartiteConfig{
		Users: 300, Items: 20, Edges: 2000, UserPartitions: 2, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, g, Config{Epochs: 3, Seed: 7})
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	first := stats[0].Loss / float64(stats[0].Edges)
	last := stats[len(stats)-1].Loss / float64(stats[len(stats)-1].Edges)
	if last >= first {
		t.Fatalf("bipartite loss did not decrease: %v → %v", first, last)
	}
}

func TestUnbatchedChunkSizeOne(t *testing.T) {
	g := smallSocial(t, 1)
	tr := newTrainer(t, g, Config{Epochs: 1, ChunkSize: 1, UniformNegs: 10, Seed: 5})
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
}

func TestViewFetchesEmbeddings(t *testing.T) {
	g := smallSocial(t, 4)
	tr := newTrainer(t, g, Config{Epochs: 1, Seed: 5})
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	v := tr.NewView()
	defer v.Close()
	buf := make([]float32, 16)
	seen := map[float32]bool{}
	for id := int32(0); id < 400; id += 37 {
		if _, err := v.Embedding(0, id, buf); err != nil {
			t.Fatal(err)
		}
		seen[buf[0]] = true
	}
	if len(seen) < 5 {
		t.Fatal("embeddings look degenerate")
	}
}

// TestNewRejectsBadConfig: every setting that sizes a slice or bounds a loop
// must be positive once the zeros take their defaults. A negative Workers or
// UniformNegs used to panic in New, a negative ChunkSize to claim unbounded
// chunks, and a negative Epochs to train nothing and report success.
func TestNewRejectsBadConfig(t *testing.T) {
	g := smallSocial(t, 1)
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no Dim", Config{}, "Dim"},
		{"negative Dim", Config{Dim: -8}, "Dim"},
		{"negative Workers", Config{Dim: 8, Workers: -2}, "Workers"},
		{"negative ChunkSize", Config{Dim: 8, ChunkSize: -3}, "ChunkSize"},
		{"negative UniformNegs", Config{Dim: 8, UniformNegs: -3}, "UniformNegs"},
		{"negative Epochs", Config{Dim: 8, Epochs: -1}, "Epochs"},
		{"bad bucket order", Config{Dim: 8, BucketOrder: "bogus"}, "bogus"},
		{"negative LR", Config{Dim: 8, LR: -0.1}, "LR"},
		{"NaN LR", Config{Dim: 8, LR: float32(math.NaN())}, "LR"},
		{"NaN NegAlpha", Config{Dim: 8, NegAlpha: float32(math.NaN())}, "NegAlpha"},
		{"NegAlpha above 1", Config{Dim: 8, NegAlpha: 1.5}, "NegAlpha"},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := storage.NewMemStore(g.Schema, 8, 1, 1)
			if _, err := New(g, store, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("New(%+v) = %v, want an error naming %q", c.cfg, err, c.want)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ChunkSize != 50 || c.UniformNegs != 50 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.NegAlpha != 0.5 {
		t.Fatalf("default alpha = %v, want 0.5 (paper §3.1)", c.NegAlpha)
	}
}

package pbg

import (
	"math"
	"testing"
	"time"

	"pbg/internal/storage"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g, err := SocialGraph(SocialGraphConfig{Nodes: 500, AvgOutDegree: 8, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	trainG, _, testG := Split(g, 0, 0.2, 3)
	m, err := Train(trainG, TrainConfig{Dim: 16, Epochs: 4, Seed: 5, Comparator: "cos"})
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := m.Evaluate(testG, EvalOptions{Candidates: 100, MaxEdges: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.MRR < 0.08 {
		t.Fatalf("MRR %.3f too close to random", metrics.MRR)
	}
	// Embedding access.
	e, err := m.Embedding("node", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 16 {
		t.Fatalf("embedding dim %d", len(e))
	}
	// Score a real edge vs an unlikely one; at least it must not error.
	s, rel, d := trainG.Edges.Edge(0)
	if _, err := m.Score(int(rel), s, d); err != nil {
		t.Fatal(err)
	}
	nn, err := m.NearestNeighbors("node", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 5 {
		t.Fatalf("got %d neighbours", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Score > nn[i-1].Score {
			t.Fatal("neighbours not sorted by score")
		}
	}
}

func TestTrainOnDisk(t *testing.T) {
	g, err := SocialGraph(SocialGraphConfig{Nodes: 300, AvgOutDegree: 6, NumPartitions: 4, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainOnDisk(g, t.TempDir(), TrainConfig{Dim: 8, Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Registered after TempDir, so it runs first: the Embedding read below
	// releases a shard, and that asynchronous write-back must have finished
	// before the directory is removed.
	t.Cleanup(func() {
		if err := m.store.Close(); err != nil {
			t.Errorf("closing the model's store: %v", err)
		}
	})
	if _, err := m.Embedding("node", 250); err != nil {
		t.Fatal(err)
	}
}

// TestTrainOnDiskBudgetedShardsAreOnDisk: TrainOnDisk returns after the
// store's Drain, and a nil error means the trained shards really are on
// disk — also under a memory budget, where released shards stay resident
// and dirty until something makes them leave. Without closing the store,
// every shard file must hold the model's embeddings bit for bit.
func TestTrainOnDiskBudgetedShardsAreOnDisk(t *testing.T) {
	const parts, dim = 4, 8
	g, err := SocialGraph(SocialGraphConfig{Nodes: 400, AvgOutDegree: 6, NumPartitions: parts, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	budget := 3 * storage.ProjectedShardBytes(g.Schema, dim, 0, 0)
	m, err := TrainOnDisk(g, dir, TrainConfig{Dim: dim, Epochs: 2, Seed: 5, MemBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := m.store.Close(); err != nil {
			t.Errorf("closing the model's store: %v", err)
		}
	})
	// Files first: reading the model below goes through the store.
	files := make([]*storage.Shard, parts)
	for p := range files {
		if files[p], err = storage.ReadShard(storage.ShardPath(dir, 0, p)); err != nil {
			t.Fatalf("shard %d is not on disk after TrainOnDisk returned: %v", p, err)
		}
	}
	mat, err := m.EmbeddingMatrix("node")
	if err != nil {
		t.Fatal(err)
	}
	ent := g.Schema.Entities[0]
	for id := 0; id < ent.Count; id++ {
		p := ent.PartitionOf(int32(id))
		onDisk := files[p].Row(ent.LocalOffset(int32(id)))
		for j, v := range mat.Row(id) {
			if math.Float32bits(v) != math.Float32bits(onDisk[j]) {
				t.Fatalf("node %d cell %d: model %v, shard file %d holds %v", id, j, v, p, onDisk[j])
			}
		}
	}
}

func TestEmbeddingMatrix(t *testing.T) {
	g, _ := SocialGraph(SocialGraphConfig{Nodes: 100, AvgOutDegree: 4, Seed: 55})
	m, err := Train(g, TrainConfig{Dim: 8, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mat, err := m.EmbeddingMatrix("node")
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows != 100 || mat.Cols != 8 {
		t.Fatalf("matrix %dx%d", mat.Rows, mat.Cols)
	}
}

func TestCheckpoint(t *testing.T) {
	g, _ := SocialGraph(SocialGraphConfig{Nodes: 100, AvgOutDegree: 4, NumPartitions: 2, Seed: 57})
	m, err := Train(g, TrainConfig{Dim: 8, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDistributed(t *testing.T) {
	g, err := SocialGraph(SocialGraphConfig{Nodes: 400, AvgOutDegree: 8, NumPartitions: 4, Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	trainG, _, testG := Split(g, 0, 0.15, 3)
	res, err := TrainDistributed(trainG, DistributedConfig{
		Machines: 2, Epochs: 3, SyncInterval: 10 * time.Millisecond,
		Train: TrainConfig{Dim: 16, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Shutdown()
	if len(res.EpochStats) != 3 {
		t.Fatalf("epochs = %d", len(res.EpochStats))
	}
	metrics, err := res.EvaluateDistributed(trainG, testG, EvalOptions{Candidates: 100, MaxEdges: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Count == 0 {
		t.Fatal("no edges evaluated")
	}
}

// TestDistributedParityWithSingleMachine is the Table 3 invariant as a smoke
// test: training the same partitioned social graph on 2 machines (lock
// server, partition servers, async parameter sync over loopback TCP) must
// produce finite losses and an MRR within noise of the single-machine run.
func TestDistributedParityWithSingleMachine(t *testing.T) {
	g, err := SocialGraph(SocialGraphConfig{Nodes: 600, AvgOutDegree: 10, NumPartitions: 4, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	trainG, _, testG := Split(g, 0, 0.1, 3)
	cfg := TrainConfig{Dim: 16, Epochs: 4, Seed: 5, Comparator: "cos"}
	evalOpts := EvalOptions{Candidates: 200, MaxEdges: 300, Seed: 1}

	single, err := Train(trainG, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := single.Evaluate(testG, evalOpts)
	if err != nil {
		t.Fatal(err)
	}

	res, err := TrainDistributed(trainG, DistributedConfig{
		Machines: 2, Epochs: 4, SyncInterval: 20 * time.Millisecond, Train: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Cluster.Shutdown()
	for e, st := range res.EpochStats {
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			t.Fatalf("epoch %d loss = %v", e, st.Loss)
		}
		if st.Edges != trainG.Edges.Len() {
			t.Fatalf("epoch %d trained %d edges, want %d", e, st.Edges, trainG.Edges.Len())
		}
	}
	dm, err := res.EvaluateDistributed(trainG, testG, evalOpts)
	if err != nil {
		t.Fatal(err)
	}
	if dm.MRR < 0.08 {
		t.Fatalf("distributed MRR %.3f too close to random", dm.MRR)
	}
	// "Approximately flat MRR" (Tables 3–4): the runs differ in bucket
	// schedule and negative samples, so demand agreement, not equality.
	if dm.MRR < 0.7*sm.MRR {
		t.Fatalf("distributed MRR %.3f far below single-machine %.3f", dm.MRR, sm.MRR)
	}
	t.Logf("single-machine %v, distributed %v", sm, dm)
}

func TestErrorsOnUnknownEntityType(t *testing.T) {
	g, _ := SocialGraph(SocialGraphConfig{Nodes: 50, AvgOutDegree: 3, Seed: 61})
	m, err := Train(g, TrainConfig{Dim: 4, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Embedding("ghost", 0); err == nil {
		t.Fatal("expected unknown-type error")
	}
	if _, err := m.NearestNeighbors("ghost", 0, 3); err == nil {
		t.Fatal("expected unknown-type error")
	}
	if _, err := m.Score(99, 0, 1); err == nil {
		t.Fatal("expected relation-range error")
	}
}

func TestNewGraphPublic(t *testing.T) {
	el := &EdgeList{}
	el.Append(0, 0, 1)
	g, err := NewGraph(
		[]EntityType{{Name: "n", Count: 2, NumPartitions: 1}},
		[]RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "identity"}},
		el,
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.Len() != 1 {
		t.Fatal("edge lost")
	}
}

package baselines

import (
	"math"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

func socialGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Social(datagen.SocialConfig{Nodes: 500, AvgOutDegree: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildAdjacencySymmetric(t *testing.T) {
	g := socialGraph(t)
	adj := BuildAdjacency(g)
	if adj.N != 500 {
		t.Fatalf("N = %d", adj.N)
	}
	// Symmetry: u in Neigh(v) ⇔ v in Neigh(u).
	for v := int32(0); v < 100; v++ {
		for _, u := range adj.Neigh(v) {
			found := false
			for _, w := range adj.Neigh(u) {
				if w == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric adjacency: %d→%d", v, u)
			}
		}
	}
	// Total neighbor entries = 2×edges.
	if len(adj.Neighbors) != 2*g.Edges.Len() {
		t.Fatalf("neighbor entries %d, want %d", len(adj.Neighbors), 2*g.Edges.Len())
	}
}

func TestDeepWalkLearns(t *testing.T) {
	g := socialGraph(t)
	trainG, _, testG := g.Split(0, 0.2, 5)
	m, err := TrainDeepWalk(trainG, DeepWalkConfig{Dim: 16, Epochs: 2, WalksPer: 5, WalkLen: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.AllFinite(m.In.Data) {
		t.Fatal("non-finite embeddings")
	}
	table, err := NewEmbeddingTable(m.In)
	if err != nil {
		t.Fatal(err)
	}
	deg := graph.ComputeDegrees(trainG)
	rk := eval.NewRanker(trainG.Schema, table, table, 16, deg)
	got, err := rk.Evaluate(testG.Edges, eval.Config{Mode: eval.CandidatesUniform, K: 100, MaxEdges: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Random MRR ≈ 0.05 against 100 candidates; DeepWalk must beat it
	// decisively on a community graph.
	if got.MRR < 0.1 {
		t.Fatalf("DeepWalk MRR %.3f not above random", got.MRR)
	}
}

func TestDeepWalkRejectsMultiEntity(t *testing.T) {
	g, err := datagen.Bipartite(datagen.BipartiteConfig{Users: 50, Items: 10, Edges: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainDeepWalk(g, DeepWalkConfig{Dim: 8}); err == nil {
		t.Fatal("expected error for multi-entity graph")
	}
}

func TestHeavyEdgeMatchHalves(t *testing.T) {
	g := socialGraph(t)
	adj := BuildAdjacency(g)
	match, coarseN := heavyEdgeMatch(adj, rng.New(1))
	if coarseN >= adj.N {
		t.Fatalf("no coarsening: %d → %d", adj.N, coarseN)
	}
	if coarseN < adj.N/2 {
		t.Fatalf("impossible coarsening below half: %d → %d", adj.N, coarseN)
	}
	// Every node mapped; each supernode has 1 or 2 members.
	counts := make([]int, coarseN)
	for _, c := range match {
		if c < 0 || int(c) >= coarseN {
			t.Fatalf("bad supernode %d", c)
		}
		counts[c]++
	}
	for s, n := range counts {
		if n < 1 || n > 2 {
			t.Fatalf("supernode %d has %d members", s, n)
		}
	}
}

func TestMILECoarsensAndRefines(t *testing.T) {
	g := socialGraph(t)
	trainG, _, testG := g.Split(0, 0.2, 5)
	m, err := TrainMILE(trainG, MILEConfig{
		Levels: 2,
		Base:   DeepWalkConfig{Dim: 16, Epochs: 2, WalksPer: 5, WalkLen: 20},
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Emb.Rows != 500 {
		t.Fatalf("refined rows %d", m.Emb.Rows)
	}
	if m.CoarsestNodes >= 500 {
		t.Fatal("no compression achieved")
	}
	if !vec.AllFinite(m.Emb.Data) {
		t.Fatal("non-finite embeddings")
	}
	table, err := NewEmbeddingTable(m.Emb)
	if err != nil {
		t.Fatal(err)
	}
	deg := graph.ComputeDegrees(trainG)
	rk := eval.NewRanker(trainG.Schema, table, table, 16, deg)
	got, err := rk.Evaluate(testG.Edges, eval.Config{Mode: eval.CandidatesUniform, K: 100, MaxEdges: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.MRR < 0.08 {
		t.Fatalf("MILE MRR %.3f not above random", got.MRR)
	}
}

func TestMILEMoreLevelsMoreCompression(t *testing.T) {
	g := socialGraph(t)
	m1, err := TrainMILE(g, MILEConfig{Levels: 1, Base: DeepWalkConfig{Dim: 8, Epochs: 1, WalksPer: 2, WalkLen: 10}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m3, err := TrainMILE(g, MILEConfig{Levels: 3, Base: DeepWalkConfig{Dim: 8, Epochs: 1, WalksPer: 2, WalkLen: 10}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m3.CoarsestNodes >= m1.CoarsestNodes {
		t.Fatalf("levels=3 coarsest %d not smaller than levels=1 %d", m3.CoarsestNodes, m1.CoarsestNodes)
	}
	if m3.MemoryBytes() >= m1.MemoryBytes() {
		t.Fatalf("more levels should reduce base memory: %d vs %d", m3.MemoryBytes(), m1.MemoryBytes())
	}
}

// TestMILEDeterministic pins that a fixed seed with one walker gives the
// same embeddings bit for bit: the coarse graphs, and with them the walks
// and the next level's matching, must not depend on map iteration order.
func TestMILEDeterministic(t *testing.T) {
	g := socialGraph(t)
	cfg := MILEConfig{Levels: 1, Base: DeepWalkConfig{Dim: 8, WalksPer: 2, WalkLen: 10, Workers: 1}, Seed: 9}
	first, err := TrainMILE(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 3; run++ {
		m, err := TrainMILE(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Emb.Data {
			if math.Float32bits(v) != math.Float32bits(first.Emb.Data[i]) {
				t.Fatalf("run %d: embedding value %d differs (%v vs %v)", run, i, v, first.Emb.Data[i])
			}
		}
	}
}

func TestEmbeddingTableBounds(t *testing.T) {
	table, err := NewEmbeddingTable(vec.NewMatrix(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 4)
	if _, err := table.Embedding(0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Embedding(0, 99, buf); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := table.Embedding(1, 0, buf); err == nil {
		t.Fatal("expected entity-type error")
	}
}

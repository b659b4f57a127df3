package eval

import (
	"strings"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
	"pbg/internal/train"
)

// trainedSetup trains a small model and returns everything the ranker needs.
func trainedSetup(t *testing.T, epochs int, parts int) (*graph.Graph, *graph.EdgeList, *train.Trainer, *graph.Degrees) {
	t.Helper()
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: 500, AvgOutDegree: 10, NumPartitions: parts, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainG, _, testG := g.Split(0, 0.2, 5)
	store := storage.NewMemStore(g.Schema, 16, 9, 1)
	tr, err := train.New(trainG, store, train.Config{Dim: 16, Epochs: epochs, Seed: 5, Comparator: "cos", Margin: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	return trainG, testG.Edges, tr, graph.ComputeDegrees(trainG)
}

func TestMetricsString(t *testing.T) {
	m := Metrics{MRR: 0.5, MR: 2, Hits1: 0.25, Hits10: 1, Count: 4}
	s := m.String()
	if !strings.Contains(s, "MRR 0.500") || !strings.Contains(s, "n=4") {
		t.Fatalf("bad format: %s", s)
	}
}

func TestTrainedBeatsUntrained(t *testing.T) {
	_, test, tr, deg := trainedSetup(t, 6, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(trGraphSchema(tr), view, tr, 16, deg)
	cfg := Config{Mode: CandidatesUniform, K: 100, MaxEdges: 300, Seed: 1}
	trained, err := rk.Evaluate(test, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Untrained baseline: fresh random store.
	g2, _ := datagen.Social(datagen.SocialConfig{Nodes: 500, AvgOutDegree: 10, Seed: 21})
	store2 := storage.NewMemStore(g2.Schema, 16, 999, 1)
	tr2, err := train.New(g2, store2, train.Config{Dim: 16, Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	view2 := tr2.NewView()
	defer view2.Close()
	rk2 := NewRanker(g2.Schema, view2, tr2, 16, deg)
	random, err := rk2.Evaluate(test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trained.MRR < random.MRR*2 {
		t.Fatalf("trained MRR %.3f not clearly above untrained %.3f", trained.MRR, random.MRR)
	}
	if trained.Hits10 <= random.Hits10 {
		t.Fatalf("trained Hits@10 %.3f <= untrained %.3f", trained.Hits10, random.Hits10)
	}
}

// trGraphSchema digs the schema back out of the trainer's view (helper to
// keep call sites short).
func trGraphSchema(tr *train.Trainer) *graph.Schema {
	// The trainer was built from the graph; its buckets and relations
	// reflect the schema. We reconstruct via the store's schema — simplest
	// is to expose it from the trainer; see Trainer.Schema.
	return tr.Schema()
}

func TestFilteredBeatsRaw(t *testing.T) {
	trainG, test, tr, deg := trainedSetup(t, 4, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	known := graph.NewEdgeSet(trainG.Edges, test)
	raw, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 200, MaxEdges: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	filt, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 200, MaxEdges: 200, Seed: 2, Filtered: true, Known: known})
	if err != nil {
		t.Fatal(err)
	}
	// Filtering removes true edges from candidates, so ranks can only
	// improve (§5.4.1 footnote 8).
	if filt.MRR < raw.MRR-1e-9 {
		t.Fatalf("filtered MRR %.4f below raw %.4f", filt.MRR, raw.MRR)
	}
}

func TestPrevalenceCandidatesHarder(t *testing.T) {
	// Ranking against popular candidates is harder than uniform ones for a
	// degree-correlated model (the point of the §5.4.2 protocol).
	_, test, tr, deg := trainedSetup(t, 4, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	uni, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 200, MaxEdges: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := rk.Evaluate(test, Config{Mode: CandidatesPrevalence, K: 200, MaxEdges: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if prev.MRR > uni.MRR*1.1 {
		t.Fatalf("prevalence candidates easier (%.3f) than uniform (%.3f)?", prev.MRR, uni.MRR)
	}
}

func TestCandidatesAllSmallGraph(t *testing.T) {
	_, test, tr, deg := trainedSetup(t, 3, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	m, err := rk.Evaluate(test, Config{Mode: CandidatesAll, MaxEdges: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 50 {
		t.Fatalf("count = %d, want 50", m.Count)
	}
	if m.MR < 1 || m.MR > 499 {
		t.Fatalf("mean rank %v out of range", m.MR)
	}
}

func TestBothSidesDoublesCount(t *testing.T) {
	_, test, tr, deg := trainedSetup(t, 2, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	m, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 50, MaxEdges: 40, BothSides: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 80 {
		t.Fatalf("count = %d, want 80", m.Count)
	}
}

func TestPartitionedEvalWorks(t *testing.T) {
	_, test, tr, deg := trainedSetup(t, 4, 4)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	m, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 100, MaxEdges: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 100 {
		t.Fatalf("count = %d", m.Count)
	}
}

func TestRanksAreValid(t *testing.T) {
	_, test, tr, deg := trainedSetup(t, 2, 1)
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, deg)
	m, err := rk.Evaluate(test, Config{Mode: CandidatesUniform, K: 10, MaxEdges: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// With K=10 candidates, MR must lie in [1, 11].
	if m.MR < 1 || m.MR > 11 {
		t.Fatalf("mean rank %v impossible for K=10", m.MR)
	}
	if m.MRR < 0 || m.MRR > 1 {
		t.Fatalf("MRR %v out of [0,1]", m.MRR)
	}
	if m.Hits10 < m.Hits1 {
		t.Fatalf("Hits@10 %v < Hits@1 %v", m.Hits10, m.Hits1)
	}
}

func TestCurveRecording(t *testing.T) {
	c := &Curve{Label: "pbg-1"}
	c.Add(0, 1.5, 0.1)
	c.Add(1, 3.0, 0.2)
	s := c.String()
	if !strings.Contains(s, "pbg-1") || !strings.Contains(s, "0.2000") {
		t.Fatalf("bad curve format:\n%s", s)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{1, 2, 3, 4})
	if mean != 2.5 {
		t.Fatalf("mean = %v", mean)
	}
	if std < 1.1 || std > 1.2 {
		t.Fatalf("std = %v", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty input should give zeros")
	}
}

var _ EmbeddingSource = (*train.View)(nil)
var _ ScorerSource = (*train.Trainer)(nil)

// A degenerate scorer emitting one constant value ties every candidate
// with the true edge. The optimistic rank (1 + strict wins) scored that as
// a perfect MRR of 1.0; mid-rank tie handling must give rank 1+K/2, i.e.
// MRR ≈ 2/(K+2).
func TestConstantScorerMidRankMRR(t *testing.T) {
	g, err := datagen.Social(datagen.SocialConfig{Nodes: 500, AvgOutDegree: 8, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	// initScale 0 zeroes every embedding, so the dot comparator scores all
	// pairs identically — the constant scorer.
	store := storage.NewMemStore(g.Schema, 16, 9, 0)
	tr, err := train.New(g, store, train.Config{Dim: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(tr.Schema(), view, tr, 16, nil)
	const k = 100
	m, err := rk.Evaluate(g.Edges, Config{Mode: CandidatesUniform, K: k, MaxEdges: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 / (k + 2)
	// Uniform candidates occasionally collide with the true id and are
	// dropped, so the per-edge candidate count wobbles just below K.
	if m.MRR < want*0.9 || m.MRR > want*1.1 {
		t.Fatalf("constant scorer MRR = %.4f, want ≈ %.4f (2/(K+2)); optimistic tie-ranking would give 1.0", m.MRR, want)
	}
	if m.Hits1 != 0 {
		t.Fatalf("constant scorer Hits@1 = %.3f, want 0 (rank 1+K/2 is far past 1)", m.Hits1)
	}
	if m.MR < float64(k)/2*0.9 {
		t.Fatalf("constant scorer MR = %.1f, want ≈ 1+K/2", m.MR)
	}
}

// End-to-end smoke for schemas whose ceil-division partition sizes leave a
// trailing partition empty (Count=6 over 4 partitions → sizes 2,2,2,0):
// training over a DiskStore (zero-row shards swap through disk) and
// evaluating must work without panics.
func TestEmptyTrailingPartitionTrainsAndEvaluates(t *testing.T) {
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "n", Count: 6, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "identity"}},
	)
	el := &graph.EdgeList{}
	for i := int32(0); i < 6; i++ {
		for j := int32(0); j < 6; j++ {
			if i != j {
				el.Append(i, 0, j)
			}
		}
	}
	g := graph.MustGraph(schema, el)
	store := storetest.NewDisk(t, "", schema, 8, 3, 1)
	// Striped-lock mode: this test runs under -race, where two pure-HOGWILD
	// workers racing on embedding rows would (correctly) be reported.
	tr, err := train.New(g, store, train.Config{Dim: 8, Epochs: 2, Seed: 5, Workers: 2, HogwildOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	view := tr.NewView()
	defer view.Close()
	rk := NewRanker(schema, view, tr, 8, graph.ComputeDegrees(g))
	for _, mode := range []CandidateMode{CandidatesAll, CandidatesUniform, CandidatesPrevalence} {
		m, err := rk.Evaluate(g.Edges, Config{Mode: mode, K: 4, Seed: 2, BothSides: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.Count == 0 {
			t.Fatalf("mode %d evaluated nothing", mode)
		}
	}
}

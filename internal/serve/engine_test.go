package serve_test

import (
	"testing"

	"pbg/internal/eval"
	"pbg/internal/model"
	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
	"pbg/internal/storage"
)

func openServer(t *testing.T, f *servetest.Fixture) *serve.Server {
	t.Helper()
	s, err := serve.Open(f.Dir, f.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestExactTopKMatchesOracleBitwise pins the strongest parity claim: a
// single-query exact top-K returns the oracle's IDs AND the oracle's exact
// score bits. A 1-row query matrix takes vec.MulABt's Dot tail path, the
// same kernel model.Scorer.ScoreMany bottoms out in, so chunking cannot
// change a single bit.
func TestExactTopKMatchesOracleBitwise(t *testing.T) {
	for _, cmp := range []string{"dot", "cos", "squared_l2", "l2"} {
		t.Run(cmp, func(t *testing.T) {
			f := servetest.Shared(t, servetest.FixtureConfig{Comparator: cmp})
			s := openServer(t, f)
			oracle := f.NewOracle(t)
			for _, req := range f.Requests(101, 25, 10, true) {
				got, err := s.TopK([]serve.TopKRequest{req})
				if err != nil {
					t.Fatal(err)
				}
				wantIDs, wantScores := oracle.TopK(req.Rel, req.SrcID, nil, req.K)
				if len(got[0].IDs) != len(wantIDs) {
					t.Fatalf("src %d: got %d ids, want %d", req.SrcID, len(got[0].IDs), len(wantIDs))
				}
				for i := range wantIDs {
					if got[0].IDs[i] != wantIDs[i] {
						t.Fatalf("src %d rank %d: got id %d, want %d", req.SrcID, i, got[0].IDs[i], wantIDs[i])
					}
					if got[0].Scores[i] != wantScores[i] {
						t.Fatalf("src %d rank %d: got score bits %x, want %x", req.SrcID, i, got[0].Scores[i], wantScores[i])
					}
				}
			}
		})
	}
}

// TestBatchedTopKMatchesSingle pins that batching requests (grouped GEMMs,
// blocked kernels) returns the same neighbour lists as issuing each
// request alone. Everything is seeded, so this is fully deterministic.
func TestBatchedTopKMatchesSingle(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	reqs := f.Requests(202, 32, 10, true)
	batched, err := s.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		single, err := s.TopK([]serve.TopKRequest{req})
		if err != nil {
			t.Fatal(err)
		}
		if len(single[0].IDs) != len(batched[i].IDs) {
			t.Fatalf("request %d: batched %d ids, single %d", i, len(batched[i].IDs), len(single[0].IDs))
		}
		for j := range single[0].IDs {
			if single[0].IDs[j] != batched[i].IDs[j] {
				t.Fatalf("request %d rank %d: batched id %d, single id %d", i, j, batched[i].IDs[j], single[0].IDs[j])
			}
		}
	}
}

// TestScoreMatchesOracleBitwise pins Score == model.Scorer.Score for the
// same checkpoint, bit for bit, batched or not.
func TestScoreMatchesOracleBitwise(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{Comparator: "cos"})
	s := openServer(t, f)
	oracle := f.NewOracle(t)
	var reqs []serve.ScoreRequest
	for _, r := range f.Requests(303, 40, 1, true) {
		reqs = append(reqs, serve.ScoreRequest{Rel: r.Rel, Src: r.SrcID, Dst: (r.SrcID + 7) % int32(f.Cfg.Nodes)})
	}
	scores, err := s.Score(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		want := oracle.Score(r.Rel, r.Src, r.Dst)
		if scores[i] != want {
			t.Fatalf("pair %d: serve score bits %x, oracle %x", i, scores[i], want)
		}
	}
}

// TestQueryByVector serves a raw query vector (not a stored row) and
// checks it against the oracle given the same vector.
func TestQueryByVector(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	oracle := f.NewOracle(t)
	vecQ := make([]float32, f.Cfg.Dim)
	for i := range vecQ {
		vecQ[i] = float32(i%5) * 0.25
	}
	got, err := s.TopK([]serve.TopKRequest{{Rel: 0, Vector: vecQ, K: 5, Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, _ := oracle.TopK(0, 0, vecQ, 5)
	for i := range wantIDs {
		if got[0].IDs[i] != wantIDs[i] {
			t.Fatalf("rank %d: got %d, want %d", i, got[0].IDs[i], wantIDs[i])
		}
	}
}

// TestRankMatchesOracle pins serve.Rank == the oracle's eval.MidRank
// construction on a trained fixture.
func TestRankMatchesOracle(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	oracle := f.NewOracle(t)
	for _, r := range f.Requests(404, 20, 1, true) {
		dst := (r.SrcID + 13) % int32(f.Cfg.Nodes)
		got, err := s.Rank(r.Rel, r.SrcID, dst)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Rank(r.Rel, r.SrcID, dst); got != want {
			t.Fatalf("rank(%d,%d,%d): serve %v, oracle %v", r.Rel, r.SrcID, dst, got, want)
		}
	}
}

// TestConstantScorerEvalServeParity is the satellite pinning the shared
// tie conventions end to end: on an all-zero checkpoint every score is the
// same constant, so (a) serve's top-K must order purely by ID, matching the
// oracle; (b) serve.Rank, the oracle, and eval.Ranker must all return the
// mid-rank 1 + (N-1)/2 — none of the three may count a tie as a win.
func TestConstantScorerEvalServeParity(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{Zero: true})
	s := openServer(t, f)
	oracle := f.NewOracle(t)
	n := f.Cfg.Nodes
	wantRank := 1 + float64(n-1)/2

	// (a) Orderings: both must be 0..K-1, the pure-ID tie-break.
	got, err := s.TopK([]serve.TopKRequest{{Rel: 0, SrcID: 5, K: 8, Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, _ := oracle.TopK(0, 5, nil, 8)
	for i := 0; i < 8; i++ {
		if got[0].IDs[i] != int32(i) || wantIDs[i] != int32(i) {
			t.Fatalf("rank %d: serve id %d, oracle id %d, want %d", i, got[0].IDs[i], wantIDs[i], i)
		}
	}

	// (b) Mid-ranks agree across serve, oracle, and the eval Ranker.
	gotRank, err := s.Rank(0, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if gotRank != wantRank {
		t.Fatalf("serve rank = %v, want %v", gotRank, wantRank)
	}
	if or := oracle.Rank(0, 5, 9); or != wantRank {
		t.Fatalf("oracle rank = %v, want %v", or, wantRank)
	}

	ss, err := serve.OpenShardSet(f.Dir, f.Graph.Schema, f.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	rk := eval.NewRanker(f.Graph.Schema, shardEmb{ss}, constScorers{t: t, f: f}, f.Cfg.Dim, nil)
	m, err := rk.Evaluate(f.Graph.Edges, eval.Config{Mode: eval.CandidatesAll, MaxEdges: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.MR != wantRank {
		t.Fatalf("eval MR = %v, want %v", m.MR, wantRank)
	}
	// MRR averages ten identical 1/rank terms; the sum-then-divide picks up
	// one ulp of rounding, so compare to within float64 noise.
	if diff := m.MRR - 1/wantRank; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("eval MRR = %v, want %v", m.MRR, 1/wantRank)
	}
}

// shardEmb adapts a serving ShardSet into eval's EmbeddingSource — the
// serving read path feeding the offline evaluator directly.
type shardEmb struct{ ss *serve.ShardSet }

func (e shardEmb) Embedding(typeIdx int, id int32, out []float32) ([]float32, error) {
	copy(out, e.ss.Row(typeIdx, id))
	return out, nil
}

// constScorers rebuilds the checkpoint's scorers the way the server does.
type constScorers struct {
	t *testing.T
	f *servetest.Fixture
}

func (c constScorers) Scorer(rel int) *model.Scorer {
	sc, err := model.NewScorer(c.f.Cfg.Dim, c.f.Graph.Schema.Relations[rel].Operator, c.f.Cfg.Comparator, "ranking", 1, false)
	if err != nil {
		c.t.Fatal(err)
	}
	return sc
}

func (c constScorers) RelParams(rel int) []float32 {
	rs, err := storage.ReadRelations(c.f.Dir + "/relations.pbg")
	if err != nil {
		c.t.Fatal(err)
	}
	return rs.Params[rel]
}

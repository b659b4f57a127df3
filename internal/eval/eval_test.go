package eval

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
	"pbg/internal/train"
	"pbg/internal/vec"
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

// TestEvaluateRejectsBadConfig: a configuration that cannot be ranked as
// asked is an error, not a different protocol. A filtered run without its
// Known edges used to compute raw metrics.
func TestEvaluateRejectsBadConfig(t *testing.T) {
	fx := newFixture(t, oneType(50, 1), 8, "dot", false, 100, 10, 1)
	for _, c := range []struct {
		name    string
		cfg     Config
		degrees *graph.Degrees
		want    string
	}{
		{"filtered without Known", Config{Mode: CandidatesUniform, K: 5, Filtered: true}, fx.degrees, "Known"},
		{"unknown mode", Config{Mode: CandidatesPrevalence + 1, K: 5}, fx.degrees, "unknown candidate mode"},
		{"prevalence without degrees", Config{Mode: CandidatesPrevalence, K: 5}, nil, "need degrees"},
	} {
		_, err := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, c.degrees).Evaluate(fx.test, c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestEvaluateMatchesReference holds the one-path Ranker to the
// per-candidate ranker it replaced (referenceEvaluate) on every mode, side,
// filter, comparator, reciprocal setting and partition count. One Ranker
// serves all twelve configurations of a model, so its table and masks carry
// over from call to call. Under dot and cos the scores are bit-equal, and so
// the Metrics. Under l2 and squared_l2 the reference scored the true edge
// with SquaredDistance and its candidates with CrossScores' GEMM form, and
// the Ranker scores all of them through CrossScores: a rank could differ
// only where a candidate lies within float rounding of the true score, which
// none does on these seeds.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, cmp := range []string{"dot", "cos", "l2", "squared_l2"} {
		for _, reciprocal := range []bool{false, true} {
			for _, parts := range []int{1, 4} {
				fx := newFixture(t, twoTypes(parts), 8, cmp, reciprocal, 600, 40, uint64(parts))
				known := graph.NewEdgeSet(fx.train, fx.test)
				rk := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, fx.degrees)
				for _, mode := range []CandidateMode{CandidatesAll, CandidatesUniform, CandidatesPrevalence} {
					for _, both := range []bool{false, true} {
						for _, filtered := range []bool{false, true} {
							cfg := Config{Mode: mode, K: 50, BothSides: both, Seed: 11}
							if filtered {
								cfg.Filtered, cfg.Known = true, known
							}
							got, err := rk.Evaluate(fx.test, cfg)
							if err != nil {
								t.Fatal(err)
							}
							want, err := referenceEvaluate(fx, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Errorf("%s reciprocal=%v P=%d mode=%d both=%v filtered=%v:\n got %+v\nwant %+v",
									cmp, reciprocal, parts, mode, both, filtered, got, want)
							}
						}
					}
				}
				_ = fx.emb.Close()
			}
		}
	}
}

// TestEvaluateRereadsRowsEachCall: a Ranker's table is stamped per call, so
// rows changed between calls — a MemStore view reads the rows training
// goes on changing — are ranked as they are now.
func TestEvaluateRereadsRowsEachCall(t *testing.T) {
	fx := newFixture(t, oneType(200, 2), 8, "dot", false, 400, 30, 4)
	rk := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, fx.degrees)
	cfg := Config{Mode: CandidatesAll, BothSides: true}
	before, err := rk.Evaluate(fx.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		sh, err := fx.store.Acquire(0, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sh.Embs {
			sh.Embs[i] = -sh.Embs[i] * float32(i%3)
		}
		if err := fx.store.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	after, err := rk.Evaluate(fx.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, fx.degrees).Evaluate(fx.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after != fresh || after == before {
		t.Fatalf("after the rows changed: reused Ranker %+v, fresh Ranker %+v (before the change %+v)", after, fresh, before)
	}
}

// TestEvaluateSteadyStateAllocs: a warm call allocates per call, never per
// edge or per candidate. The reference made at least six allocations per
// ranked edge.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	fx := newFixture(t, oneType(2000, 1), 16, "dot", false, 1000, 100, 5)
	rk := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, fx.degrees)
	cfg := Config{Mode: CandidatesUniform, K: 1000, Seed: 3}
	if _, err := rk.Evaluate(fx.test, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := rk.Evaluate(fx.test, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("a warm call ranking %d edges against %d candidates made %.0f allocations, want at most 16", fx.test.Len(), cfg.K, allocs)
	}
}

// BenchmarkEvaluate ranks held-out edges of an untrained model at two
// shapes: the repository benchmark's kg_mem evaluation (6 000 entities,
// d = 64, ComplEx, 100 edges against 1 000 uniform candidates), and Table
// 2's protocol at its test's shape (1 000 entities, 20 relations, d = 16,
// reciprocal ComplEx, every entity on both sides, filtered by 40 000 known
// edges).
func BenchmarkEvaluate(b *testing.B) {
	for _, bc := range []struct {
		name              string
		schema            *graph.Schema
		dim               int
		reciprocal        bool
		trainEdges, edges int
		cfg               Config
	}{
		{"kg_mem", relTypes(6000, 40), 64, false, 20000, 100, Config{Mode: CandidatesUniform, K: 1000, Seed: 1}},
		{"table2_filtered_all_both", relTypes(1000, 20), 16, true, 40000, 250, Config{Mode: CandidatesAll, BothSides: true, Filtered: true, Seed: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fx := newFixture(b, bc.schema, bc.dim, "dot", bc.reciprocal, bc.trainEdges, bc.edges, 7)
			defer fx.emb.Close()
			if bc.cfg.Filtered {
				bc.cfg.Known = graph.NewEdgeSet(fx.train, fx.test)
			}
			rk := NewRanker(fx.schema, fx.emb, fx.scorers, fx.dim, fx.degrees)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rk.Evaluate(fx.test, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*bc.edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// fixture is a model at its random initialisation: rows from a MemStore,
// random relation parameters, and random train and test edges.
type fixture struct {
	schema      *graph.Schema
	dim         int
	store       *storage.MemStore
	emb         *train.View
	scorers     relScorers
	degrees     *graph.Degrees
	train, test *graph.EdgeList
}

// relScorers is a ScorerSource over fixed scorers and parameters.
type relScorers struct {
	sc     []*model.Scorer
	params [][]float32
}

func (s relScorers) Scorer(rel int) *model.Scorer { return s.sc[rel] }
func (s relScorers) RelParams(rel int) []float32  { return s.params[rel] }

func newFixture(tb testing.TB, schema *graph.Schema, dim int, cmp string, reciprocal bool, trainEdges, testEdges int, seed uint64) *fixture {
	tb.Helper()
	r := rng.New(seed)
	fx := &fixture{schema: schema, dim: dim, store: storage.NewMemStore(schema, dim, seed, 1), train: &graph.EdgeList{}, test: &graph.EdgeList{}}
	fx.emb = train.NewStoreView(fx.store, schema)
	for _, rel := range schema.Relations {
		sc, err := model.NewScorer(dim, rel.Operator, cmp, "ranking", 0.1, reciprocal)
		if err != nil {
			tb.Fatal(err)
		}
		params := make([]float32, sc.RelParamCount())
		for i := range params {
			params[i] = 0.5 * r.NormFloat32()
		}
		fx.scorers.sc, fx.scorers.params = append(fx.scorers.sc, sc), append(fx.scorers.params, params)
	}
	for i := 0; i < trainEdges+testEdges; i++ {
		el := fx.train
		if i >= trainEdges {
			el = fx.test
		}
		rel := int32(r.Intn(len(schema.Relations)))
		src, dst := schema.SourceEntity(rel), schema.DestEntity(rel)
		el.Append(int32(r.Intn(src.Count)), rel, int32(r.Intn(dst.Count)))
	}
	// One test edge is also a training edge: the known edges list it twice.
	fx.test.Srcs[0], fx.test.Rels[0], fx.test.Dsts[0] = fx.train.Edge(0)
	fx.degrees = graph.ComputeDegrees(graph.MustGraph(schema, fx.train))
	return fx
}

func oneType(count, parts int) *graph.Schema {
	return graph.MustSchema([]graph.EntityType{{Name: "n", Count: count, NumPartitions: parts}},
		[]graph.RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "complex_diagonal"}})
}

// relTypes is a knowledge graph's schema: one entity type, rels ComplEx
// relations.
func relTypes(count, rels int) *graph.Schema {
	rs := make([]graph.RelationType, rels)
	for i := range rs {
		rs[i] = graph.RelationType{Name: strconv.Itoa(i), SourceType: "n", DestType: "n", Operator: "complex_diagonal"}
	}
	return graph.MustSchema([]graph.EntityType{{Name: "n", Count: count, NumPartitions: 1}}, rs)
}

// twoTypes has a relation within and across two entity types of different
// sizes, under every operator that transforms its rows.
func twoTypes(parts int) *graph.Schema {
	return graph.MustSchema(
		[]graph.EntityType{{Name: "a", Count: 97, NumPartitions: parts}, {Name: "b", Count: 61, NumPartitions: parts}},
		[]graph.RelationType{
			{Name: "ab", SourceType: "a", DestType: "b", Operator: "complex_diagonal"},
			{Name: "ba", SourceType: "b", DestType: "a", Operator: "translation"},
			{Name: "aa", SourceType: "a", DestType: "a", Operator: "linear"},
			{Name: "bb", SourceType: "b", DestType: "b", Operator: "diagonal"},
		})
}

// referenceEvaluate is the ranker the one path replaced, kept as the
// reference: each side gathers its candidates one Embedding call at a
// time into a matrix of its own, scores the true edge through
// model.Scorer.Score (or reverseScore), the candidate destinations through
// ScoreMany and the candidate sources one reverseScore at a time, and
// filters by looking every candidate's triple up among the known edges.
func referenceEvaluate(fx *fixture, cfg Config) (Metrics, error) {
	if cfg.K == 0 {
		cfg.K = 1000
	}
	known := map[[3]int32]bool{}
	if cfg.Filtered {
		for _, l := range []*graph.EdgeList{fx.train, fx.test} {
			for i := 0; i < l.Len(); i++ {
				s, r, d := l.Edge(i)
				known[[3]int32{s, r, d}] = true
			}
		}
	}
	r := rng.New(cfg.Seed)
	var m Metrics
	n := fx.test.Len()
	if cfg.MaxEdges > 0 && n > cfg.MaxEdges {
		n = cfg.MaxEdges
	}
	srcBuf := make([]float32, fx.dim)
	dstBuf := make([]float32, fx.dim)
	for i := 0; i < n; i++ {
		s, rel, d := fx.test.Edge(i)
		srcType := fx.schema.EntityTypeIndex(fx.schema.Relations[rel].SourceType)
		dstType := fx.schema.EntityTypeIndex(fx.schema.Relations[rel].DestType)
		if _, err := fx.emb.Embedding(srcType, s, srcBuf); err != nil {
			return m, err
		}
		if _, err := fx.emb.Embedding(dstType, d, dstBuf); err != nil {
			return m, err
		}
		rank, err := referenceRankSide(fx, r, cfg, known, rel, s, d, dstType, srcBuf, dstBuf, false)
		if err != nil {
			return m, err
		}
		m.add(rank)
		if cfg.BothSides {
			rank, err := referenceRankSide(fx, r, cfg, known, rel, s, d, srcType, srcBuf, dstBuf, true)
			if err != nil {
				return m, err
			}
			m.add(rank)
		}
	}
	m.finish()
	return m, nil
}

func referenceRankSide(fx *fixture, r *rng.RNG, cfg Config, known map[[3]int32]bool,
	rel, s, d int32, candType int, srcEmb, dstEmb []float32, corruptSource bool) (float64, error) {

	sc := fx.scorers.Scorer(int(rel))
	params := fx.scorers.RelParams(int(rel))
	var trueScore float32
	if corruptSource {
		trueScore = reverseScore(sc, srcEmb, dstEmb, params)
	} else {
		trueScore = sc.Score(srcEmb, dstEmb, params)
	}

	count := fx.schema.Entities[candType].Count
	var candIDs []int32
	switch cfg.Mode {
	case CandidatesAll:
		candIDs = make([]int32, 0, count)
		for id := int32(0); int(id) < count; id++ {
			candIDs = append(candIDs, id)
		}
	case CandidatesUniform:
		candIDs = make([]int32, cfg.K)
		for i := range candIDs {
			candIDs[i] = int32(r.Intn(count))
		}
	case CandidatesPrevalence:
		a := rng.NewAlias(fx.degrees.ByType[candType])
		candIDs = make([]int32, cfg.K)
		for i := range candIDs {
			candIDs[i] = int32(a.Sample(r))
		}
	}

	cand := vec.NewMatrix(len(candIDs), fx.dim)
	row := 0
	for _, id := range candIDs {
		if corruptSource {
			if id == s || known[[3]int32{id, rel, d}] {
				continue
			}
		} else if id == d || known[[3]int32{s, rel, id}] {
			continue
		}
		if _, err := fx.emb.Embedding(candType, id, cand.Row(row)); err != nil {
			return 0, err
		}
		row++
	}
	cand = vec.MatrixFrom(cand.Data[:row*fx.dim], row, fx.dim)
	scores := make([]float32, row)
	if corruptSource {
		for j := 0; j < row; j++ {
			scores[j] = reverseScore(sc, cand.Row(j), dstEmb, params)
		}
	} else {
		sc.ScoreMany(scores, srcEmb, params, cand)
	}
	return MidRank(trueScore, scores), nil
}

// reverseScore is the score of (src, rel, dst) as a corrupted source sees
// it: sim(θ_s, g(θ_d; θ'_r)) under reciprocal relations, Score otherwise.
func reverseScore(sc *model.Scorer, src, dst, relParams []float32) float32 {
	if !sc.Reciprocal {
		return sc.Score(src, dst, relParams)
	}
	_, rev := sc.SplitRelParams(relParams)
	td := make([]float32, sc.Dim)
	sc.Op.Apply(td, dst, rev)
	a := vec.MatrixFrom(td, 1, sc.Dim)
	b := vec.MatrixFrom(slices.Clone(src), 1, sc.Dim)
	sc.Cmp.Prepare(a)
	sc.Cmp.Prepare(b)
	out := make([]float32, 1)
	sc.Cmp.PairScores(out, a, b)
	return out[0]
}

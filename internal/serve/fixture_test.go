package serve_test

// The deterministic test harness for the serving layer, in the spirit of
// storetest: seeded tiny trained fixtures shared across tests, scripted
// request streams, and an exact brute-force oracle that is deliberately
// independent of internal/serve — it loads shards through storage.ReadShard
// (not serve's zero-copy views) and scores each query as one model
// comparator block over every candidate (not the batched engine), so
// agreement between the two is evidence, not tautology.

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"pbg"
	"pbg/internal/datagen"
	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// FixtureConfig seeds one trained-checkpoint fixture. Identical configs
// share one on-disk checkpoint per test process.
type FixtureConfig struct {
	Nodes      int
	Partitions int
	Dim        int
	Epochs     int
	Comparator string
	Operator   string
	Seed       uint64
	// Zero skips training and checkpoints all-zero embeddings — every
	// score collapses to one constant, the degenerate case the tie-handling
	// tests need.
	Zero bool
}

func (c FixtureConfig) withDefaults() FixtureConfig {
	if c.Nodes == 0 {
		c.Nodes = 400
	}
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if c.Dim == 0 {
		c.Dim = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 3
	}
	if c.Comparator == "" {
		c.Comparator = "dot"
	}
	if c.Operator == "" {
		c.Operator = "identity"
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// Fixture is one trained checkpoint on disk plus everything needed to
// query it: the graph, and an Oracle over an independently loaded copy of
// the embeddings.
type Fixture struct {
	Cfg   FixtureConfig
	Dir   string
	Graph *graph.Graph
}

var (
	fixturesMu  sync.Mutex
	fixtures    = map[FixtureConfig]*Fixture{}
	fixtureDirs []string
)

// Shared returns the fixture for cfg, building and training it on first
// use and reusing the same checkpoint for every later test in the process.
// TestMain removes the checkpoint directories (Cleanup).
func Shared(tb testing.TB, cfg FixtureConfig) *Fixture {
	tb.Helper()
	cfg = cfg.withDefaults()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[cfg]; ok {
		return f
	}
	f, err := build(cfg)
	if err != nil {
		tb.Fatalf("building fixture %+v: %v", cfg, err)
	}
	fixtures[cfg] = f
	fixtureDirs = append(fixtureDirs, f.Dir)
	return f
}

func TestMain(m *testing.M) {
	code := m.Run()
	Cleanup()
	os.Exit(code)
}

// Cleanup removes every shared fixture's checkpoint directory; TestMain
// calls it after m.Run().
func Cleanup() {
	fixturesMu.Lock()
	dirs := fixtureDirs
	fixtureDirs = nil
	fixtures = map[FixtureConfig]*Fixture{}
	fixturesMu.Unlock()
	// Disk I/O happens outside the lock: a slow filesystem must not stall
	// a concurrent Shared call.
	for _, dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

func build(cfg FixtureConfig) (*Fixture, error) {
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes:         cfg.Nodes,
		AvgOutDegree:  8,
		NumPartitions: cfg.Partitions,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Operator != "" {
		for r := range g.Schema.Relations {
			g.Schema.Relations[r].Operator = cfg.Operator
		}
	}
	dir, err := os.MkdirTemp("", "servetest-")
	if err != nil {
		return nil, err
	}
	if cfg.Zero {
		if err := writeZeroCheckpoint(dir, g, cfg); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &Fixture{Cfg: cfg, Dir: dir, Graph: g}, nil
	}
	// One worker trains the same embeddings in every process, so every test
	// binary — and both sides of a benchmark comparison — serves the same
	// checkpoint and builds the same index.
	m, err := pbg.Train(g, pbg.TrainConfig{
		Dim:        cfg.Dim,
		Epochs:     cfg.Epochs,
		Comparator: cfg.Comparator,
		Seed:       cfg.Seed,
		Workers:    1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := m.Checkpoint(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &Fixture{Cfg: cfg, Dir: dir, Graph: g}, nil
}

// writeZeroCheckpoint writes all-zero shards + relation params directly
// through the storage codec, bypassing training entirely.
func writeZeroCheckpoint(dir string, g *graph.Graph, cfg FixtureConfig) error {
	for t := range g.Schema.Entities {
		ent := &g.Schema.Entities[t]
		for p := 0; p < ent.NumPartitions; p++ {
			n := ent.PartitionCount(p)
			sh := &storage.Shard{
				TypeIndex: t, Part: p, Count: n, Dim: cfg.Dim,
				Embs: make([]float32, n*cfg.Dim),
				Acc:  make([]float32, n),
			}
			if err := storage.WriteShard(storage.ShardPath(dir, t, p), sh); err != nil {
				return err
			}
		}
	}
	rs := &storage.RelationState{}
	for r := range g.Schema.Relations {
		sc, err := model.NewScorer(cfg.Dim, g.Schema.Relations[r].Operator, cfg.Comparator, "ranking", 1, false)
		if err != nil {
			return err
		}
		params := make([]float32, sc.RelParamCount())
		sc.InitRelParams(params)
		rs.Params = append(rs.Params, params)
		rs.Acc = append(rs.Acc, make([]float32, len(params)))
	}
	return storage.WriteRelations(dir+"/relations.pbg", rs)
}

// CheckpointAs re-encodes the fixture checkpoint through codec into a
// fresh directory (shards via storage.WriteShardCodec, relation state
// copied verbatim) and returns it. The directory is cleaned up with the
// shared fixtures. CodecFP32 yields a plain v1 copy — the baseline of the
// codec parity matrix.
func (f *Fixture) CheckpointAs(tb testing.TB, codec storage.Codec) string {
	tb.Helper()
	dir, err := os.MkdirTemp("", "servetest-codec-")
	if err != nil {
		tb.Fatal(err)
	}
	registerDir(dir)
	for t := range f.Graph.Schema.Entities {
		ent := &f.Graph.Schema.Entities[t]
		for p := 0; p < ent.NumPartitions; p++ {
			sh, err := storage.ReadShard(storage.ShardPath(f.Dir, t, p))
			if err != nil {
				tb.Fatal(err)
			}
			if err := storage.WriteShardCodec(storage.ShardPath(dir, t, p), sh, codec); err != nil {
				tb.Fatal(err)
			}
		}
	}
	copyRelations(tb, f.Dir, dir)
	return dir
}

func registerDir(dir string) {
	fixturesMu.Lock()
	fixtureDirs = append(fixtureDirs, dir)
	fixturesMu.Unlock()
}

func copyRelations(tb testing.TB, src, dst string) {
	tb.Helper()
	data, err := os.ReadFile(src + "/relations.pbg")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(dst+"/relations.pbg", data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// EvalMRR loads dir through the storage codec (so quantized checkpoints are
// evaluated on their decoded values) and runs the offline ranker over the
// fixture's own edges against all candidates. The returned MRR is the
// pinning currency of the codec parity matrix: re-encoding the checkpoint
// through a codec may move it only within that codec's documented bound.
func (f *Fixture) EvalMRR(tb testing.TB, dir string) float64 {
	tb.Helper()
	o, err := loadOracle(dir, f.Graph.Schema, f.Cfg.Dim, f.Cfg.Comparator)
	if err != nil {
		tb.Fatalf("fixture: loading oracle for %s: %v", dir, err)
	}
	rk := eval.NewRanker(f.Graph.Schema, o, o, f.Cfg.Dim, nil)
	m, err := rk.Evaluate(f.Graph.Edges, eval.Config{Mode: eval.CandidatesAll, MaxEdges: 300, Seed: 1})
	if err != nil {
		tb.Fatalf("fixture: evaluating %s: %v", dir, err)
	}
	return m.MRR
}

// Embedding implements eval.EmbeddingSource over the oracle's embeddings.
// The ranker reads through out, so the row is copied, not aliased.
func (o *Oracle) Embedding(typeIdx int, id int32, out []float32) ([]float32, error) {
	copy(out, o.embs[typeIdx].Row(int(id)))
	return out, nil
}

// Scorer implements eval.ScorerSource.
func (o *Oracle) Scorer(rel int) *model.Scorer { return o.scorers[rel] }

// RelParams implements eval.ScorerSource.
func (o *Oracle) RelParams(rel int) []float32 { return o.params[rel] }

// ServerConfig returns the serve.Config matching the fixture's training
// run.
func (f *Fixture) ServerConfig() serve.Config {
	return serve.Config{
		Schema:     f.Graph.Schema,
		Dim:        f.Cfg.Dim,
		Comparator: f.Cfg.Comparator,
	}
}

// Oracle is the exact brute-force reference: embeddings loaded through the
// storage codec into private memory, scored per query as one comparator
// block over every candidate, ranked by eval.CompareScored. It never touches
// internal/serve's read or scoring paths.
type Oracle struct {
	schema  *graph.Schema
	dim     int
	embs    []vec.Matrix // per entity type, Count×Dim
	scorers []*model.Scorer
	params  [][]float32
}

// NewOracle loads the checkpoint independently of any Server.
func (f *Fixture) NewOracle(tb testing.TB) *Oracle {
	tb.Helper()
	o, err := loadOracle(f.Dir, f.Graph.Schema, f.Cfg.Dim, f.Cfg.Comparator)
	if err != nil {
		tb.Fatalf("fixture: loading oracle: %v", err)
	}
	return o
}

func loadOracle(dir string, schema *graph.Schema, dim int, comparator string) (*Oracle, error) {
	o := &Oracle{schema: schema, dim: dim}
	for t := range schema.Entities {
		ent := &schema.Entities[t]
		m := vec.NewMatrix(ent.Count, dim)
		for p := 0; p < ent.NumPartitions; p++ {
			sh, err := storage.ReadShard(storage.ShardPath(dir, t, p))
			if err != nil {
				return nil, err
			}
			base := p * ent.PartSize()
			for i := 0; i < sh.Count; i++ {
				copy(m.Row(base+i), vec.MatrixFrom(sh.Embs, sh.Count, sh.Dim).Row(i))
			}
		}
		o.embs = append(o.embs, m)
	}
	rs, err := storage.ReadRelations(dir + "/relations.pbg")
	if err != nil {
		return nil, err
	}
	for r := range schema.Relations {
		sc, err := model.NewScorer(dim, schema.Relations[r].Operator, comparator, "ranking", 1, false)
		if err != nil {
			return nil, err
		}
		o.scorers = append(o.scorers, sc)
		if len(rs.Params[r]) != sc.RelParamCount() {
			return nil, fmt.Errorf("fixture: oracle relation %d param mismatch", r)
		}
		o.params = append(o.params, rs.Params[r])
	}
	return o, nil
}

// AllScores returns the query's score against every destination-type
// entity, by ID. The query is the stored embedding of srcID (or vector,
// if non-nil), transformed and scored against every candidate row in one
// CrossScoresRows block.
func (o *Oracle) AllScores(rel int, srcID int32, vector []float32) []float32 {
	srcType := o.schema.EntityTypeIndex(o.schema.Relations[rel].SourceType)
	dstType := o.schema.EntityTypeIndex(o.schema.Relations[rel].DestType)
	src := vector
	if src == nil {
		src = o.embs[srcType].Row(int(srcID))
	}
	cands := o.embs[dstType]
	scratch := vec.NewMatrix(cands.Rows, o.dim)
	copy(scratch.Data, cands.Data)
	sc := o.scorers[rel]
	fwd, _ := sc.SplitRelParams(o.params[rel])
	q := vec.NewMatrix(1, o.dim)
	sc.Op.Apply(q.Data, src, fwd)
	sc.Cmp.Prepare(q)
	sc.Cmp.Prepare(scratch)
	scores := make([]float32, cands.Rows)
	sc.Cmp.CrossScoresRows(vec.MatrixFrom(scores, 1, len(scores)), q, scratch, nil)
	return scores
}

// TopK returns the exact K best candidates under the shared ordering.
func (o *Oracle) TopK(rel int, srcID int32, vector []float32, k int) ([]int32, []float32) {
	scores := o.AllScores(rel, srcID, vector)
	ids := make([]int32, len(scores))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		return eval.CompareScored(scores[ids[a]], ids[a], scores[ids[b]], ids[b])
	})
	if k > len(ids) {
		k = len(ids)
	}
	outIDs := make([]int32, k)
	outScores := make([]float32, k)
	for i := 0; i < k; i++ {
		outIDs[i] = ids[i]
		outScores[i] = scores[ids[i]]
	}
	return outIDs, outScores
}

// Score returns the exact pair score, via model.Scorer.Score.
func (o *Oracle) Score(rel int, src, dst int32) float32 {
	srcType := o.schema.EntityTypeIndex(o.schema.Relations[rel].SourceType)
	dstType := o.schema.EntityTypeIndex(o.schema.Relations[rel].DestType)
	return o.scorers[rel].Score(o.embs[srcType].Row(int(src)), o.embs[dstType].Row(int(dst)), o.params[rel])
}

// Rank returns the eval-convention mid-rank of dst for (src, rel),
// excluding the true edge from the candidates — the same construction
// eval.Ranker uses.
func (o *Oracle) Rank(rel int, src, dst int32) float64 {
	scores := o.AllScores(rel, src, nil)
	trueScore := scores[dst]
	others := make([]float32, 0, len(scores)-1)
	for i, s := range scores {
		if int32(i) != dst {
			others = append(others, s)
		}
	}
	return eval.MidRank(trueScore, others)
}

// Requests generates a scripted, seeded stream of top-K requests against
// the fixture graph.
func (f *Fixture) Requests(seed uint64, n, k int, exact bool) []serve.TopKRequest {
	r := rng.New(seed)
	reqs := make([]serve.TopKRequest, n)
	for i := range reqs {
		rel := r.Intn(len(f.Graph.Schema.Relations))
		srcType := f.Graph.Schema.EntityTypeIndex(f.Graph.Schema.Relations[rel].SourceType)
		reqs[i] = serve.TopKRequest{
			Rel:   rel,
			SrcID: int32(r.Intn(f.Graph.Schema.Entities[srcType].Count)),
			K:     k,
			Exact: exact,
		}
	}
	return reqs
}

// Recall returns |got ∩ want| / |want| — recall@K when want is the exact
// top-K.
func Recall(got, want []int32) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int32]struct{}, len(want))
	for _, id := range want {
		set[id] = struct{}{}
	}
	hit := 0
	for _, id := range got {
		if _, ok := set[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

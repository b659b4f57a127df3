// Package pbg is a from-scratch Go implementation of PyTorch-BigGraph
// (Lerer et al., "PyTorch-BigGraph: A Large-scale Graph Embedding System",
// SysML 2019): a system for learning embeddings of multi-relation graphs
// with billions of nodes, built around three ideas —
//
//   - block decomposition of the adjacency matrix into P×P buckets so only
//     two embedding partitions need be in memory at a time (§4.1),
//   - a distributed execution model with a bucket lock server, sharded
//     partition servers and an asynchronous parameter server (§4.2), and
//   - memory-efficient batched negative sampling that reuses a chunk's
//     candidates across its positives (§4.3).
//
// The package exposes a high-level façade; the moving parts live in
// internal/ (model, train, partition, storage, dist, eval, ...). A typical
// single-machine run:
//
//	g, _ := pbg.SocialGraph(pbg.SocialGraphConfig{Nodes: 10000, AvgOutDegree: 10, Seed: 1})
//	trainG, _, testG := pbg.Split(g, 0, 0.05, 42)
//	m, _ := pbg.Train(trainG, pbg.TrainConfig{Dim: 64, Epochs: 10})
//	metrics, _ := m.Evaluate(testG, pbg.EvalOptions{Candidates: 1000})
//	fmt.Println(metrics)
package pbg

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

// TrainConfig is the full hyperparameter surface of the trainer; see the
// field documentation in internal/train. Zero values pick paper defaults
// (d must be set; B=1000, C=50, U=50, α=0.5, Adagrad lr=0.1, ranking loss).
type TrainConfig = train.Config

// Graph re-exports the multi-relation graph container.
type Graph = graph.Graph

// EntityType declares one class of nodes and its partition count.
type EntityType = graph.EntityType

// RelationType declares one relation with its operator choice.
type RelationType = graph.RelationType

// EdgeList is columnar edge storage.
type EdgeList = graph.EdgeList

// Metrics carries link-prediction results (MRR, MR, Hits@k).
type Metrics = eval.Metrics

// NewGraph builds a validated multi-relation graph.
func NewGraph(entities []EntityType, relations []RelationType, edges *EdgeList) (*Graph, error) {
	schema, err := graph.NewSchema(entities, relations)
	if err != nil {
		return nil, err
	}
	return graph.NewGraph(schema, edges)
}

// Split partitions g's edges into train/valid/test deterministically.
func Split(g *Graph, validFrac, testFrac float64, seed uint64) (trainG, validG, testG *Graph) {
	return g.Split(validFrac, testFrac, seed)
}

// Model is a trained embedding model: entity embeddings (possibly sharded
// on disk) plus per-relation operator parameters.
type Model struct {
	trainer *train.Trainer
	graph   *Graph
	store   storage.Store
	stats   []train.EpochStats
}

// Train learns embeddings in memory on a single machine.
func Train(g *Graph, cfg TrainConfig) (*Model, error) {
	store := storage.NewMemStore(g.Schema, cfg.Dim, cfg.Seed+1, initScale(cfg))
	return trainOn(g, store, cfg, nil, "")
}

// TrainOnDisk learns embeddings with partition swapping to dir — the §4.1
// regime that bounds memory to two partitions (plus the pipelined
// executor's prefetch/write-back transients). cfg.MemBudgetBytes caps the
// resident shard bytes instead, and then also plans the bucket order and
// the prefetch depth (see internal/train).
func TrainOnDisk(g *Graph, dir string, cfg TrainConfig) (*Model, error) {
	return TrainOnDiskWithCallback(g, dir, cfg, nil)
}

// TrainOnDiskWithCallback is TrainOnDisk with a per-epoch hook (learning
// curves, IOWait/Compute overlap monitoring). A dir that already holds
// shards is a checkpoint the run continues from, relation blocks included.
func TrainOnDiskWithCallback(g *Graph, dir string, cfg TrainConfig, onEpoch func(train.EpochStats)) (*Model, error) {
	store, err := storage.NewDiskStore(dir, g.Schema, cfg.Dim, cfg.Seed+1, initScale(cfg))
	if err != nil {
		return nil, err
	}
	return trainOn(g, store, cfg, onEpoch, dir)
}

// holdsShards reports whether dir holds a shard file of schema.
func holdsShards(dir string, schema *graph.Schema) bool {
	for t, e := range schema.Entities {
		for p := 0; p < e.NumPartitions; p++ {
			if _, err := os.Stat(storage.ShardPath(dir, t, p)); err == nil {
				return true
			}
		}
	}
	return false
}

// EvaluateCheckpoint ranks test's edges against the model a run over trainG
// with cfg checkpointed into dir (Model.Checkpoint or a cluster's cut). It
// reads the shards through serve's read-only ShardSet and the relation
// parameters through storage's one gate, which admits a checkpoint without
// them only when no relation's operator has parameters, and writes nothing
// into dir.
func EvaluateCheckpoint(trainG *Graph, dir string, cfg TrainConfig, test *Graph, opts EvalOptions) (Metrics, error) {
	scorers, err := train.NewScorers(trainG.Schema, cfg)
	if err != nil {
		return Metrics{}, err
	}
	counts := make([]int, len(scorers))
	for r, sc := range scorers {
		counts[r] = sc.RelParamCount()
	}
	params, err := storage.ReadRelationParams(dir, counts)
	if re := (*storage.RelationError)(nil); errors.As(err, &re) {
		rel := trainG.Schema.Relations[re.Rel]
		err = fmt.Errorf("relation %q (%s): %w", rel.Name, rel.Operator, err)
	}
	if err != nil {
		return Metrics{}, fmt.Errorf("pbg: %w", err)
	}
	ss, err := serve.OpenShardSet(dir, trainG.Schema, cfg.Dim)
	if err != nil {
		return Metrics{}, err
	}
	defer ss.Close()
	ck := &checkpoint{ss: ss, scorers: scorers, params: params}
	return evaluate(trainG, ck, ck, cfg.Dim, test, opts)
}

// checkpoint is a checkpoint directory as the evaluator reads it.
type checkpoint struct {
	ss      *serve.ShardSet
	scorers []*model.Scorer
	params  [][]float32
}

func (c *checkpoint) Embedding(t int, id int32, out []float32) ([]float32, error) {
	c.ss.CopyRow(t, id, out)
	return out, nil
}

func (c *checkpoint) Scorer(rel int) *model.Scorer { return c.scorers[rel] }
func (c *checkpoint) RelParams(rel int) []float32  { return c.params[rel] }

// Close persists what the model's store still holds in memory and releases
// it; a DiskStore-backed model's directory is complete afterwards.
func (m *Model) Close() error { return m.store.Close() }

func initScale(cfg TrainConfig) float32 {
	if cfg.InitScale != 0 {
		return cfg.InitScale
	}
	return 1
}

// trainOn trains g over store. A store swapping through dir ("" for none)
// continues from the shards already there, so the trainer starts from dir's
// relation blocks too, read through storage.ReadRelationParams.
func trainOn(g *Graph, store storage.Store, cfg TrainConfig, onEpoch func(train.EpochStats), dir string) (*Model, error) {
	tr, err := train.New(g, store, cfg)
	if err == nil && dir != "" && holdsShards(dir, g.Schema) {
		counts := make([]int, len(g.Schema.Relations))
		for r := range counts {
			counts[r] = tr.Scorer(r).RelParamCount()
		}
		var params [][]float32
		if params, err = storage.ReadRelationParams(dir, counts); err == nil {
			for r, p := range params {
				tr.WithRelParams(r, func(dst []float32) { copy(dst, p) })
			}
		}
	}
	if err != nil {
		return nil, err
	}
	stats, err := tr.Train(onEpoch)
	if err != nil {
		// Bound the background write-back goroutines' lifetime even on
		// failure, so a caller that deletes the output dir of a dead run
		// cannot race in-flight shard writes.
		if d, ok := store.(interface{ Drain() error }); ok {
			_ = d.Drain()
		}
		return nil, err
	}
	// Stores with asynchronous write-back (DiskStore) may still have the
	// final epoch's evictions in flight; wait for them so a nil error means
	// the trained shards really are on disk.
	if d, ok := store.(interface{ Drain() error }); ok {
		if err := d.Drain(); err != nil {
			return nil, err
		}
	}
	return &Model{trainer: tr, graph: g, store: store, stats: stats}, nil
}

// EpochStats returns per-epoch training statistics.
func (m *Model) EpochStats() []train.EpochStats { return m.stats }

// Dim returns the embedding dimension.
func (m *Model) Dim() int { return m.trainer.Config().Dim }

// Embedding returns a copy of the embedding for entity id of the named
// entity type.
func (m *Model) Embedding(entityType string, id int32) ([]float32, error) {
	ti := m.graph.Schema.EntityTypeIndex(entityType)
	if ti < 0 {
		return nil, fmt.Errorf("pbg: unknown entity type %q", entityType)
	}
	if err := m.checkID("id", ti, id); err != nil {
		return nil, err
	}
	view := m.trainer.NewView()
	defer view.Close()
	out := make([]float32, m.Dim())
	return view.Embedding(ti, id, out)
}

// checkID returns an error, in serve.Server.Score's form, unless id names
// an entity of type ti.
func (m *Model) checkID(what string, ti int, id int32) error {
	if id < 0 || int(id) >= m.graph.Schema.Entities[ti].Count {
		return fmt.Errorf("pbg: %s %d out of range", what, id)
	}
	return nil
}

// Score computes f(src, rel, dst) with the trained parameters.
func (m *Model) Score(rel int, src, dst int32) (float32, error) {
	schema := m.graph.Schema
	if rel < 0 || rel >= len(schema.Relations) {
		return 0, fmt.Errorf("pbg: relation %d out of range", rel)
	}
	si := schema.EntityTypeIndex(schema.Relations[rel].SourceType)
	di := schema.EntityTypeIndex(schema.Relations[rel].DestType)
	if err := m.checkID("src", si, src); err != nil {
		return 0, err
	}
	if err := m.checkID("dst", di, dst); err != nil {
		return 0, err
	}
	view := m.trainer.NewView()
	defer view.Close()
	sbuf := make([]float32, m.Dim())
	dbuf := make([]float32, m.Dim())
	if _, err := view.Embedding(si, src, sbuf); err != nil {
		return 0, err
	}
	if _, err := view.Embedding(di, dst, dbuf); err != nil {
		return 0, err
	}
	return m.trainer.Scorer(rel).Score(sbuf, dbuf, m.trainer.RelParams(rel)), nil
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	ID    int32
	Score float32
}

// NearestNeighbors returns the k entities of entityType most similar to id
// under cosine similarity of raw embeddings (the typical downstream use of
// the released Freebase embeddings).
func (m *Model) NearestNeighbors(entityType string, id int32, k int) ([]Neighbor, error) {
	ti := m.graph.Schema.EntityTypeIndex(entityType)
	if ti < 0 {
		return nil, fmt.Errorf("pbg: unknown entity type %q", entityType)
	}
	if err := m.checkID("id", ti, id); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("pbg: k %d out of range", k)
	}
	count := m.graph.Schema.Entities[ti].Count
	view := m.trainer.NewView()
	defer view.Close()
	q := make([]float32, m.Dim())
	if _, err := view.Embedding(ti, id, q); err != nil {
		return nil, err
	}
	buf := make([]float32, m.Dim())
	out := make([]Neighbor, 0, count-1)
	for other := int32(0); int(other) < count; other++ {
		if other == id {
			continue
		}
		if _, err := view.Embedding(ti, other, buf); err != nil {
			return nil, err
		}
		out = append(out, Neighbor{ID: other, Score: vec.Cosine(q, buf)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// EvalOptions configures link-prediction evaluation.
type EvalOptions struct {
	// Candidates per test edge; 0 ranks against all entities.
	Candidates int
	// ByPrevalence samples candidates by training-set prevalence (§5.4.2's
	// protocol) instead of uniformly.
	ByPrevalence bool
	// Filtered removes known true edges from candidates; Known must list
	// the edge sets to filter (§5.4.1).
	Filtered bool
	Known    []*EdgeList
	// MaxEdges caps evaluated edges (0 = all).
	MaxEdges int
	Seed     uint64
}

// Evaluate ranks the test edges and returns MRR/MR/Hits@k.
func (m *Model) Evaluate(test *Graph, opts EvalOptions) (Metrics, error) {
	view := m.trainer.NewView()
	defer view.Close()
	return evaluate(m.graph, view, m.trainer, m.Dim(), test, opts)
}

// evaluate ranks test's edges against the dim-wide embeddings emb holds,
// scored with the relation parameters of scorers, after a model trained on
// trainG.
func evaluate(trainG *Graph, emb eval.EmbeddingSource, scorers eval.ScorerSource, dim int, test *Graph, opts EvalOptions) (Metrics, error) {
	rk := eval.NewRanker(trainG.Schema, emb, scorers, dim, graph.ComputeDegrees(trainG))
	cfg := eval.Config{Mode: eval.CandidatesUniform, K: opts.Candidates, Filtered: opts.Filtered, MaxEdges: opts.MaxEdges, Seed: opts.Seed}
	switch {
	case opts.Candidates == 0:
		cfg.Mode = eval.CandidatesAll
	case opts.ByPrevalence:
		cfg.Mode = eval.CandidatesPrevalence
	}
	if opts.Filtered {
		cfg.Known = graph.NewEdgeSet(append([]*EdgeList{trainG.Edges}, opts.Known...)...)
	}
	return rk.Evaluate(test.Edges, cfg)
}

// EmbeddingMatrix materialises all embeddings of one entity type into a
// dense n×d matrix (features for downstream tasks, §5.3).
func (m *Model) EmbeddingMatrix(entityType string) (vec.Matrix, error) {
	ti := m.graph.Schema.EntityTypeIndex(entityType)
	if ti < 0 {
		return vec.Matrix{}, fmt.Errorf("pbg: unknown entity type %q", entityType)
	}
	count := m.graph.Schema.Entities[ti].Count
	out := vec.NewMatrix(count, m.Dim())
	view := m.trainer.NewView()
	defer view.Close()
	for id := int32(0); int(id) < count; id++ {
		if _, err := view.Embedding(ti, id, out.Row(int(id))); err != nil {
			return vec.Matrix{}, err
		}
	}
	return out, nil
}

// Checkpoint persists all shards and relation parameters under dir, fp32.
// Into the directory the model's own DiskStore swaps through, that is a
// Flush, after materialising any shard training never touched: each shard
// is written once. Anywhere else each shard file is written straight from
// the trained shard while it is acquired.
func (m *Model) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ds, own := m.store.(*storage.DiskStore)
	own = own && sameDir(ds.Dir(), dir)
	for ti, e := range m.graph.Schema.Entities {
		for p := 0; p < e.NumPartitions; p++ {
			path := storage.ShardPath(dir, ti, p)
			if _, err := os.Stat(path); own && err == nil {
				continue
			}
			src, err := m.store.Acquire(ti, p)
			if err != nil {
				return err
			}
			if !own {
				err = storage.WriteShard(path, src)
			}
			if rerr := m.store.Release(ti, p); err == nil {
				err = rerr
			}
			if err != nil {
				return err
			}
		}
	}
	if own {
		if err := ds.Flush(); err != nil {
			return err
		}
	}
	params := make([][]float32, len(m.graph.Schema.Relations))
	for r := range params {
		params[r] = m.trainer.RelParams(r)
	}
	return storage.WriteRelationParams(dir, params)
}

// sameDir reports whether a and b name one directory.
func sameDir(a, b string) bool {
	ai, aerr := os.Stat(a)
	bi, berr := os.Stat(b)
	return aerr == nil && berr == nil && os.SameFile(ai, bi)
}

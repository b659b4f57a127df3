// Package eval implements the link-prediction evaluation protocols from §5:
// for each test edge, the true destination (and source) is ranked among
// candidate corrupted edges, and MRR (raw and filtered), MR and Hits@K are
// reported. Candidate sets cover the paper's variants: every entity, k
// uniformly sampled entities, or k entities sampled by their training-set
// prevalence (the 10,000-candidate protocol of §5.4.2).
package eval

import (
	"fmt"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Metrics aggregates ranking results. Ranks are mid-rank tie-adjusted
// (see rankSide), so MR and the rank thresholds behind MRR/Hits@K are
// fractional-rank-aware: a candidate scoring exactly the true score
// contributes half a rank position.
type Metrics struct {
	MRR    float64 // mean reciprocal rank
	MR     float64 // mean rank
	Hits1  float64
	Hits10 float64
	Count  int // ranked examples
}

// String renders the metrics like the paper's tables.
func (m Metrics) String() string {
	return fmt.Sprintf("MRR %.3f  MR %.1f  Hits@1 %.3f  Hits@10 %.3f  (n=%d)", m.MRR, m.MR, m.Hits1, m.Hits10, m.Count)
}

func (m *Metrics) add(rank float64) {
	m.MRR += 1 / rank
	m.MR += rank
	if rank <= 1 {
		m.Hits1++
	}
	if rank <= 10 {
		m.Hits10++
	}
	m.Count++
}

func (m *Metrics) finish() {
	if m.Count == 0 {
		return
	}
	n := float64(m.Count)
	m.MRR /= n
	m.MR /= n
	m.Hits1 /= n
	m.Hits10 /= n
}

// CandidateMode selects how corrupted-edge candidates are drawn.
type CandidateMode int

const (
	// CandidatesAll ranks against every entity of the correct type
	// (FB15k-style, feasible on small graphs).
	CandidatesAll CandidateMode = iota
	// CandidatesUniform samples K entities uniformly.
	CandidatesUniform
	// CandidatesPrevalence samples K entities by training prevalence — the
	// §5.4.2 protocol that avoids degree-distribution shortcuts.
	CandidatesPrevalence
)

// Config controls one evaluation run.
type Config struct {
	Mode CandidateMode
	// K is the number of sampled candidates (ignored for CandidatesAll).
	K int
	// Filtered removes known-true edges from the candidates (§5.4.1). The
	// Known set must then be provided.
	Filtered bool
	Known    *graph.EdgeSet
	// BothSides ranks both corrupted destinations and corrupted sources
	// (standard KG protocol). When false only destinations are ranked.
	BothSides bool
	// MaxEdges caps evaluated test edges (0 = all).
	MaxEdges int
	Seed     uint64
}

// EmbeddingSource supplies entity embeddings; satisfied by train.View.
type EmbeddingSource interface {
	Embedding(typeIdx int, id int32, out []float32) ([]float32, error)
}

// ScorerSource supplies the per-relation scorer and parameters; satisfied by
// the trainer (and the distributed coordinator).
type ScorerSource interface {
	Scorer(rel int) *model.Scorer
	RelParams(rel int) []float32
}

// Ranker evaluates link prediction on a test edge list.
type Ranker struct {
	schema  *graph.Schema
	emb     EmbeddingSource
	scorers ScorerSource
	dim     int
	degrees *graph.Degrees
}

// NewRanker builds an evaluator. degrees is required for
// CandidatesPrevalence (pass training-set degrees).
func NewRanker(schema *graph.Schema, emb EmbeddingSource, scorers ScorerSource, dim int, degrees *graph.Degrees) *Ranker {
	return &Ranker{schema: schema, emb: emb, scorers: scorers, dim: dim, degrees: degrees}
}

// Evaluate ranks every test edge under cfg and returns aggregate metrics.
func (rk *Ranker) Evaluate(test *graph.EdgeList, cfg Config) (Metrics, error) {
	if cfg.K == 0 {
		cfg.K = 1000
	}
	r := rng.New(cfg.Seed)
	var m Metrics
	n := test.Len()
	if cfg.MaxEdges > 0 && n > cfg.MaxEdges {
		n = cfg.MaxEdges
	}
	// Pre-build prevalence alias tables per entity type on demand.
	aliases := map[int]*rng.Alias{}
	aliasFor := func(typeIdx int) (*rng.Alias, error) {
		if a, ok := aliases[typeIdx]; ok {
			return a, nil
		}
		if rk.degrees == nil {
			return nil, fmt.Errorf("eval: prevalence candidates need degrees")
		}
		a := rng.NewAlias(rk.degrees.ByType[typeIdx])
		aliases[typeIdx] = a
		return a, nil
	}

	srcBuf := make([]float32, rk.dim)
	dstBuf := make([]float32, rk.dim)
	for i := 0; i < n; i++ {
		s, rel, d := test.Edge(i)
		srcType := rk.schema.EntityTypeIndex(rk.schema.Relations[rel].SourceType)
		dstType := rk.schema.EntityTypeIndex(rk.schema.Relations[rel].DestType)
		if _, err := rk.emb.Embedding(srcType, s, srcBuf); err != nil {
			return m, err
		}
		if _, err := rk.emb.Embedding(dstType, d, dstBuf); err != nil {
			return m, err
		}
		// Rank true destination among corrupted destinations.
		rank, err := rk.rankSide(r, cfg, aliasFor, rel, s, d, dstType, srcBuf, dstBuf, false)
		if err != nil {
			return m, err
		}
		m.add(rank)
		if cfg.BothSides {
			rank, err := rk.rankSide(r, cfg, aliasFor, rel, s, d, srcType, srcBuf, dstBuf, true)
			if err != nil {
				return m, err
			}
			m.add(rank)
		}
	}
	m.finish()
	return m, nil
}

// rankSide ranks the true endpoint among candidates on one side.
// corruptSource false: candidates replace d; true: candidates replace s.
//
// Ties are handled with the mid-rank convention of MidRank (rank.go),
// shared with the serving layer. The optimistic rank (counting only strict
// wins) silently inflated the metrics — a degenerate scorer emitting one
// constant value tied every candidate and walked away with a perfect
// MRR/Hits@1, when its true ranking power is chance. Under mid-rank that
// scorer gets rank 1+K/2, i.e. MRR ≈ 2/(K+2), which a test pins.
func (rk *Ranker) rankSide(r *rng.RNG, cfg Config, aliasFor func(int) (*rng.Alias, error),
	rel, s, d int32, candType int, srcEmb, dstEmb []float32, corruptSource bool) (float64, error) {

	sc := rk.scorers.Scorer(int(rel))
	params := rk.scorers.RelParams(int(rel))
	// True edge score. Corrupted-source ranking uses the reverse direction
	// under reciprocal relations.
	var trueScore float32
	if corruptSource {
		trueScore = sc.ScoreReverse(srcEmb, dstEmb, params)
	} else {
		trueScore = sc.Score(srcEmb, dstEmb, params)
	}

	count := rk.schema.Entities[candType].Count
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
		a, err := aliasFor(candType)
		if err != nil {
			return 0, err
		}
		candIDs = make([]int32, cfg.K)
		for i := range candIDs {
			candIDs[i] = int32(a.Sample(r))
		}
	default:
		return 0, fmt.Errorf("eval: unknown candidate mode %d", cfg.Mode)
	}

	// Batch-score candidates.
	cand := vec.NewMatrix(len(candIDs), rk.dim)
	keep := candIDs[:0]
	row := 0
	for _, id := range candIDs {
		if corruptSource {
			if id == s {
				continue
			}
			if cfg.Filtered && cfg.Known != nil && cfg.Known.Contains(id, rel, d) {
				continue
			}
		} else {
			if id == d {
				continue
			}
			if cfg.Filtered && cfg.Known != nil && cfg.Known.Contains(s, rel, id) {
				continue
			}
		}
		if _, err := rk.emb.Embedding(candType, id, cand.Row(row)); err != nil {
			return 0, err
		}
		keep = append(keep, id)
		row++
	}
	cand = vec.MatrixFrom(cand.Data[:row*rk.dim], row, rk.dim)
	scores := make([]float32, row)
	if corruptSource {
		// Score candidates as sources against the fixed destination:
		// f(s', r, d). Compute one by one through the operator (candidates
		// must be transformed); ScoreMany transforms the query side, so
		// evaluate per candidate.
		for j := 0; j < row; j++ {
			scores[j] = sc.ScoreReverse(cand.Row(j), dstEmb, params)
		}
	} else {
		sc.ScoreMany(scores, srcEmb, params, cand)
	}
	return MidRank(trueScore, scores), nil
}

// Package eval implements the link-prediction evaluation protocols from §5:
// for each test edge, the true destination (and source) is ranked among
// candidate corrupted edges, and MRR (raw and filtered), MR and Hits@K are
// reported. Candidate sets cover the paper's variants: every entity, k
// uniformly sampled entities, or k entities sampled by their training-set
// prevalence (the 10,000-candidate protocol of §5.4.2).
package eval

import (
	"fmt"
	"slices"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Metrics aggregates ranking results. Ranks are mid-rank tie-adjusted
// (see rank), so MR and the rank thresholds behind MRR/Hits@K are
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

// Ranker evaluates link prediction on a test edge list. It keeps its
// scratch from call to call, so it is not safe for concurrent use.
type Ranker struct {
	schema  *graph.Schema
	emb     EmbeddingSource
	scorers ScorerSource
	dim     int
	degrees *graph.Degrees

	// Per entity type: the rows as this call gathered them, got[t][id] the
	// call that gathered row id (a MemStore view reads live rows, which
	// training changes between calls), mask[t][id] the last side that left
	// id out.
	rows      [][]float32
	got, mask [][]uint64
	aliases   []*rng.Alias // prevalence candidates
	call      uint64       // Evaluate calls so far
	side      uint64       // sides ranked so far
	ids       []int32      // the side's query, true endpoint and candidates
	block     []float32    // their rows
	scores    []float32
}

// NewRanker builds an evaluator. degrees is required for
// CandidatesPrevalence (pass training-set degrees).
func NewRanker(schema *graph.Schema, emb EmbeddingSource, scorers ScorerSource, dim int, degrees *graph.Degrees) *Ranker {
	n := len(schema.Entities)
	rk := &Ranker{schema: schema, emb: emb, scorers: scorers, dim: dim, degrees: degrees,
		rows: make([][]float32, n), got: make([][]uint64, n), mask: make([][]uint64, n), aliases: make([]*rng.Alias, n)}
	for t, e := range schema.Entities {
		rk.rows[t], rk.got[t], rk.mask[t] = make([]float32, e.Count*dim), make([]uint64, e.Count), make([]uint64, e.Count)
	}
	return rk
}

// Evaluate ranks every test edge under cfg and returns aggregate metrics.
func (rk *Ranker) Evaluate(test *graph.EdgeList, cfg Config) (Metrics, error) {
	var m Metrics
	switch {
	case cfg.Mode < CandidatesAll || cfg.Mode > CandidatesPrevalence:
		return m, fmt.Errorf("eval: unknown candidate mode %d", cfg.Mode)
	case cfg.Mode == CandidatesPrevalence && rk.degrees == nil:
		return m, fmt.Errorf("eval: prevalence candidates need degrees")
	case cfg.Filtered && cfg.Known == nil:
		return m, fmt.Errorf("eval: filtered metrics need the Known edges")
	case cfg.K < 0:
		return m, fmt.Errorf("eval: K must not be negative, got %d", cfg.K)
	case cfg.MaxEdges < 0:
		return m, fmt.Errorf("eval: MaxEdges must not be negative, got %d", cfg.MaxEdges)
	}
	if cfg.K == 0 {
		cfg.K = 1000
	}
	n := test.Len()
	if cfg.MaxEdges > 0 {
		n = min(n, cfg.MaxEdges)
	}
	rk.call++
	r := rng.New(cfg.Seed)
	for i := 0; i < n; i++ {
		s, rel, d := test.Edge(i)
		for side := 0; side == 0 || side == 1 && cfg.BothSides; side++ {
			rank, err := rk.rank(r, cfg, s, rel, d, side == 1)
			if err != nil {
				return m, err
			}
			m.add(rank)
		}
	}
	m.finish()
	return m, nil
}

// rank ranks the true endpoint of (s, rel, d) among the candidates of one
// side, corrupted destinations or (corruptSource) corrupted sources. Every
// mode, side and filter takes this one path: the rows of [query; true
// endpoint; candidates] are copied from the call's table into one block, the
// relation operator applied to the query (or, for corrupted sources without
// reciprocal relations, f(s', r, d) = sim(g(s'), d), to every other row), the
// query scored against the rest, and the true endpoint mid-ranked (MidRank).
func (rk *Ranker) rank(r *rng.RNG, cfg Config, s, rel, d int32, corruptSource bool) (float64, error) {
	sc := rk.scorers.Scorer(int(rel))
	params, rev := sc.SplitRelParams(rk.scorers.RelParams(int(rel)))
	fixedT := rk.schema.EntityTypeIndex(rk.schema.Relations[rel].SourceType)
	candT := rk.schema.EntityTypeIndex(rk.schema.Relations[rel].DestType)
	fixed, truth, queryOp := s, d, true
	if corruptSource {
		fixedT, candT, fixed, truth, queryOp = candT, fixedT, d, s, sc.Reciprocal
		if queryOp {
			params = rev
		}
	}
	var known []int32
	if cfg.Filtered && corruptSource {
		known = cfg.Known.Sources(rel, d)
	} else if cfg.Filtered {
		known = cfg.Known.Destinations(s, rel)
	}

	// The candidates: every entity or K draws, less those the side masks.
	rk.side++
	mask := rk.mask[candT]
	mask[truth] = rk.side
	for _, id := range known {
		mask[id] = rk.side
	}
	count, draws := rk.schema.Entities[candT].Count, cfg.K
	if cfg.Mode == CandidatesAll {
		draws = count
	} else if cfg.Mode == CandidatesPrevalence && rk.aliases[candT] == nil {
		rk.aliases[candT] = rng.NewAlias(rk.degrees.ByType[candT])
	}
	rk.ids = append(rk.ids[:0], fixed, truth)
	for k := 0; k < draws; k++ {
		id := int32(k)
		switch cfg.Mode {
		case CandidatesUniform:
			id = int32(r.Intn(count))
		case CandidatesPrevalence:
			id = int32(rk.aliases[candT].Sample(r))
		}
		if mask[id] != rk.side {
			rk.ids = append(rk.ids, id)
		}
	}

	m, dim := len(rk.ids), rk.dim
	rk.block = slices.Grow(rk.block[:0], m*dim)[:m*dim]
	block := vec.MatrixFrom(rk.block, m, dim)
	for j, id := range rk.ids {
		t := candT
		if j == 0 {
			t = fixedT
		}
		row, err := rk.row(t, id)
		if err != nil {
			return 0, err
		}
		if (j == 0) == queryOp {
			sc.Op.Apply(block.Row(j), row, params)
		} else {
			copy(block.Row(j), row)
		}
	}
	sc.Cmp.Prepare(block)
	rk.scores = slices.Grow(rk.scores[:0], m-1)[:m-1]
	sc.Cmp.CrossScoresRows(vec.MatrixFrom(rk.scores, 1, m-1), vec.MatrixFrom(rk.block[:dim], 1, dim), vec.MatrixFrom(rk.block[dim:], m-1, dim), nil)
	return MidRank(rk.scores[0], rk.scores[1:]), nil
}

// row returns entity id of type t as this call gathered it, gathering it on
// the call's first touch.
func (rk *Ranker) row(t int, id int32) ([]float32, error) {
	row := rk.rows[t][int(id)*rk.dim : (int(id)+1)*rk.dim]
	if rk.got[t][id] != rk.call {
		if _, err := rk.emb.Embedding(t, id, row); err != nil {
			return nil, err
		}
		rk.got[t][id] = rk.call
	}
	return row, nil
}

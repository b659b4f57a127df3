package bench

import (
	"fmt"

	"pbg/internal/model"
	"pbg/internal/vec"
)

// EmbeddingTable adapts a flat baseline embedding matrix to the evaluation
// interfaces (eval.EmbeddingSource and eval.ScorerSource), so DeepWalk and
// MILE are ranked under exactly the same protocol as PBG. Scoring uses
// cosine similarity with the identity operator, the standard choice for
// single-relation baselines.
type EmbeddingTable struct {
	Emb    vec.Matrix
	scorer *model.Scorer
}

// NewEmbeddingTable wraps a trained matrix.
func NewEmbeddingTable(emb vec.Matrix) (*EmbeddingTable, error) {
	sc, err := model.NewScorer(emb.Cols, "identity", "cos", "ranking", 0.1, false)
	if err != nil {
		return nil, err
	}
	return &EmbeddingTable{Emb: emb, scorer: sc}, nil
}

// Embedding implements eval.EmbeddingSource.
func (t *EmbeddingTable) Embedding(typeIdx int, id int32, out []float32) ([]float32, error) {
	if typeIdx != 0 {
		return nil, fmt.Errorf("baselines: single entity type only")
	}
	if int(id) >= t.Emb.Rows {
		return nil, fmt.Errorf("baselines: id %d out of range", id)
	}
	copy(out, t.Emb.Row(int(id)))
	return out, nil
}

// Scorer implements eval.ScorerSource.
func (t *EmbeddingTable) Scorer(rel int) *model.Scorer { return t.scorer }

// RelParams implements eval.ScorerSource (identity operator: no params).
func (t *EmbeddingTable) RelParams(rel int) []float32 { return nil }

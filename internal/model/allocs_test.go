//go:build !race

package model

import "testing"

// The race detector's instrumentation allocates, so the count is pinned on
// plain builds only (as in internal/serve).

// TestScoreChunkSteadyStateAllocs pins that a warm ScoreChunk on the kg_mem
// model (complex_diagonal, dot) never touches the allocator under any of the
// three losses: every buffer comes from the Workspace and the ChunkGrad,
// including the rows the operator's Backward accumulates into (~150 calls per
// 50-edge chunk) and the gradient block's row lists and transpose, whose room
// NewWorkspace reserves for a fully dense block.
func TestScoreChunkSteadyStateAllocs(t *testing.T) {
	for _, loss := range allLossNames {
		for _, reciprocal := range []bool{false, true} {
			s, err := NewScorer(64, "complex_diagonal", "dot", loss, 0.1, reciprocal)
			if err != nil {
				t.Fatal(err)
			}
			in := makeChunk(s, 50, 50, 29)
			ws := s.NewWorkspace(50, 50)
			grad := s.NewChunkGrad(50, 50)
			if allocs := testing.AllocsPerRun(10, func() { s.ScoreChunk(ws, in, grad) }); allocs != 0 {
				t.Errorf("%s reciprocal=%v: warm ScoreChunk made %.0f allocations, want 0", loss, reciprocal, allocs)
			}
		}
	}
}

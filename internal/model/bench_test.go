package model

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Throughput of the backward pass follows the density of the gradient block —
// the share of negatives that violate the margin — so the benchmarks below
// pin it: chunkAtDensity plants each positive's destination along its
// transformed source with a gain found by bisection, and every benchmark
// reports the density it actually ran at as a metric, so it cannot drift
// silently.

// chunkAtDensity builds a c-positive, u-candidate chunk for s whose gradient
// blocks have about the target share of non-zeros, and returns that share.
// The chunk is laid out as the trainer gathers one (asBlocks), so ScoreChunk
// reads its rows in place.
func chunkAtDensity(s *Scorer, c, u int, target float64) (*ChunkInput, float64) {
	in := asBlocks(makeChunk(s, c, u, 41))
	if s.Reciprocal && s.Op.Name() == "complex_diagonal" {
		// The reverse parameters are the forward ones conjugated, so that
		// f_rev(s, r, d) = f(s, r, d) and the planted gain sets the density of
		// both sides, as it does without reciprocal relations.
		h := len(in.RelFwd) / 2
		for k := range in.RelRev {
			in.RelRev[k] = in.RelFwd[k]
			if k >= h {
				in.RelRev[k] = -in.RelFwd[k]
			}
		}
	}
	noise := vec.NewMatrix(c, s.Dim)
	copy(noise.Data, in.Dst.Data)
	ws, grad := s.NewWorkspace(c, u), s.NewChunkGrad(c, u)
	ts := make([]float32, s.Dim)
	density := func(gain float32) float64 {
		for i := 0; i < c; i++ {
			s.Op.Apply(ts, in.Src.Row(i), in.RelFwd)
			copy(in.Dst.Row(i), noise.Row(i))
			vec.Axpy(gain, ts, in.Dst.Row(i))
		}
		s.ScoreChunk(ws, in, grad)
		return float64(grad.ActiveNegs) / float64(grad.NegCount)
	}
	lo, hi := float32(-64), float32(64) // density falls as the gain rises
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if density(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return in, density(hi)
}

func BenchmarkScoreChunk(b *testing.B) {
	// The reciprocal row is the path whose two sides use different
	// parameters and so share nothing: two full blocks, 2C transforms.
	for _, shape := range []struct {
		name       string
		c, u, d    int
		operator   string
		reciprocal bool
	}{
		{"kg_50x50x64_complex", 50, 50, 64, "complex_diagonal", false},
		{"kg_50x50x64_complex_reciprocal", 50, 50, 64, "complex_diagonal", true},
		{"dist_50x50x64_identity", 50, 50, 64, "identity", false},
		{"ooc_10x10x128_identity", 10, 10, 128, "identity", false},
	} {
		for _, target := range []float64{0.1, 0.25, 1} {
			b.Run(fmt.Sprintf("%s/density_%v", shape.name, target), func(b *testing.B) {
				s, err := NewScorer(shape.d, shape.operator, "dot", "ranking", 0.1, shape.reciprocal)
				if err != nil {
					b.Fatal(err)
				}
				in, density := chunkAtDensity(s, shape.c, shape.u, target)
				ws, grad := s.NewWorkspace(shape.c, shape.u), s.NewChunkGrad(shape.c, shape.u)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.ScoreChunk(ws, in, grad)
				}
				b.ReportMetric(density, "density")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.c), "ns/edge")
			})
		}
	}
}

// BenchmarkLossPass times the fused mask+loss pass alone on the kg_mem score
// block, per score entry. The ranking block sits at training's density
// (about a quarter of the negatives violate the margin); logistic and
// softmax emit every entry and are bound by math.Exp.
func BenchmarkLossPass(b *testing.B) {
	const c, n = 50, 100
	r := rng.New(5)
	pos := make([]float32, c)
	neg := vec.NewMatrix(c, n)
	fill(r, neg.Data)
	for i := range pos {
		pos[i] = 0.1 + 0.5*0.6745 // the upper quartile of fill's N(0, ½²): a quarter of each row violates
	}
	posIDs, candIDs := make([]int32, c), make([]int32, n)
	for j := range candIDs {
		candIDs[j] = int32(j)
	}
	copy(posIDs, candIDs)
	for _, name := range allLossNames {
		b.Run(name+"/50x100", func(b *testing.B) {
			l, _ := NewLoss(name, 0.1)
			var g vec.SparseRows
			gPos := make([]float32, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Compute(&g, gPos, pos, neg, posIDs, candIDs, 1)
			}
			b.ReportMetric(float64(len(g.Idx))/float64(c*n-c), "density")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c*n), "ns/entry")
			if math.IsNaN(float64(gPos[0])) {
				b.Fatal("NaN gradient")
			}
		})
	}
}

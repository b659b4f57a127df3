package bench

import (
	"fmt"
	"time"

	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/partition"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

// Figure1Ordering reproduces the claim attached to Figure 1 (right): the
// inside-out bucket ordering yields better embeddings than alternatives
// while minimising disk swaps. Each ordering trains the same partitioned
// graph; the report shows final MRR and the partition-load count.
func Figure1Ordering(s Scale) (*Report, error) {
	const parts = 8
	rep := &Report{ID: "figure1", Title: "Bucket ordering ablation (paper Figure 1 / §4.1)"}
	for _, ord := range []string{partition.OrderInsideOut, partition.OrderChained, partition.OrderSequential, partition.OrderRandom} {
		g, err := socialGraph(s, parts, s.Seed)
		if err != nil {
			return nil, err
		}
		trainG, _, testG := g.Split(0, 0.1, 5)
		deg := graph.ComputeDegrees(trainG)
		store := storage.NewMemStore(g.Schema, s.Dim, s.Seed+1, 1)
		tr, err := train.New(trainG, store, train.Config{
			Dim: s.Dim, Epochs: s.Epochs / 2, Workers: s.Workers, Seed: s.Seed,
			BucketOrder: ord, Comparator: "cos",
		})
		if err != nil {
			return nil, err
		}
		stats, err := tr.Train(nil)
		if err != nil {
			return nil, err
		}
		view := tr.NewView()
		m, err := evalUniform(s, trainG.Schema, view, tr, deg, testG.Edges)
		_ = view.Close()
		if err != nil {
			return nil, err
		}
		order, _ := partition.Order(ord, parts, parts, s.Seed)
		rep.Rows = append(rep.Rows, Row{Label: ord, Values: map[string]float64{
			"MRR": m.MRR, "Hits@10": m.Hits10,
			"swaps":     float64(partition.SwapCount(order)),
			"IO/epoch":  float64(stats[0].PartitionIO),
			"invariant": boolAs01(partition.CheckInvariant(order)),
		}})
	}
	rep.Notes = "paper: inside-out achieves the best embeddings while minimising swaps; random may violate the initialisation invariant"
	return rep, nil
}

func boolAs01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Figure4Negatives reproduces Figure 4: training throughput (edges/s) as a
// function of the number of negatives Bn per edge, with batched negatives
// (chunked reuse, C=50) versus unbatched (fresh negatives per edge, C=1) at
// d=100, gathering rows from an embedding table sized well beyond the LLC
// so that unbatched sampling is memory-bound, as on the paper's testbed.
//
// Reproduction caveat: the paper's batched curve is flat up to Bn≈100
// because MKL GEMMs make the Bn·d FLOPs nearly free; scalar Go kernels pay
// for FLOPs sooner, so our batched curve decays earlier. The gather-reuse
// effect itself reproduces: batched stays a constant factor (2.5–8×) above
// unbatched at every Bn, and unbatched decays steeply with Bn.
func Figure4Negatives(s Scale) (*Report, error) {
	const dim = 100
	rep := &Report{ID: "figure4", Title: "Negatives throughput (paper Figure 4, d=100)"}
	sc, err := model.NewScorer(dim, "identity", "dot", "ranking", 0.1, false)
	if err != nil {
		return nil, err
	}
	edges := 3000
	for _, bn := range []int{10, 20, 50, 100, 200, 500} {
		for _, mode := range []string{"batched", "unbatched"} {
			var c, u int
			if mode == "batched" {
				c = 50
				if bn/2 < c {
					c = bn / 2
				}
				if c < 1 {
					c = 1
				}
				u = bn/2 - c + 1
				if u < 0 {
					u = 0
				}
			} else {
				c = 1
				u = bn / 2
			}
			edgesPerSec, err := throughput(sc, dim, c, u, edges, s.Fig4TableRows)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, Row{
				Label: fmt.Sprintf("%s Bn=%d", mode, bn),
				Values: map[string]float64{
					"edges/s": edgesPerSec,
					"Bn":      float64(2 * (c + u - 1)),
				},
			})
		}
	}
	rep.Notes = "paper: unbatched speed ∝ 1/Bn; batched reuses candidates so it stays well above unbatched (flatness up to Bn=100 additionally needs near-peak GEMM)"
	return rep, nil
}

// throughput measures raw chunk-scoring throughput at the given chunk
// geometry, including the gather/scatter pattern (random rows from a large
// table) that makes unbatched sampling memory-bound.
func throughput(sc *model.Scorer, dim, c, u, totalEdges, tableRows int) (float64, error) {
	table := vec.NewMatrix(tableRows, dim)
	r := rng.New(3)
	for i := range table.Data {
		table.Data[i] = r.NormFloat32()
	}
	ws := sc.NewWorkspace(c, u)
	grad := sc.NewChunkGrad(c, u)
	in := &model.ChunkInput{
		Src:    vec.NewMatrix(c, dim),
		Dst:    vec.NewMatrix(c, dim),
		USrc:   vec.NewMatrix(u, dim),
		UDst:   vec.NewMatrix(u, dim),
		SrcIDs: make([]int32, c), DstIDs: make([]int32, c),
		USrcIDs: make([]int32, u), UDstIDs: make([]int32, u),
		RelWeight: 1,
	}
	gatherRow := func(m vec.Matrix, i int, ids []int32) {
		id := int32(r.Intn(tableRows))
		ids[i] = id
		copy(m.Row(i), table.Row(int(id)))
	}
	// Warm-up pass so first-touch page faults on the table do not bias the
	// first configuration measured.
	for warm := 0; warm < 3; warm++ {
		for i := 0; i < c; i++ {
			gatherRow(in.Src, i, in.SrcIDs)
			gatherRow(in.Dst, i, in.DstIDs)
		}
		for i := 0; i < u; i++ {
			gatherRow(in.USrc, i, in.USrcIDs)
			gatherRow(in.UDst, i, in.UDstIDs)
		}
		sc.ScoreChunk(ws, in, grad)
	}
	// Time-budgeted measurement: fast configurations would otherwise finish
	// in milliseconds and report noise.
	const minDuration = 300 * time.Millisecond
	start := time.Now()
	done := 0
	for done < totalEdges || time.Since(start) < minDuration {
		for i := 0; i < c; i++ {
			gatherRow(in.Src, i, in.SrcIDs)
			gatherRow(in.Dst, i, in.DstIDs)
		}
		for i := 0; i < u; i++ {
			gatherRow(in.USrc, i, in.USrcIDs)
			gatherRow(in.UDst, i, in.UDstIDs)
		}
		sc.ScoreChunk(ws, in, grad)
		done += c
	}
	return float64(done) / time.Since(start).Seconds(), nil
}

// AblationAlpha sweeps the negative-sampling mixture α of §3.1 (0 = pure
// uniform, 1 = pure prevalence; the paper defaults to 0.5 and argues both
// extremes are undesirable).
func AblationAlpha(s Scale) (*Report, error) {
	rep := &Report{ID: "ablation-alpha", Title: "Negative-sampling α sweep (§3.1)"}
	g, err := socialGraph(s, 1, s.Seed)
	if err != nil {
		return nil, err
	}
	trainG, _, testG := g.Split(0, 0.1, 5)
	deg := graph.ComputeDegrees(trainG)
	for _, alpha := range []float32{0.001, 0.25, 0.5, 0.75, 0.999} {
		store := storage.NewMemStore(g.Schema, s.Dim, s.Seed+1, 1)
		tr, err := train.New(trainG, store, train.Config{
			Dim: s.Dim, Epochs: s.Epochs / 2, Workers: s.Workers, Seed: s.Seed,
			NegAlpha: alpha, Comparator: "cos",
		})
		if err != nil {
			return nil, err
		}
		if _, err := tr.Train(nil); err != nil {
			return nil, err
		}
		view := tr.NewView()
		rk := eval.NewRanker(trainG.Schema, view, tr, s.Dim, deg)
		uni, err := rk.Evaluate(testG.Edges, eval.Config{
			Mode: eval.CandidatesUniform, K: s.EvalK, MaxEdges: s.EvalEdges, Seed: 1,
		})
		if err != nil {
			_ = view.Close()
			return nil, err
		}
		prev, err := rk.Evaluate(testG.Edges, eval.Config{
			Mode: eval.CandidatesPrevalence, K: s.EvalK, MaxEdges: s.EvalEdges, Seed: 1,
		})
		_ = view.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: fmt.Sprintf("alpha=%.3f", alpha), Values: map[string]float64{
			"MRR-uniform": uni.MRR, "MRR-prevalence": prev.MRR,
		}})
	}
	rep.Notes = "α trades uniform-candidate MRR (popularity shortcut) against prevalence-candidate MRR (tail quality)"
	return rep, nil
}

// AblationComplExPartitioning probes the §5.4.2 / §6 observation that
// ComplEx is unstable under partitioned training: replicated runs at P=1
// versus P=4 on the KG stand-in, reporting mean ± std of MRR.
func AblationComplExPartitioning(s Scale) (*Report, error) {
	rep := &Report{ID: "ablation-complex", Title: "ComplEx under partitioning (§5.4.2 instability probe)"}
	const replicates = 3
	for _, parts := range []int{1, 4} {
		var mrrs []float64
		for rep2 := 0; rep2 < replicates; rep2++ {
			g, err := kgGraph(s, parts, "complex_diagonal")
			if err != nil {
				return nil, err
			}
			trainG, _, testG := g.Split(0.05, 0.05, 5)
			deg := graph.ComputeDegrees(trainG)
			store := storage.NewMemStore(g.Schema, s.Dim, s.Seed+uint64(rep2)*13+1, 1)
			tr, err := train.New(trainG, store, train.Config{
				Dim: s.Dim, Epochs: s.Epochs / 2, Workers: s.Workers,
				Seed: s.Seed + uint64(rep2)*17, Loss: "softmax", Reciprocal: true,
				LR: 0.5, UniformNegs: 150, NegAlpha: 0.1,
			})
			if err != nil {
				return nil, err
			}
			if _, err := tr.Train(nil); err != nil {
				return nil, err
			}
			view := tr.NewView()
			rk := eval.NewRanker(trainG.Schema, view, tr, s.Dim, deg)
			m, err := rk.Evaluate(testG.Edges, eval.Config{
				Mode: eval.CandidatesPrevalence, K: s.EvalK, MaxEdges: s.EvalEdges / 2, Seed: 1,
			})
			_ = view.Close()
			if err != nil {
				return nil, err
			}
			mrrs = append(mrrs, m.MRR)
		}
		mean, std := eval.MeanStd(mrrs)
		rep.Rows = append(rep.Rows, Row{Label: fmt.Sprintf("ComplEx P=%d", parts), Values: map[string]float64{
			"MRR-mean": mean, "MRR-std": std,
		}})
	}
	rep.Notes = "paper: ComplEx MRR varies 0.15–0.22 across partitioned replicates; stable at P=1"
	return rep, nil
}

// AblationStratum probes footnote 3 of §4.1: sweeping buckets multiple
// times per epoch ('stratum losses') trades extra I/O for convergence.
func AblationStratum(s Scale) (*Report, error) {
	rep := &Report{ID: "ablation-stratum", Title: "Stratified sub-epochs (§4.1 footnote 3)"}
	for _, n := range []int{1, 2, 4} {
		g, err := socialGraph(s, 4, s.Seed)
		if err != nil {
			return nil, err
		}
		trainG, _, testG := g.Split(0, 0.1, 5)
		deg := graph.ComputeDegrees(trainG)
		store := storage.NewMemStore(g.Schema, s.Dim, s.Seed+1, 1)
		tr, err := train.New(trainG, store, train.Config{
			Dim: s.Dim, Epochs: 1, Workers: s.Workers, Seed: s.Seed,
			StratumParts: n, Comparator: "cos",
		})
		if err != nil {
			return nil, err
		}
		stats, err := tr.Train(nil)
		if err != nil {
			return nil, err
		}
		view := tr.NewView()
		m, err := evalUniform(s, trainG.Schema, view, tr, deg, testG.Edges)
		_ = view.Close()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, Row{Label: fmt.Sprintf("strata=%d", n), Values: map[string]float64{
			"MRR-after-1-epoch": m.MRR,
			"IO/epoch":          float64(stats[0].PartitionIO),
		}})
	}
	rep.Notes = "more strata = more swaps per epoch but faster convergence per epoch (Gemulla et al. 2011)"
	return rep, nil
}

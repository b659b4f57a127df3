//go:build !race

// Package bench holds the paper-shape tests: each runs one experiment of
// the paper's evaluation (§5) on a synthetic stand-in and asserts the shape
// the paper claims — who wins, how memory scales with partitions, where
// batched negatives pay — not absolute numbers. Sizes are the constants
// below; absolute rates are the repository benchmark's business.
//
// The tests replay whole training runs: under the race detector they take
// minutes, and the DeepWalk baseline is lock-free HOGWILD by design, which
// the detector correctly reports. Race coverage of the production paths
// lives in the per-package suites, so this package builds only without
// -race.
package bench

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pbg/internal/baselines"
	"pbg/internal/classify"
	"pbg/internal/datagen"
	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
	"pbg/internal/train"
	"pbg/internal/vec"
)

const (
	dim     = 16
	workers = 2
	seed    = 7
	// Evaluation: edges ranked per run, candidates per edge where sampled.
	evalEdges = 250
	evalK     = 100
)

// deepWalk is the baseline configuration of both Table 1 halves, and MILE's
// base embedder.
var deepWalk = baselines.DeepWalkConfig{Dim: dim, Epochs: 1, WalksPer: 5, WalkLen: 30, Workers: workers}

// newPBG builds the Table 1 PBG run: one partition, in memory, with the
// dataset-tuned configuration (the paper grid-searches lr, margin and
// negatives per dataset, §5.1).
func newPBG(t *testing.T, g *graph.Graph) *train.Trainer {
	t.Helper()
	tr, err := train.New(g, storage.NewMemStore(g.Schema, dim, seed+1, 1), train.Config{
		Dim: dim, Epochs: 10, Workers: workers, Seed: seed,
		Comparator: "cos", Loss: "softmax",
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// uniformMRR runs Table 1's protocol: rank the true endpoint among evalK
// uniformly sampled corrupted edges.
func uniformMRR(t *testing.T, g *graph.Graph, emb eval.EmbeddingSource, sc eval.ScorerSource, test *graph.EdgeList) float64 {
	t.Helper()
	m, err := eval.NewRanker(g.Schema, emb, sc, dim, graph.ComputeDegrees(g)).Evaluate(test, eval.Config{
		Mode: eval.CandidatesUniform, K: evalK, MaxEdges: evalEdges, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.MRR
}

// liveJournal returns the LiveJournal stand-in split 75/25 into training and
// test edges, as in the paper.
func liveJournal(t *testing.T) (trainG, testG *graph.Graph) {
	t.Helper()
	g, err := datagen.Social(datagen.SocialConfig{Nodes: 2000, AvgOutDegree: 8, NumPartitions: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	trainG, _, testG = g.Split(0, 0.25, 5)
	return trainG, testG
}

// TestTable1LiveJournalShape reproduces Table 1 (left): link prediction on
// the LiveJournal stand-in for DeepWalk, MILE at 1 and 3 levels, and PBG
// with one partition.
func TestTable1LiveJournalShape(t *testing.T) {
	trainG, testG := liveJournal(t)
	tableMRR := func(emb vec.Matrix) float64 {
		table, err := baselines.NewEmbeddingTable(emb)
		if err != nil {
			t.Fatal(err)
		}
		return uniformMRR(t, trainG, table, table, testG.Edges)
	}
	mrr := map[string]float64{}

	dwCfg := deepWalk
	dwCfg.Seed = seed
	dw, err := baselines.TrainDeepWalk(trainG, dwCfg)
	if err != nil {
		t.Fatal(err)
	}
	mrr["DeepWalk"] = tableMRR(dw.In)
	// The paper sweeps MILE at 1 and 5 levels.
	for levels, label := range map[int]string{1: "MILE (1 level)", 3: "MILE (3 levels)"} {
		mm, err := baselines.TrainMILE(trainG, baselines.MILEConfig{Levels: levels, Base: deepWalk, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mrr[label] = tableMRR(mm.Emb)
	}

	tr := newPBG(t, trainG)
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	view := tr.NewView()
	defer view.Close()
	mrr["PBG"] = uniformMRR(t, trainG, view, tr, testG.Edges)
	t.Logf("MRR %v", mrr)

	// Everyone beats random (≈ 0.05 against 100 candidates).
	for label, m := range mrr {
		if m < 0.05 {
			t.Errorf("%s MRR %.3f at/below random", label, m)
		}
	}
	// Paper: PBG 0.749 vs DeepWalk 0.691, and MILE degrades as levels grow.
	if mrr["PBG"] < mrr["DeepWalk"]*0.75 {
		t.Errorf("PBG MRR %.3f far below DeepWalk %.3f", mrr["PBG"], mrr["DeepWalk"])
	}
	if mrr["MILE (3 levels)"] > mrr["MILE (1 level)"]*1.15 {
		t.Errorf("MILE should not improve with more levels: L1 %.3f vs L3 %.3f",
			mrr["MILE (1 level)"], mrr["MILE (3 levels)"])
	}
	// Memory: PBG's one table plus a per-row Adagrad accumulator is below
	// DeepWalk's two tables.
	var pbgBytes int64
	for _, e := range trainG.Schema.Entities {
		pbgBytes += int64(e.Count) * int64(dim+1) * 4
	}
	if pbgBytes >= dw.MemoryBytes() {
		t.Errorf("PBG memory %d B not below DeepWalk %d B", pbgBytes, dw.MemoryBytes())
	}
}

// TestFigure5CurvesShape reproduces Figure 5's PBG curve: test MRR on the
// LiveJournal stand-in after each epoch, against cumulative training time
// (the clock counts training only, as in the paper). The curve rises: the
// final MRR is not below the MRR after one epoch.
func TestFigure5CurvesShape(t *testing.T) {
	trainG, testG := liveJournal(t)
	tr := newPBG(t, trainG)
	var (
		elapsed time.Duration
		seconds []float64
		mrr     []float64
	)
	for e := 0; e < tr.Config().Epochs; e++ {
		st, err := tr.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		elapsed += st.Duration
		view := tr.NewView()
		mrr = append(mrr, uniformMRR(t, trainG, view, tr, testG.Edges))
		_ = view.Close()
		seconds = append(seconds, elapsed.Seconds())
	}
	t.Logf("PBG MRR %.3f at %.3f s", mrr, seconds)
	if len(mrr) < 2 || mrr[len(mrr)-1] <= mrr[0]*0.9 {
		t.Errorf("PBG curve not rising: %.3f", mrr)
	}
	for i := 1; i < len(seconds); i++ {
		if seconds[i] <= seconds[i-1] {
			t.Errorf("non-increasing time stamps: %.3f", seconds)
			break
		}
	}
}

// TestTable1YouTubeShape reproduces Table 1 (right): embeddings as features
// for multi-label node classification on the YouTube stand-in.
func TestTable1YouTubeShape(t *testing.T) {
	cg, err := datagen.Community(datagen.CommunityConfig{
		Nodes: 1500, Communities: 12, Edges: 12000, ExtraLabelProb: 0.04, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := cg.Graph
	// DeepWalk's protocol, which the paper follows: a logistic classifier
	// on repeated random 90/10 splits (the paper averages 10; 3 here).
	microF1 := func(x vec.Matrix) float64 {
		res, err := classify.CrossValidate(x, cg.Labels, classify.Config{Classes: cg.NumClasses, Epochs: 10, Seed: 3}, 3, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return res.MicroF1
	}
	f1 := map[string]float64{}

	dwCfg := deepWalk
	dwCfg.Seed = seed
	dw, err := baselines.TrainDeepWalk(g, dwCfg)
	if err != nil {
		t.Fatal(err)
	}
	f1["DeepWalk"] = microF1(dw.In)
	mm, err := baselines.TrainMILE(g, baselines.MILEConfig{Levels: 2, Base: deepWalk, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	f1["MILE (2 levels)"] = microF1(mm.Emb)

	tr := newPBG(t, g)
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	view := tr.NewView()
	defer view.Close()
	x := vec.NewMatrix(g.Schema.Entities[0].Count, dim)
	for id := 0; id < x.Rows; id++ {
		if _, err := view.Embedding(0, int32(id), x.Row(id)); err != nil {
			t.Fatal(err)
		}
	}
	f1["PBG"] = microF1(x)
	t.Logf("micro-F1 %v", f1)

	// Every method clears the majority-class floor by a clear margin, and
	// PBG is comparable to the best (paper: 48.0 vs DeepWalk 45.2).
	best := 0.0
	for label, v := range f1 {
		if v < 0.2 {
			t.Errorf("%s micro-F1 %.3f too weak", label, v)
		}
		best = max(best, v)
	}
	if f1["PBG"] < best*0.8 {
		t.Errorf("PBG micro-F1 %.3f not comparable to best %.3f", f1["PBG"], best)
	}
}

// generateFreebase generates the FB15k / Freebase stand-in once: its edges
// do not depend on the partition count, so Tables 2 and 3 share them.
var generateFreebase = sync.OnceValues(func() (*graph.Graph, error) {
	return datagen.Knowledge(datagen.KGConfig{Entities: 1000, Relations: 20, Edges: 40000, Seed: seed})
})

// freebase returns the stand-in with its entities in parts partitions and
// every relation scored by operator, on a schema of its own.
func freebase(t *testing.T, parts int, operator string) *graph.Graph {
	t.Helper()
	g, err := generateFreebase()
	if err != nil {
		t.Fatal(err)
	}
	ent := g.Schema.Entities[0]
	ent.NumPartitions = parts
	rels := slices.Clone(g.Schema.Relations)
	for i := range rels {
		rels[i].Operator = operator
	}
	return graph.MustGraph(graph.MustSchema([]graph.EntityType{ent}, rels), g.Edges)
}

// TestTable2FB15kShape reproduces Table 2: PBG as TransE and as ComplEx
// (reciprocal relations, softmax loss, §5.4.1) on the FB15k stand-in,
// ranked against every entity on both sides, raw and filtered.
func TestTable2FB15kShape(t *testing.T) {
	for _, v := range []struct {
		label, operator, comparator, loss string
		reciprocal                        bool
	}{
		{"TransE", "translation", "cos", "ranking", false},
		{"ComplEx", "complex_diagonal", "dot", "softmax", true},
	} {
		g := freebase(t, 1, v.operator)
		trainG, validG, testG := g.Split(0.05, 0.05, 5)
		tr, err := train.New(trainG, storage.NewMemStore(g.Schema, dim, seed+1, 1), train.Config{
			Dim: dim, Epochs: 16, Workers: workers, Seed: seed,
			Comparator: v.comparator, Loss: v.loss, Reciprocal: v.reciprocal,
			LR: 0.5, UniformNegs: 150, NegAlpha: 0.1, Margin: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(nil); err != nil {
			t.Fatal(err)
		}
		view := tr.NewView()
		rk := eval.NewRanker(trainG.Schema, view, tr, dim, graph.ComputeDegrees(trainG))
		cfg := eval.Config{Mode: eval.CandidatesAll, MaxEdges: evalEdges, BothSides: true, Seed: 1}
		raw, err := rk.Evaluate(testG.Edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Filtered, cfg.Known = true, graph.NewEdgeSet(trainG.Edges, validG.Edges, testG.Edges)
		filt, err := rk.Evaluate(testG.Edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = view.Close()
		t.Logf("%s: MRR raw %.3f, filtered %.3f", v.label, raw.MRR, filt.MRR)
		// Removing true edges from the candidates can only help.
		if filt.MRR < raw.MRR-1e-9 {
			t.Errorf("%s filtered MRR %.3f below raw %.3f", v.label, filt.MRR, raw.MRR)
		}
		// Far above random (1/entities ≈ 0.001 against every entity).
		if filt.MRR < 0.05 {
			t.Errorf("%s filtered MRR %.3f too weak", v.label, filt.MRR)
		}
	}
}

// TestTable3PartitionsShape reproduces Table 3 (left): the Freebase
// stand-in on one machine with 1 and 16 partitions. Paper: memory falls
// 59.6 → 6.8 GB (−88 %) while MRR stays at 0.170 vs 0.174.
func TestTable3PartitionsShape(t *testing.T) {
	run := func(parts int) (mrr float64, peak int64) {
		g := freebase(t, parts, "translation")
		trainG, _, testG := g.Split(0.05, 0.05, 5)
		cfg := train.Config{Dim: dim, Epochs: 4, Workers: workers, Seed: seed}
		var store storage.Store = storage.NewMemStore(g.Schema, dim, seed+1, 1)
		if parts > 1 {
			store = storetest.NewDisk(t, "", g.Schema, dim, seed+1, 1)
			// A budget of one bucket's shards plus the in-flight allowance:
			// the peak then reports the bound the shard cache enforces, not
			// whichever prefetch or write-back happened to be in flight
			// when it was sampled.
			var shards int64
			for ti := range g.Schema.Entities {
				shards += storage.ProjectedShardBytes(g.Schema, dim, ti, 0)
			}
			cfg.MemBudgetBytes = 3 * shards
		}
		tr, err := train.New(trainG, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(nil); err != nil {
			t.Fatal(err)
		}
		view := tr.NewView()
		defer view.Close()
		// §5.4.2's protocol: raw ranking against prevalence-sampled
		// candidates.
		m, err := eval.NewRanker(trainG.Schema, view, tr, dim, graph.ComputeDegrees(trainG)).Evaluate(testG.Edges, eval.Config{
			Mode: eval.CandidatesPrevalence, K: evalK, MaxEdges: evalEdges, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.MRR, tr.PeakResidentBytes()
	}
	mrr1, mem1 := run(1)
	mrr16, mem16 := run(16)
	t.Logf("P=1: MRR %.3f, %d B; P=16: MRR %.3f, %d B", mrr1, mem1, mrr16, mem16)
	if float64(mem16) > float64(mem1)*0.5 {
		t.Errorf("16-partition memory %d B not well below 1-partition %d B", mem16, mem1)
	}
	if mrr16 < mrr1*0.7 {
		t.Errorf("partitioned MRR %.3f collapsed vs %.3f", mrr16, mrr1)
	}
}

// TestFigure4NegativesShape reproduces Figure 4's shape: training
// throughput against the number of negatives Bn per positive, batched
// (chunks of up to C=50 positives share their candidates) versus unbatched
// (C=1, fresh candidates per positive), at d=100 with rows gathered from a
// 64 MB table.
//
// The mechanism is candidate-row reuse per positive. Both modes score about
// Bn candidates per positive, but a batched chunk gathers its C+U candidate
// rows once for all C positives — about Bn/C rows per positive — and scores
// them in one GEMM, while an unbatched positive gathers all of its ~Bn rows
// and scores them alone. So batched stays well above unbatched at every Bn,
// and unbatched falls roughly as 1/Bn. (The paper's batched curve is also
// flat up to Bn≈100 because MKL makes the Bn·d FLOPs nearly free; that part
// is not asserted.)
//
// Each configuration's rate is the best of three short runs, interleaved
// across configurations, so a busy neighbour slows a run rather than a
// configuration.
func TestFigure4NegativesShape(t *testing.T) {
	const (
		d      = 100
		rows   = 160_000 // 64 MB of float32 rows
		rounds = 3
		runFor = 60 * time.Millisecond
	)
	sc, err := model.NewScorer(d, "identity", "dot", "ranking", 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	table := vec.NewMatrix(rows, d)
	for i := range table.Data {
		table.Data[i] = r.NormFloat32()
	}

	type config struct {
		bn      int
		batched bool
		ws      *model.Workspace
		grad    *model.ChunkGrad
		in      *model.ChunkInput
		best    float64 // positives per second
	}
	bns := []int{10, 100, 500}
	var configs []*config
	for _, bn := range bns {
		for _, batched := range []bool{true, false} {
			// C positives and U uniform candidates per side give each
			// positive 2·(C+U−1) negatives.
			c, u := 1, bn/2
			if batched {
				c = min(50, bn/2)
				u = bn/2 - c + 1
			}
			configs = append(configs, &config{
				bn: bn, batched: batched,
				ws: sc.NewWorkspace(c, u), grad: sc.NewChunkGrad(c, u),
				in: &model.ChunkInput{
					Src: vec.NewMatrix(c, d), Dst: vec.NewMatrix(c, d),
					USrc: vec.NewMatrix(u, d), UDst: vec.NewMatrix(u, d),
					SrcIDs: make([]int32, c), DstIDs: make([]int32, c),
					USrcIDs: make([]int32, u), UDstIDs: make([]int32, u),
					RelWeight: 1,
				},
			})
		}
	}
	gather := func(m vec.Matrix, ids []int32) {
		for i := range ids {
			ids[i] = int32(r.Intn(rows))
			copy(m.Row(i), table.Row(int(ids[i])))
		}
	}
	for round := 0; round < rounds; round++ {
		for _, cf := range configs {
			in := cf.in
			positives := 0
			start := time.Now()
			for time.Since(start) < runFor {
				gather(in.Src, in.SrcIDs)
				gather(in.Dst, in.DstIDs)
				gather(in.USrc, in.USrcIDs)
				gather(in.UDst, in.UDstIDs)
				sc.ScoreChunk(cf.ws, in, cf.grad)
				positives += in.Src.Rows
			}
			cf.best = max(cf.best, float64(positives)/time.Since(start).Seconds())
		}
	}

	rate := map[bool]map[int]float64{true: {}, false: {}}
	for _, cf := range configs {
		rate[cf.batched][cf.bn] = cf.best
	}
	for _, bn := range bns {
		b, ub := rate[true][bn], rate[false][bn]
		t.Logf("Bn=%d: batched %.0f, unbatched %.0f edges/s (%.1fx)", bn, b, ub, b/ub)
		if b < ub*1.2 {
			t.Errorf("batched %.0f not clearly above unbatched %.0f at Bn=%d", b, ub, bn)
		}
	}
	if rate[false][500] > rate[false][10]/4 {
		t.Errorf("unbatched throughput should decay steeply: Bn=10 %.0f vs Bn=500 %.0f",
			rate[false][10], rate[false][500])
	}
}

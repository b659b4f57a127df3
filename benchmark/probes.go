package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/rng"
	"pbg/internal/sampling"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// probe times fn, a fixed-shape direct call into one module's public
// function, for probeTime and returns the mean nanoseconds per call. Probes
// run only in traced runs, after the workload, at the workload's own
// dimension; they say what a kernel costs in isolation, and the workload's
// share rows (train.score_share, serve.scan_share) say how much of the
// end-to-end number that kernel can move.
func (r *run) probe(name string, fn func()) float64 {
	sp := r.span("probe." + name)
	defer sp.End()
	fn() // warm caches and any lazy set-up
	calls := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if d := time.Since(start); d >= probeTime {
			return float64(d.Nanoseconds()) / float64(calls)
		}
	}
}

func randomMatrix(rg *rng.RNG, rows, cols int) vec.Matrix {
	m := vec.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rg.NormFloat32()
	}
	return m
}

// runProbes emits the vec.*, model.*, sampling.*, rng.* and codec rows.
func (r *run) runProbes(dim int) error {
	rg := rng.New(r.seed + 99)
	gflops := func(m, n, d int, ns float64) float64 { return 2 * float64(m*n*d) / ns }

	// vec: the training chunk shape (C=50 positives against 100 candidates)
	// and the serving block shape (32 queries against a 256-row block).
	a, b := randomMatrix(rg, 50, dim), randomMatrix(rg, 100, dim)
	c := vec.NewMatrix(50, 100)
	r.set("vec.mulabt_gflops.train", gflops(50, 100, dim, r.probe("vec.mulabt.train", func() { vec.MulABt(c, a, b) })), "GFLOP/s")
	qa, qb := randomMatrix(rg, 32, dim), randomMatrix(rg, 256, dim)
	qc := vec.NewMatrix(32, 256)
	r.set("vec.mulabt_gflops.serve", gflops(32, 256, dim, r.probe("vec.mulabt.serve", func() { vec.MulABt(qc, qa, qb) })), "GFLOP/s")
	g := randomMatrix(rg, 50, 100)
	acc := vec.NewMatrix(50, dim)
	r.set("vec.addouter_gflops", gflops(50, 100, dim, r.probe("vec.addouter", func() { vec.AddOuterAtB(acc, g, b) })), "GFLOP/s")
	var sink float32
	r.set("vec.dot_ns", r.probe("vec.dot", func() { sink += vec.Dot(a.Row(0), b.Row(0)) }), "ns")

	// model: one chunk of 50 positives with 50 uniform candidates per side,
	// forward and backward, per operator.
	for _, op := range []string{"identity", "complex_diagonal"} {
		ns, err := r.probeScoreChunk(rg, op, dim)
		if err != nil {
			return err
		}
		r.set("model.scorechunk_ns_per_edge."+op, ns/50, "ns")
	}

	// sampling: the trainer's mixed prevalence/uniform negative sampler over
	// a 10k-entity type with Zipf degrees, and the alias table under it.
	const entities = 10000
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: entities, NumPartitions: 1}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	weights := make([]float64, entities)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	set := sampling.NewSet(schema, &graph.Degrees{ByType: [][]float64{weights}}, 0.5)
	smp := set.ForTypePartition(0, 0)
	ids := make([]int32, 50)
	r.set("sampling.sample_ns", r.probe("sampling.sample", func() { sampling.SampleMany(smp, rg, ids) })/float64(len(ids)), "ns")
	alias := rng.NewAlias(weights)
	var isink int
	r.set("rng.alias_ns", r.probe("rng.alias", func() { isink += alias.Sample(rg) }), "ns")
	_, _ = sink, isink

	return r.probeCodecs(rg, dim)
}

func (r *run) probeScoreChunk(rg *rng.RNG, op string, dim int) (float64, error) {
	const c, u = 50, 50
	sc, err := model.NewScorer(dim, op, "dot", "ranking", 0.1, false)
	if err != nil {
		return 0, err
	}
	params := make([]float32, sc.RelParamCount())
	sc.InitRelParams(params)
	ids := func(base int32) []int32 {
		out := make([]int32, c)
		for i := range out {
			out[i] = base + int32(i)
		}
		return out
	}
	in := &model.ChunkInput{
		Src: randomMatrix(rg, c, dim), Dst: randomMatrix(rg, c, dim),
		USrc: randomMatrix(rg, u, dim), UDst: randomMatrix(rg, u, dim),
		SrcIDs: ids(0), DstIDs: ids(1000), USrcIDs: ids(2000), UDstIDs: ids(3000),
		RelWeight: 1, RelFwd: params,
	}
	ws := sc.NewWorkspace(c, u)
	grad := sc.NewChunkGrad(c, u)
	return r.probe("model.scorechunk."+op, func() { sc.ScoreChunk(ws, in, grad) }), nil
}

// probeCodecs times WriteShardCodec and ReadShardCodec on one shard of the
// workload's width per codec; MB/s is of the fp32 in-memory size, so codecs
// compare on rows handled per second.
func (r *run) probeCodecs(rg *rng.RNG, dim int) error {
	const rows = 4096
	sh := storage.NewShard(0, 0, rows, dim)
	sh.Init(rg, 1)
	dir, err := r.dir("codec")
	if err != nil {
		return err
	}
	mb := float64(sh.Bytes()) / 1e6
	for _, codec := range storage.Codecs() {
		path := filepath.Join(dir, fmt.Sprintf("probe-%s.pbg", codec))
		var ioErr error
		ns := r.probe("storage.encode."+codec.String(), func() {
			if err := storage.WriteShardCodec(path, sh, codec); err != nil {
				ioErr = err
			}
		})
		r.set("storage.encode_mbps."+codec.String(), mb/(ns/1e9), "MB/s")
		ns = r.probe("storage.decode."+codec.String(), func() {
			if _, _, err := storage.ReadShardCodec(path); err != nil {
				ioErr = err
			}
		})
		r.set("storage.decode_mbps."+codec.String(), mb/(ns/1e9), "MB/s")
		if ioErr != nil {
			return fmt.Errorf("codec probe %s: %w", codec, ioErr)
		}
	}
	return nil
}

package main

import (
	"time"

	"pbg"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// runKGMem is the compute-bound workload: a multi-relation knowledge graph,
// every relation complex_diagonal, one partition, everything in a MemStore,
// HOGWILD across all processors. vec, model, sampling and the worker loop
// do the work; storage, partition and dist do nothing, and their rows must
// read (near) zero here.
func runKGMem(r *run) error {
	sh := kgMemShape
	var (
		trainG, testG *pbg.Graph
		store         storage.Store
		traced        *tracedStore
		tr            *train.Trainer
	)
	teardown, err := r.timeSetup(func() (func() error, error) {
		g, err := pbg.KnowledgeGraph(pbg.KnowledgeGraphConfig{
			Entities: sh.entities, Relations: sh.relations, Edges: sh.edges,
			CandidatePool: sh.pool, NumPartitions: sh.parts, Seed: r.seed,
		})
		if err != nil {
			return nil, err
		}
		for i := range g.Schema.Relations {
			g.Schema.Relations[i].Operator = "complex_diagonal"
		}
		trainG, testG = splitHeldOut(g, sh.evalEdges, r.seed)
		store = storage.NewMemStore(g.Schema, sh.dim, r.seed+1, 1)
		if r.traced {
			traced = newTracedStore(store, r.root)
			store = traced
		}
		sp := r.span("train.new")
		start := time.Now()
		tr, err = train.New(trainG, store, train.Config{
			Dim: sh.dim, ChunkSize: sh.chunk, UniformNegs: sh.uniform, LR: sh.lr, NegAlpha: sh.negAlpha,
			Workers: r.procs, Seed: r.seed, Obs: r.hub,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		r.set("train.new_s", time.Since(start).Seconds(), "s")
		return store.Close, nil
	})
	if err != nil {
		return err
	}
	defer func() { r.closed("the store", teardown()) }()

	warm, timed, err := r.trainTimed(sh.trainShape, trainG, testG,
		func() (epochRec, error) {
			st, err := tr.TrainEpoch()
			return localEpoch(st), err
		},
		func() (evalSource, error) {
			// A view of a MemStore reads the live rows the epochs between the
			// evaluation slices go on training.
			view := tr.NewView()
			return evalSource{emb: view, scorers: tr, close: view.Close}, nil
		})
	if err != nil {
		return err
	}
	r.reportTraining(warm, timed, trainG.Edges.Len(), sh.parts*sh.parts)
	r.reportTrainer(tr)
	r.set("peak_resident_mb", float64(tr.PeakResidentBytes())/(1<<20), "MiB")

	if r.traced {
		dir, err := r.dir("ckpt")
		if err != nil {
			return err
		}
		sp := r.span("storage.checkpoint")
		start := time.Now()
		err = checkpoint(tr, trainG.Schema, store, dir)
		sp.End()
		if err != nil {
			return err
		}
		r.set("storage.checkpoint_s", time.Since(start).Seconds(), "s")
		r.checkShardsFinite(dir, trainG.Schema)
		r.reportStorageSpans()
		traced.report(r)
	}
	r.reportStorageIO(storage.IOStats{}, 0)
	return nil
}

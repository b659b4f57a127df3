package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"pbg"
	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// runSocialOOC is the out-of-core workload (§4.1): many nodes, low degree,
// wide embeddings and few negatives, so shard bytes moved per trained edge
// are high; 16 partitions on a DiskStore whose budget holds about six
// shards, buckets in budget_aware order. storage (load, write-back,
// admission, eviction), partition (order planning) and the trainer's
// pipeline and lookahead controller do most of the work here, vec little.
func runSocialOOC(r *run) error {
	sh := socialOOCShape
	var (
		trainG, testG *pbg.Graph
		disk          *storage.DiskStore
		store         storage.Store
		traced        *tracedStore
		tr            *train.Trainer
		shardDir      string
		shardBytes    int64
		budget        int64
	)
	teardown, err := r.timeSetup(func() (func() error, error) {
		g, err := pbg.SocialGraph(pbg.SocialGraphConfig{
			Nodes: sh.nodes, AvgOutDegree: sh.degree, NumPartitions: sh.parts, Seed: r.seed,
		})
		if err != nil {
			return nil, err
		}
		trainG, testG = splitHeldOut(g, sh.evalEdges, r.seed)
		if shardDir, err = r.dir("shards"); err != nil {
			return nil, err
		}
		if disk, err = storage.NewDiskStore(shardDir, g.Schema, sh.dim, r.seed+1, 1); err != nil {
			return nil, err
		}
		store = disk
		if r.traced {
			traced = newTracedStore(disk, r.root)
			store = traced
		}
		shardBytes = storage.ProjectedShardBytes(g.Schema, sh.dim, 0, 0)
		budget = int64(sh.budgetShards) * shardBytes
		sp := r.span("train.new")
		start := time.Now()
		tr, err = train.New(trainG, store, train.Config{
			Dim: sh.dim, ChunkSize: sh.chunk, UniformNegs: sh.uniform, LR: sh.lr, NegAlpha: sh.negAlpha,
			Workers: r.procs, Seed: r.seed, Obs: r.hub,
			MemBudgetBytes: budget, BucketOrder: partition.OrderBudgetAware,
		})
		sp.End()
		if err != nil {
			_ = disk.Close() // the constructor's error is the one to report
			return nil, err
		}
		r.set("train.new_s", time.Since(start).Seconds(), "s")
		// Close persists what is resident and waits for the write-backs, so
		// the scratch directory is quiet before it is removed.
		return store.Close, nil
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			r.closed("the store", teardown())
		}
	}()

	var highWater int64
	warm, timed, err := r.trainTimed(sh.trainShape, trainG, testG,
		func() (epochRec, error) {
			st, err := tr.TrainEpoch()
			highWater = max(highWater, st.ResidentHighWater)
			return localEpoch(st), err
		},
		func() (evalSource, error) {
			// A view pins every shard it reads until it is closed, which on
			// the trainer's own store is far over the budget and would change
			// the epochs after it. So the model as trained so far is flushed
			// and its shard files copied, and evaluation reads the copy through
			// a DiskStore of its own while training goes on in the first.
			evalDir, err := r.dir("eval-shards")
			if err != nil {
				return evalSource{}, err
			}
			if err := errors.Join(disk.Drain(), store.Flush(), copyFiles(shardDir, evalDir)); err != nil {
				return evalSource{}, err
			}
			evalDisk, err := storage.NewDiskStore(evalDir, trainG.Schema, sh.dim, r.seed+1, 1)
			if err != nil {
				return evalSource{}, err
			}
			view := train.NewStoreView(evalDisk, trainG.Schema)
			return evalSource{emb: view, scorers: tr, close: func() error {
				return errors.Join(view.Close(), evalDisk.Close())
			}}, nil
		})
	if err != nil {
		return err
	}
	r.reportTraining(warm, timed, trainG.Edges.Len(), sh.parts*sh.parts)
	r.reportTrainer(tr)
	r.set("peak_resident_mb", float64(highWater)/(1<<20), "MiB")
	r.check(highWater <= budget+shardBytes,
		"resident high-water %d bytes exceeds budget %d + one shard %d", highWater, budget, shardBytes)
	r.note("peak_resident_mb: largest EpochStats.ResidentHighWater over the training epochs; budget %d shards of %d bytes", sh.budgetShards, shardBytes)

	ioStats := disk.IOStats()
	closed = true
	if err := teardown(); err != nil {
		return err
	}
	r.checkShardsFinite(shardDir, trainG.Schema)
	r.reportStorageIO(ioStats, shardBytes)
	if r.traced {
		r.reportStorageSpans()
		traced.report(r)
		r.reportPlanning(trainG, sh.parts, train.BufferSlotsFor(trainG.Schema, sh.dim, budget, storage.CodecFP32))
	}
	return nil
}

// copyFiles copies every regular file of directory from into directory to.
func copyFiles(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy's error is the one to report
		return err
	}
	return out.Close()
}

// reportPlanning times the partition layer's public planning calls at the
// workload's own grid and buffer: the budget_aware order search, its
// projected swap-ins, and the bucket sort of the edge list.
func (r *run) reportPlanning(g *pbg.Graph, parts, slots int) {
	sp := r.span("partition.plan")
	start := time.Now()
	order, err := partition.OrderForBuffer(partition.OrderBudgetAware, parts, parts, r.seed, slots)
	sp.End()
	r.check(err == nil, "OrderForBuffer: %v", err)
	r.set("partition.plan_ms", millis(time.Since(start)), "ms")
	r.set("partition.projected_loads", float64(partition.SwapCostUnderBuffer(order, slots)), "count")

	edges := g.Edges.Clone()
	sp = r.span("graph.sortbybucket")
	start = time.Now()
	graph.SortByBucket(g.Schema, edges, parts, parts)
	sp.End()
	r.set("graph.sortbybucket_ms", millis(time.Since(start)), "ms")
}

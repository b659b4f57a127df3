package main

import (
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/vec"
)

// untouched declares that this workload does not exercise a layer: every
// per-layer metric of BENCHMARK.json under prefix that the run has not set
// reads 0. A later change that makes one of them non-zero on this workload
// has put that layer on its path.
func (r *run) untouched(prefix string) {
	for _, m := range r.spec.PerLayer {
		if _, set := r.all[m.Name]; !set && strings.HasPrefix(m.Name, prefix) {
			r.set(m.Name, 0, m.Unit)
		}
	}
}

// reportTrainer emits the train.* rows read from the trainer's own registry
// (the counters a /metrics scrape shows) and its return values.
func (r *run) reportTrainer(tr *train.Trainer) {
	snap := tr.Obs().Reg.Snapshot()
	_, compute := tr.IOTotals()
	workerNs := float64(tr.Config().Workers) * float64(compute.Nanoseconds())
	share := func(counter string) float64 {
		if workerNs == 0 {
			return 0
		}
		return float64(snap.Counters[counter]) / workerNs
	}
	r.set("train.gather_share", share("pbg_train_worker_gather_ns_total"), "share")
	r.set("train.score_share", share("pbg_train_worker_score_ns_total"), "share")
	r.set("train.lookahead_final", float64(tr.Lookahead()), "count")
}

// reportStorageIO emits the storage.* rows that come from IOStats, and the
// loaded volume computed from the load count and the shard size.
func (r *run) reportStorageIO(io storage.IOStats, shardBytes int64) {
	r.set("storage.loads", float64(io.Loads), "count")
	r.set("storage.writebacks", float64(io.Writes), "count")
	r.set("storage.forced_evicts", float64(io.ForcedEvicts), "count")
	r.set("storage.prefetch_sheds", float64(io.PrefetchSheds), "count")
	r.set("storage.loaded_mb", float64(io.Loads)*float64(shardBytes)/(1<<20), "MiB")
}

// window is a wall-time interval of the run (the training epochs), used to
// attribute background spans to the phase they overlapped.
type window struct{ from, to time.Time }

// spanBusy sums the duration of the tracer's spans on track whose name
// starts with prefix and that began inside one of the windows.
func spanBusy(events []obs.SpanEvent, track, prefix string, in []window) time.Duration {
	var sum time.Duration
	for _, ev := range events {
		if ev.Track != track || !strings.HasPrefix(ev.Name, prefix) {
			continue
		}
		for _, w := range in {
			if !ev.Start.Before(w.from) && ev.Start.Before(w.to) {
				sum += ev.Dur
				break
			}
		}
	}
	return sum
}

// reportStorageSpans sums the store's own background spans (shard loads,
// eviction snapshots, write-backs: they exist in the tracer because a traced
// run hands the store a hub with one) over the training epochs.
// storage.busy_share is that work as a share of the epochs' wall time,
// whether or not prefetching hid it from the training thread.
func (r *run) reportStorageSpans() {
	events := r.hub.Trace.Events()
	load := spanBusy(events, "storage", "load ", r.trainWindows)
	snap := spanBusy(events, "storage", "snapshot ", r.trainWindows)
	wb := spanBusy(events, "storage", "writeback ", r.trainWindows)
	var wall time.Duration
	for _, w := range r.trainWindows {
		wall += w.to.Sub(w.from)
	}
	r.set("storage.load_busy_s", load.Seconds(), "s")
	r.set("storage.writeback_busy_s", (snap + wb).Seconds(), "s")
	r.set("storage.busy_share", (load+snap+wb).Seconds()/wall.Seconds(), "share")
}

// splitHeldOut holds heldOut edges out of g for evaluation.
func splitHeldOut(g *graph.Graph, heldOut int, seed uint64) (trainG, testG *graph.Graph) {
	frac := (float64(heldOut) + 1) / float64(g.Edges.Len())
	trainG, _, testG = g.Split(0, frac, seed+7)
	return trainG, testG
}

// selfTimes derives each span's self time (its duration minus the part its
// child spans cover, never below zero) and sums it by span kind: the name up
// to its first space, so "load t0 p3" and "load t0 p4" are one kind.
func selfTimes(events []obs.SpanEvent) map[string]time.Duration {
	children := map[int64]time.Duration{}
	for _, ev := range events {
		if ev.Parent != 0 {
			children[ev.Parent] += ev.Dur
		}
	}
	out := map[string]time.Duration{}
	for _, ev := range events {
		self := ev.Dur - children[ev.ID]
		if self < 0 {
			self = 0
		}
		kind := ev.Name
		if i := strings.IndexByte(kind, ' '); i > 0 {
			kind = kind[:i]
		}
		out[ev.Track+"/"+kind] += self
	}
	return out
}

// noteSelfTimes lists the span kinds with the most self time.
func (r *run) noteSelfTimes() {
	self := selfTimes(r.hub.Trace.Events())
	kinds := make([]string, 0, len(self))
	for k := range self {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return self[kinds[i]] > self[kinds[j]] })
	for _, k := range kinds[:min(len(kinds), 10)] {
		r.note("self time %-32s %8.3f s", k, self[k].Seconds())
	}
}

// writeRelations persists the trainer's relation parameters next to the
// shards in dir, completing a checkpoint the serving layer can open.
func writeRelations(tr *train.Trainer, schema *graph.Schema, dir string) error {
	rs := &storage.RelationState{}
	for rel := range schema.Relations {
		params := tr.RelParams(rel)
		rs.Params = append(rs.Params, params)
		rs.Acc = append(rs.Acc, make([]float32, len(params)))
	}
	return storage.WriteRelations(filepath.Join(dir, "relations.pbg"), rs)
}

// checkpoint copies every shard of src into a fresh DiskStore at dir and
// writes the relation parameters — what pbg.Model.Checkpoint does, spelled
// out because the benchmark drives train.Trainer directly.
func checkpoint(tr *train.Trainer, schema *graph.Schema, src storage.Store, dir string) (err error) {
	ds, err := storage.NewDiskStore(dir, schema, tr.Config().Dim, 0, 1)
	if err != nil {
		return err
	}
	defer func() {
		// Close drains the write-backs; the directory is complete, and safe
		// to remove, only after it returns.
		if cerr := ds.Close(); err == nil {
			err = cerr
		}
	}()
	for ti, e := range schema.Entities {
		for p := 0; p < e.NumPartitions; p++ {
			if err := copyShard(src, ds, ti, p); err != nil {
				return err
			}
		}
	}
	return writeRelations(tr, schema, dir)
}

func copyShard(src, dst storage.Store, t, p int) error {
	from, err := src.Acquire(t, p)
	if err != nil {
		return err
	}
	defer func() { _ = src.Release(t, p) }() // read-only use: nothing to write back
	to, err := dst.Acquire(t, p)
	if err != nil {
		return err
	}
	copy(to.Embs, from.Embs)
	copy(to.Acc, from.Acc)
	return dst.Release(t, p)
}

// checkShardsFinite re-reads every shard file under dir and checks it holds
// no NaN or Inf. The store that wrote dir must be drained or closed.
func (r *run) checkShardsFinite(dir string, schema *graph.Schema) {
	for ti, e := range schema.Entities {
		for p := 0; p < e.NumPartitions; p++ {
			path := storage.ShardPath(dir, ti, p)
			sh, err := storage.ReadShard(path)
			if err != nil {
				r.check(false, "shard file %s does not read back: %v", path, err)
				continue
			}
			r.check(vec.AllFinite(sh.Embs) && vec.AllFinite(sh.Acc), "shard file %s holds non-finite values", path)
		}
	}
}

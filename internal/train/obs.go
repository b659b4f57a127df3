package train

import (
	"fmt"
	"time"

	"pbg/internal/obs"
	"pbg/internal/partition"
)

// trainMetrics holds the trainer's registry handles, resolved once at
// construction so the epoch and worker paths never take the registry lock.
type trainMetrics struct {
	// edges/swapIns accumulate per-epoch totals; ioWait/compute are the
	// cumulative nanosecond counters EpochStats reports per-epoch deltas of.
	edges, swapIns  *obs.Counter
	ioWait, compute *obs.Counter
	// workerGather/workerScore split in-bucket worker time into embedding
	// gather/scatter vs chunk scoring; workers accumulate locally and add
	// once per bucket (see workerLoop), keeping the hot path atomic-free.
	workerGather, workerScore *obs.Counter
	// barrierWait is worker time spent idle at the end of a bucket: for
	// each worker, from when it found the chunk queue spent to when the
	// bucket's last worker did. runBucket adds it once per bucket.
	barrierWait *obs.Counter
	// negatives counts the unmasked negatives scored, negativesActive those
	// the loss gave a gradient entry (the margin violators under the ranking
	// loss); their ratio is the density of the gradient blocks, which is what
	// the backward pass's cost — and so throughput — follows. Added once per
	// bucket, like the pair above.
	negatives, negativesActive *obs.Counter
	// lookahead is the prefetch depth New picked, set once.
	lookahead *obs.Gauge
	// bucketLoss observes each trained bucket's loss per edge.
	bucketLoss *obs.Histogram
	// Planning gauges: wall time spent building the bucket order, the
	// budget_aware plan's projected swap-ins vs the inside_out baseline, and
	// the resident partition slots the budget priced out. Compare
	// projectedLoads against the per-epoch swap-ins pbg_train_swapins_total
	// accumulates to see projected-vs-actual.
	planNs, projectedLoads, baseLoads, bufferSlots *obs.Gauge
}

func newTrainMetrics(reg *obs.Registry) trainMetrics {
	return trainMetrics{
		edges:           reg.Counter("pbg_train_edges_total"),
		swapIns:         reg.Counter("pbg_train_swapins_total"),
		ioWait:          reg.Counter("pbg_train_iowait_ns_total"),
		compute:         reg.Counter("pbg_train_compute_ns_total"),
		workerGather:    reg.Counter("pbg_train_worker_gather_ns_total"),
		workerScore:     reg.Counter("pbg_train_worker_score_ns_total"),
		barrierWait:     reg.Counter("pbg_train_barrier_wait_ns_total"),
		negatives:       reg.Counter("pbg_train_negatives_total"),
		negativesActive: reg.Counter("pbg_train_negatives_active_total"),
		lookahead:       reg.Gauge("pbg_train_lookahead"),
		bucketLoss:      reg.Histogram("pbg_train_bucket_loss_per_edge"),
		planNs:          reg.Gauge("pbg_partition_plan_ns"),
		projectedLoads:  reg.Gauge("pbg_partition_projected_loads"),
		baseLoads:       reg.Gauge("pbg_partition_base_loads"),
		bufferSlots:     reg.Gauge("pbg_partition_buffer_slots"),
	}
}

// Obs returns the trainer's observability hub: Config.Obs when one was
// supplied, otherwise the private quiet hub the trainer records into anyway
// (so IOTotals and tests always have live counters to read).
func (t *Trainer) Obs() *obs.Hub { return t.obs }

// IOTotals reports the cumulative bucket-transition stall time and in-bucket
// training time across all epochs so far — the counters TrainEpoch reports
// per-epoch deltas of. The distributed Node uses the deltas to fill its own
// per-epoch stats.
func (t *Trainer) IOTotals() (ioWait, compute time.Duration) {
	return time.Duration(t.tm.ioWait.Value()), time.Duration(t.tm.compute.Value())
}

// startBucketSpan opens the span covering one bucket's training: a child of
// the current epoch span when the local epoch executor is driving, a root
// span when buckets arrive one lease at a time (the distributed node).
func (t *Trainer) startBucketSpan(b partition.Bucket) *obs.Span {
	if t.obs.Trace == nil {
		return nil // nothing records spans: skip formatting the name
	}
	name := fmt.Sprintf("bucket (%d,%d)", b.P1, b.P2)
	if t.epochSpan != nil {
		return t.epochSpan.Child(name)
	}
	return t.obs.Trace.Start("train", name)
}

// Summary renders the one-line per-epoch report both CLIs print, so local
// and distributed runs read identically:
//
//	epoch 3: loss/edge 0.0412  edges 120000  2.10s  IO 24  iowait 3%
//
// followed by "swap N in / M out" — the shards the store loaded and wrote
// back — when the store counted any, by "active N%" — the share of scored
// negatives that carried gradient — when the epoch counted any, by
// "barrier X.XXs" — the worker time spent idle at bucket barriers — when
// there was any, and by "lookahead D  resident X.XMB" when the epoch sampled
// the store's resident bytes.
func (s EpochStats) Summary() string {
	edges := s.Edges
	if edges < 1 {
		edges = 1
	}
	secs := s.Duration.Seconds()
	var ioShare float64
	if secs > 0 {
		ioShare = 100 * s.IOWait.Seconds() / secs
	}
	line := fmt.Sprintf("epoch %d: loss/edge %.4f  edges %d  %.2fs  IO %d  iowait %.0f%%",
		s.Epoch, s.Loss/float64(edges), s.Edges, secs, s.PartitionIO, ioShare)
	if s.SwapIn+s.SwapOut > 0 {
		line += fmt.Sprintf("  swap %d in / %d out", s.SwapIn, s.SwapOut)
	}
	if s.Negatives > 0 {
		line += fmt.Sprintf("  active %.0f%%", 100*float64(s.ActiveNegatives)/float64(s.Negatives))
	}
	if s.BarrierWait > 0 {
		line += fmt.Sprintf("  barrier %.2fs", s.BarrierWait.Seconds())
	}
	if s.ResidentHighWater > 0 {
		line += fmt.Sprintf("  lookahead %d  resident %.1fMB", s.Lookahead, float64(s.ResidentHighWater)/(1<<20))
	}
	return line
}

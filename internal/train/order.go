package train

import (
	"fmt"
	"time"

	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
)

// Bucket ordering: translating Config.MemBudgetBytes into the
// resident-partition-slot capacity the order is planned against. The
// memory-budgeted shard cache enforces the budget reactively —
// admission, hint shedding, LRU eviction — but which shards it is forced to
// evict is decided by the bucket order; ordering against the buffer removes
// most of those forced evictions up front. Pricing goes through
// storage.ProjectedShardBytes, the same single formula budget admission
// and the prefetch depth use, so the three views of the budget cannot
// drift apart.

// BufferSlotsFor converts a memory budget into resident partition slots:
// how many whole partitions (one shard per partitioned entity type each)
// fit in budget bytes after the always-resident unpartitioned shards and
// the prefetch depth's one-in-flight-shard allowance are set aside, each
// priced at its decoded fp32 size. Returns 0 when no budget is set or the
// budget cannot hold even one slot — callers treat both as "nothing to
// optimise against". This is the single pricing the trainer, pbg train's
// startup line, and pbg node's lock role all use, so the order the lock
// server installs is optimized for exactly the buffer the trainers' caches
// will sustain. The unnamed codec is ignored: every shard is held decoded.
func BufferSlotsFor(schema *graph.Schema, dim int, budget int64, _ storage.Codec) int {
	if budget <= 0 {
		return 0
	}
	var static, slotBytes, maxShard int64
	for ti, e := range schema.Entities {
		// Partition 0 is never smaller than later partitions, so pricing
		// slots at p=0 under-counts nothing.
		b := storage.ProjectedShardBytes(schema, dim, ti, 0)
		if b > maxShard {
			maxShard = b
		}
		if e.Partitioned() {
			slotBytes += b
		} else {
			static += b
		}
	}
	if slotBytes <= 0 {
		return 0
	}
	free := budget - static - maxShard
	if free < 0 {
		return 0
	}
	return int(free / slotBytes)
}

// buildOrder plans the trainer's bucket order (PlanOrderFor) and records
// the planning gauges: pbg_partition_plan_ns, the buffer slots, and the
// projected load counts an epoch's actual swap-ins can be compared against
// (zero when nothing was priced).
func (t *Trainer) buildOrder() ([]partition.Bucket, error) {
	start := time.Now()
	defer func() { t.tm.planNs.Set(time.Since(start).Nanoseconds()) }()
	plan, err := PlanOrderFor(t.g.Schema, t.cfg.Dim, t.cfg.MemBudgetBytes, t.cfg.BucketOrder)
	if err != nil {
		return nil, fmt.Errorf("train: BucketOrder: %w", err)
	}
	t.tm.bufferSlots.Set(int64(plan.Slots))
	t.tm.projectedLoads.Set(int64(plan.Cost))
	t.tm.baseLoads.Set(int64(plan.BaseCost))
	return plan.Order, nil
}

// PlanOrderFor plans the bucket order a run over this schema trains in:
// order is Config.BucketOrder, and the partition buffer it is planned
// against is what budget affords (BufferSlotsFor). The planned
// order ("" or "budget_aware") is the greedy search on small grids or the
// closed-form grouped schedule past the size cutoff when either beats
// inside-out under that buffer, and inside-out otherwise — in particular
// with no budget, or one that holds every partition. The trainer, the
// distributed lock server and pbg train's plan line all plan through here,
// so they agree on the order.
func PlanOrderFor(schema *graph.Schema, dim int, budget int64, order string) (partition.OrderPlan, error) {
	nSrc, nDst := schema.BucketDims()
	return partition.PlanOrder(order, nSrc, nDst, BufferSlotsFor(schema, dim, budget, storage.CodecFP32))
}

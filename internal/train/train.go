// Package train implements PBG's single-machine training loop (§4): each
// epoch iterates over edge buckets in a configurable order (inside-out by
// default), swaps the two partitions of the current bucket in from the
// store, shuffles the bucket's edges, and trains them on a pool of HOGWILD
// workers with no synchronisation on the embedding rows (Recht et al. 2011),
// using the batched negative sampling of §4.3.
//
// HOGWILD is the only worker path, and `go test -race` checks it: rows are
// read and updated with no lock, while a chunk of a parameterised relation
// scores from a snapshot of its block taken under the relation's lock, which
// its updates and the distributed parameter sync also hold. The detector
// ignores only optim.RowAdagrad.Update (//go:norace: the row accumulator's
// benign race); the row writes run in vec's amd64 assembly, which it does not
// see, so on the portable kernels (e.g. arm64) it would report those too.
//
// A bucket's edges form one chunk queue (bucketQueue): one stable counting
// pass groups the shuffled edges by relation and cuts each relation's run
// into chunks of ChunkSize, and the workers claim chunks through one atomic
// cursor until the queue is spent, so none idles at the bucket's end while
// another still has a fixed share left (EpochStats.BarrierWait measures what
// remains). Each worker runs one chunk ahead: before it scores a chunk it
// claims the next, draws that chunk's negatives and prefetches its embedding
// rows (vec.Prefetch), which then arrive while the current chunk scores. At
// Workers: 1 the chunk sequence and the negative draws are those of
// scoring one chunk at a time, so a fixed seed writes the same bytes.
//
// The epoch executor is pipelined: while one bucket trains, the shards the
// next buckets need prefetch on the store's background I/O pool and
// no-longer-needed shards write back asynchronously. One Config knob,
// MemBudgetBytes, governs both the schedule and how much memory it may
// hold. It bounds the resident shard bytes (plumbed into stores
// implementing SetMaxResidentBytes: storage.DiskStore, the distributed
// checkout cache); it prices the partition buffer the bucket order is
// planned against (order.go: inside-out unless a buffer-aware order beats
// it under that buffer); and it sets the prefetch depth (depth.go), picked
// once in New: 1 bucket ahead without a budget, and under one the deepest
// window, at most 4 buckets, whose projected resident bytes fit it.
//
// Each epoch reports an EpochStats: Loss/Edges/Duration for convergence
// tracking; PartitionIO (swap-ins this epoch) and IOWait vs Compute for the
// I/O-overlap split; Lookahead and ResidentHighWater for the depth the
// epoch ran at and the memory it held; and PeakResident for the run-wide
// memory high-water the paper's Tables 3–4 memory columns track.
package train

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/obs"
	"pbg/internal/optim"
	"pbg/internal/partition"
	"pbg/internal/rng"
	"pbg/internal/sampling"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// Config collects every training hyperparameter. Zero values select the
// paper's defaults where one exists.
type Config struct {
	// Dim is the embedding dimension d.
	Dim int
	// Comparator: "dot", "cos", "l2", "squared_l2". Default "dot".
	Comparator string
	// Loss: "ranking", "logistic", "softmax". Default "ranking".
	Loss string
	// Margin λ for the ranking loss. Default 0.1.
	Margin float32
	// LR is the Adagrad learning rate for embeddings and operator
	// parameters. Default 0.1.
	LR float32
	// NegAlpha is the data-prevalence fraction α of §3.1. Default 0.5.
	NegAlpha float32
	// ChunkSize C: positives per chunk sharing negatives. Default 50.
	// ChunkSize 1 reproduces unbatched negative sampling (Figure 4).
	ChunkSize int
	// UniformNegs U: uniformly sampled candidates per side per chunk.
	// Default 50. Per-positive negatives ≈ 2·(C+U).
	UniformNegs int
	// Epochs to run when calling Train. Default 5.
	Epochs int
	// Workers is the number of HOGWILD goroutines. Default 1. They share
	// rows with no lock (the row accumulator's race is exempt from the
	// detector) and score each chunk from a snapshot of its relation's
	// parameters, equal to the live block at Workers: 1. See the package doc.
	Workers int
	// Reciprocal enables separate reverse relation parameters (the
	// 'reciprocal predicates' used for FB15k ComplEx, §5.4.1).
	Reciprocal bool
	// BucketOrder is "" or "budget_aware" (the default: the order planned
	// against the partition buffer MemBudgetBytes affords — Marius-style
	// buffer-aware ordering, minimising projected swaps and hence forced
	// evictions; see PlanOrderFor), or "inside_out" (Figure 1's order, the
	// floor the plan is priced against). The planned order is inside_out
	// with no budget or one that holds every partition. Anything else is
	// rejected.
	BucketOrder string
	// MemBudgetBytes bounds the resident shard bytes during training: it is
	// plumbed into stores that support admission budgets (DiskStore, the
	// distributed remote store), prices the partition buffer the bucket
	// order is planned against, and bounds the prefetch depth. 0 =
	// unbounded: inside-out order, depth 1.
	MemBudgetBytes int64
	// Obs is the observability hub the trainer records metrics and spans
	// into (see internal/obs); it is also plumbed into stores that expose
	// SetObs, so one /metrics scrape covers the whole pipeline. Nil gives
	// the trainer a private quiet hub: metrics still accumulate (IOTotals,
	// EpochStats, and tests read them) but spans no-op and nothing is
	// exported.
	Obs *obs.Hub
	// InitScale scales embedding initialisation. Default 1.
	InitScale float32
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Comparator == "" {
		c.Comparator = "dot"
	}
	if c.Loss == "" {
		c.Loss = "ranking"
	}
	if c.Margin == 0 {
		c.Margin = 0.1
	}
	if c.LR == 0 {
		c.LR = 0.1
	}
	if c.NegAlpha == 0 {
		c.NegAlpha = 0.5
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 50
	}
	if c.UniformNegs == 0 {
		c.UniformNegs = 50
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.BucketOrder == "" {
		c.BucketOrder = partition.OrderBudgetAware
	}
	if c.InitScale == 0 {
		c.InitScale = 1
	}
	return c
}

// EpochStats summarises one epoch.
type EpochStats struct {
	Epoch       int
	Loss        float64
	Edges       int
	Duration    time.Duration
	PartitionIO int // partition loads (swap-ins) this epoch
	// SwapIn and SwapOut are the shards the store actually loaded from and
	// wrote to its backend during the epoch (storage.IOStats Loads and
	// Writes), where the store counts them; zero elsewhere. PartitionIO is
	// what the bucket order asked for, these are what the shard cache made
	// of it — a budgeted cache writes a shard when it leaves memory, so
	// SwapOut tracks SwapIn, not the number of releases.
	SwapIn, SwapOut int64
	PeakResident    int64
	BucketsActive   int
	// IOWait is how long the epoch thread stalled on shard acquire/release
	// I/O at bucket transitions; the pipelined executor overlaps most loads
	// and write-backs with training, so IOWait is what failed to overlap.
	IOWait time.Duration
	// Compute is the time spent inside bucket training (HOGWILD workers).
	Compute time.Duration
	// BarrierWait is worker time spent idle inside Compute: summed over a
	// bucket's workers, the time from when each found the bucket's chunk
	// queue spent to when the last of them did. It is 0 at Workers: 1 and
	// at most (Workers−1)·Compute.
	BarrierWait time.Duration
	// Lookahead is the prefetch depth the pipelined executor used this
	// epoch: the one New picked, the same in every epoch.
	Lookahead int
	// ResidentHighWater is the largest store ResidentBytes sampled during
	// this epoch (PeakResident is the high-water across the whole run).
	ResidentHighWater int64
	// Negatives is how many unmasked negatives the epoch scored and
	// ActiveNegatives how many of them carried gradient: the margin
	// violators under the ranking loss, every one under logistic and
	// softmax. The backward pass walks only the active ones, so their share
	// falls as training separates positives from negatives and throughput
	// rises with it.
	Negatives, ActiveNegatives int64
}

// Trainer owns the training state for one graph.
type Trainer struct {
	cfg     Config
	g       *graph.Graph
	store   storage.Store
	scorers []*model.Scorer // per relation
	// relParams[r] is the full parameter block (fwd|rev) for relation r.
	relParams [][]float32
	relOptFwd []*optim.DenseAdagrad
	relOptRev []*optim.DenseAdagrad
	relMu     []sync.Mutex
	samplers  *sampling.Set
	rowOpt    optim.RowAdagrad

	buckets []partition.Bucket
	ranges  []graph.BucketRange
	nSrc    int
	nDst    int
	edges   *graph.EdgeList // bucket-sorted copy of the training edges

	// relSrc/relDst hold each relation's source/destination entity type
	// index, hoisted out of the hot path (EntityTypeIndex is a name scan).
	relSrc []int
	relDst []int

	// workerStates[w] is worker w's reusable scratch (workspace, gradient
	// buffers, chunk ids, gather buffers); allocating it once per trainer
	// keeps the per-bucket hot path allocation free.
	workerStates []*workerState
	// queue is the current bucket's chunk queue and rels[rel] what its
	// chunks of relation rel share; runBucket refills both for every
	// bucket.
	queue          bucketQueue
	rels           []relBucket
	workersRunning sync.WaitGroup

	root *rng.RNG

	epochsRun int
	peakBytes int64

	// lookahead is the prefetch depth New picked (see depth.go);
	// epochHighWater tracks ResidentBytes within the current epoch.
	lookahead      int
	epochHighWater int64

	// obs is Config.Obs or a private quiet hub; tm caches its registry
	// handles so the epoch path never takes the registry lock. epochSpan is
	// the span covering the epoch in flight (nil outside TrainEpoch and on
	// hubs without a tracer); only the epoch thread touches it. IOWait and
	// Compute stall/training time live in tm's counters — EpochStats reports
	// their per-epoch deltas.
	obs       *obs.Hub
	tm        trainMetrics
	epochSpan *obs.Span
}

// NewScorers builds one scorer per relation of schema under cfg's model
// settings: what a trainer scores with, and what reads its checkpoint back.
func NewScorers(schema *graph.Schema, cfg Config) ([]*model.Scorer, error) {
	cfg = cfg.withDefaults()
	scorers := make([]*model.Scorer, len(schema.Relations))
	for r, rel := range schema.Relations {
		sc, err := model.NewScorer(cfg.Dim, rel.Operator, cfg.Comparator, cfg.Loss, cfg.Margin, cfg.Reciprocal)
		if err != nil {
			return nil, fmt.Errorf("train: relation %q: %w", rel.Name, err)
		}
		scorers[r] = sc
	}
	return scorers, nil
}

// New prepares a trainer over the given training graph and store. The store
// decides the memory regime: MemStore keeps everything resident, DiskStore
// swaps partitions per §4.1.
func New(g *graph.Graph, store storage.Store, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, g: g, store: store, root: rng.New(cfg.Seed)}
	t.obs = cfg.Obs
	if t.obs == nil {
		t.obs = obs.NewQuietHub()
	}
	t.tm = newTrainMetrics(t.obs.Reg)

	// Per-relation scorers (relations may use different operators).
	var err error
	if t.scorers, err = NewScorers(g.Schema, cfg); err != nil {
		return nil, err
	}
	t.relParams = make([][]float32, len(g.Schema.Relations))
	t.relOptFwd = make([]*optim.DenseAdagrad, len(g.Schema.Relations))
	t.relOptRev = make([]*optim.DenseAdagrad, len(g.Schema.Relations))
	t.relMu = make([]sync.Mutex, len(g.Schema.Relations))
	for r, sc := range t.scorers {
		t.relParams[r] = make([]float32, sc.RelParamCount())
		sc.InitRelParams(t.relParams[r])
		half := sc.Op.ParamCount(cfg.Dim)
		t.relOptFwd[r] = optim.NewDenseAdagrad(cfg.LR, half)
		if cfg.Reciprocal {
			t.relOptRev[r] = optim.NewDenseAdagrad(cfg.LR, half)
		}
	}

	t.relSrc, t.relDst = g.Schema.EndpointTypes()

	degrees := graph.ComputeDegrees(g)
	t.samplers = sampling.NewSet(g.Schema, degrees, cfg.NegAlpha)
	t.rowOpt = optim.NewRowAdagrad(cfg.LR)

	nrel := len(g.Schema.Relations)
	t.queue.start, t.queue.at = make([]int, nrel+1), make([]int, nrel+1)
	t.rels = make([]relBucket, nrel)
	t.workerStates = make([]*workerState, cfg.Workers)
	for w := range t.workerStates {
		t.workerStates[w] = t.newWorkerState()
	}

	// Bucket-sort a copy of the edges.
	t.nSrc, t.nDst = g.Schema.BucketDims()
	t.edges = g.Edges.Clone()
	t.ranges = graph.SortByBucket(g.Schema, t.edges, t.nSrc, t.nDst)
	order, err := t.buildOrder()
	if err != nil {
		return nil, err
	}
	t.buckets = order

	// Plumb the memory budget into stores that enforce one (DiskStore, the
	// distributed remote store); others simply ignore it.
	if cfg.MemBudgetBytes > 0 {
		if b, ok := store.(interface{ SetMaxResidentBytes(int64) }); ok {
			b.SetMaxResidentBytes(cfg.MemBudgetBytes)
		}
	}
	// Share the caller's hub with stores that can record into it, so the
	// storage counters and spans land beside the trainer's own. A nil
	// Config.Obs leaves the store on its private registry — per-store
	// IOStats exactness is part of its contract.
	if cfg.Obs != nil {
		if o, ok := store.(interface{ SetObs(*obs.Hub) }); ok {
			o.SetObs(cfg.Obs)
		}
	}
	t.lookahead = t.pickLookahead()
	t.tm.lookahead.Set(int64(t.lookahead))
	return t, nil
}

// Buckets exposes the training bucket order (for tests and the distributed
// lock server).
func (t *Trainer) Buckets() []partition.Bucket { return t.buckets }

// Schema returns the graph schema the trainer was built from.
func (t *Trainer) Schema() *graph.Schema { return t.g.Schema }

// PeakResidentBytes reports the largest model footprint held in memory so
// far (sampled while bucket shards are resident).
func (t *Trainer) PeakResidentBytes() int64 { return t.peakBytes }

// BucketEdgeCount returns the number of training edges in bucket b.
func (t *Trainer) BucketEdgeCount(b partition.Bucket) int {
	return t.ranges[b.Index(t.nDst)].Len()
}

// WithRelParams runs f with relation r's parameter block while holding its
// update lock; used by the distributed parameter-sync thread to snapshot and
// overwrite parameters without racing the HOGWILD workers.
func (t *Trainer) WithRelParams(r int, f func(params []float32)) {
	t.relMu[r].Lock()
	defer t.relMu[r].Unlock()
	f(t.relParams[r])
}

// RelParams returns the live parameter block of relation r.
func (t *Trainer) RelParams(r int) []float32 { return t.relParams[r] }

// Scorer returns the scorer used for relation r.
func (t *Trainer) Scorer(r int) *model.Scorer { return t.scorers[r] }

// Config returns the effective (defaulted) configuration.
func (t *Trainer) Config() Config { return t.cfg }

// Train runs cfg.Epochs epochs and returns per-epoch stats. onEpoch, if
// non-nil, runs after each epoch (learning-curve recording).
func (t *Trainer) Train(onEpoch func(EpochStats)) ([]EpochStats, error) {
	var out []EpochStats
	for e := 0; e < t.cfg.Epochs; e++ {
		st, err := t.TrainEpoch()
		if err != nil {
			return out, err
		}
		out = append(out, st)
		if onEpoch != nil {
			onEpoch(st)
		}
	}
	return out, nil
}

// epochItems lists the non-empty buckets in the planned order: the work
// list the epoch executor runs and looks ahead over.
func (t *Trainer) epochItems() []partition.Bucket {
	var items []partition.Bucket
	for _, b := range t.buckets {
		if !t.ranges[b.Index(t.nDst)].Empty() {
			items = append(items, b)
		}
	}
	return items
}

// countSwapIns updates the PartitionIO stat: partitions the previous bucket
// did not hold must be swapped in.
func countSwapIns(b partition.Bucket, held map[int]bool, stats *EpochStats) map[int]bool {
	need := map[int]bool{}
	for _, p := range b.Parts() {
		need[p] = true
		if !held[p] {
			stats.PartitionIO++
		}
	}
	return need
}

// TrainEpoch runs one pass over all buckets on the pipelined executor:
// while a bucket trains, the shards the next Lookahead() buckets need are
// prefetched by the store's background I/O and no-longer-needed shards are
// written back asynchronously, so bucket transitions cost only the I/O that
// failed to overlap (reported as stats.IOWait).
func (t *Trainer) TrainEpoch() (EpochStats, error) {
	start := time.Now()
	stats := EpochStats{Epoch: t.epochsRun, Lookahead: t.lookahead}
	t.epochHighWater = 0
	t.epochSpan = t.obs.Trace.Start("train", fmt.Sprintf("epoch %d", t.epochsRun))
	ioBase, computeBase, barrierBase := t.tm.ioWait.Value(), t.tm.compute.Value(), t.tm.barrierWait.Value()
	negBase, activeBase := t.tm.negatives.Value(), t.tm.negativesActive.Value()
	counted, _ := t.store.(interface{ IOStats() storage.IOStats })
	var loadsBase, writesBase int64
	if counted != nil {
		io := counted.IOStats()
		loadsBase, writesBase = io.Loads, io.Writes
	}
	err := t.runEpoch(t.epochItems(), &stats)
	t.epochSpan.End()
	t.epochSpan = nil
	stats.IOWait = time.Duration(t.tm.ioWait.Value() - ioBase)
	stats.Compute = time.Duration(t.tm.compute.Value() - computeBase)
	stats.BarrierWait = time.Duration(t.tm.barrierWait.Value() - barrierBase)
	stats.Negatives = t.tm.negatives.Value() - negBase
	stats.ActiveNegatives = t.tm.negativesActive.Value() - activeBase
	if counted != nil {
		io := counted.IOStats()
		stats.SwapIn, stats.SwapOut = io.Loads-loadsBase, io.Writes-writesBase
	}
	stats.Duration = time.Since(start)
	stats.PeakResident = t.peakBytes
	stats.ResidentHighWater = t.epochHighWater
	t.tm.edges.Add(int64(stats.Edges))
	t.tm.swapIns.Add(int64(stats.PartitionIO))
	if err != nil {
		return stats, err
	}
	t.epochsRun++
	return stats, nil
}

// runEpoch overlaps partition I/O with training (§4.1 made real): shards
// shared with the next bucket simply stay held (see Resident), and shards
// the next buckets need are prefetched while the current bucket trains.
func (t *Trainer) runEpoch(items []partition.Bucket, stats *EpochStats) error {
	r := t.NewResident()
	heldParts := map[int]bool{}
	for i, b := range items {
		heldParts = countSwapIns(b, heldParts, stats)
		if err := r.Advance(b, nil); err != nil {
			r.ReleaseAll()
			return err
		}
		// Hint the shards the next buckets will need; the store loads them
		// on its background pool while this bucket trains.
		for l := 1; l <= t.lookahead && i+l < len(items); l++ {
			r.hint(items[i+l])
		}
		loss, edges, err := r.Train(b)
		if err != nil {
			r.ReleaseAll()
			return err
		}
		stats.Loss += loss
		stats.Edges += edges
		stats.BucketsActive++
	}
	return r.ReleaseAll()
}

// Resident is the set of shards an epoch thread keeps checked out of the
// store from one bucket to the next. Advance is the one bucket transition:
// a shard the next bucket shares stays held — its refcount never reaches
// zero, so it neither bounces through the backend nor, over a write-through
// store, leaves the machine — and only the shards that differ are swapped.
// The local epoch executors drive one over their planned order; a
// distributed node drives one over the buckets the lock server grants it.
// A Resident belongs to one goroutine.
type Resident struct {
	t    *Trainer
	held map[shardKey]shardRef
	// prefetched tracks hints not yet consumed by an Acquire; on a normal
	// epoch end every lookahead target gets acquired and the set drains, but
	// an abort must evict the leftovers (see discardPrefetched).
	prefetched map[shardKey]bool
}

// NewResident returns an empty resident set over the trainer's store.
func (t *Trainer) NewResident() *Resident {
	return &Resident{t: t, held: map[shardKey]shardRef{}, prefetched: map[shardKey]bool{}}
}

// Advance moves the set to the shards bucket b needs. Shards b does not
// need are released first — where Release writes in the background the
// write overlaps the loads below, where it writes through the shard is
// stored and dropped before its replacement arrives, so no more than one
// bucket's shards are ever resident. left, if non-nil, runs between the two
// halves: what the set still holds then is exactly what it carries into b.
// Then every missing shard is hinted before any is acquired, so the loads
// proceed in parallel.
//
// On error the set keeps what it held at that point; ReleaseAll ends it.
func (r *Resident) Advance(b partition.Bucket, left func() error) error {
	t := r.t
	keys := t.bucketShardKeys(b)
	need := make(map[shardKey]bool, len(keys))
	for _, k := range keys {
		need[k] = true
	}
	t0 := time.Now()
	for k := range r.held {
		if need[k] {
			continue
		}
		delete(r.held, k)
		if err := t.store.Release(k.t, k.p); err != nil {
			t.tm.ioWait.Add(time.Since(t0).Nanoseconds())
			return err
		}
	}
	t.tm.ioWait.Add(time.Since(t0).Nanoseconds())
	if left != nil {
		if err := left(); err != nil {
			return err
		}
	}
	t0 = time.Now()
	defer func() { t.tm.ioWait.Add(time.Since(t0).Nanoseconds()) }()
	r.hint(b)
	for _, k := range keys {
		if _, ok := r.held[k]; ok {
			continue
		}
		sh, err := t.store.Acquire(k.t, k.p)
		delete(r.prefetched, k) // consumed, or its entry died with the failed load
		if err != nil {
			return err
		}
		r.held[k] = shardRef{shard: sh, first: firstID(t.g.Schema.Entities[k.t], k.p)}
	}
	// Sample peak model memory at the transition's high-water, with the
	// bucket's shards resident (the Tables 3–4 memory column).
	t.sampleResident()
	return nil
}

// hint prefetches the shards of an upcoming bucket that the set lacks.
func (r *Resident) hint(b partition.Bucket) {
	for _, k := range r.t.bucketShardKeys(b) {
		if _, ok := r.held[k]; !ok {
			r.t.store.Prefetch(k.t, k.p)
			r.prefetched[k] = true
		}
	}
}

// Train trains all edges of bucket b — the bucket of the latest Advance — on
// the shards the set holds. Empty buckets return immediately.
func (r *Resident) Train(b partition.Bucket) (loss float64, edges int, err error) {
	rg := r.t.ranges[b.Index(r.t.nDst)]
	if rg.Empty() {
		return 0, 0, nil
	}
	t0 := time.Now()
	loss, edges = r.t.runBucket(b, rg.Lo, rg.Hi, r.held)
	r.t.tm.compute.Add(time.Since(t0).Nanoseconds())
	return loss, edges, nil
}

// Holds reports whether the set still holds any shard of bucket b. A store
// that writes a shard when it is released has b's training on its backend
// exactly when this turns false.
func (r *Resident) Holds(b partition.Bucket) bool {
	for _, k := range r.t.bucketShardKeys(b) {
		if _, ok := r.held[k]; ok {
			return true
		}
	}
	return false
}

// Parts lists the partitions of partitioned entity types the set holds a
// shard of, in no particular order.
func (r *Resident) Parts() []int {
	seen := map[int]bool{}
	var out []int
	for k := range r.held {
		if r.t.g.Schema.Entities[k.t].Partitioned() && !seen[k.p] {
			seen[k.p] = true
			out = append(out, k.p)
		}
	}
	return out
}

// Len is the number of shards the set holds.
func (r *Resident) Len() int { return len(r.held) }

// ReleaseAll releases every held shard and evicts the prefetch hints no
// Acquire consumed, returning the first Release error.
func (r *Resident) ReleaseAll() error {
	t0 := time.Now()
	var first error
	for k := range r.held {
		if err := r.t.store.Release(k.t, k.p); err != nil && first == nil {
			first = err
		}
		delete(r.held, k)
	}
	if len(r.prefetched) > 0 {
		keys := make([]shardKey, 0, len(r.prefetched))
		for k := range r.prefetched {
			keys = append(keys, k)
			delete(r.prefetched, k)
		}
		r.t.discardPrefetched(keys)
	}
	r.t.tm.ioWait.Add(time.Since(t0).Nanoseconds())
	return first
}

// shardRef resolves entity ids of one (type, partition) to rows of an
// acquired shard. Partitions are contiguous blocks of ids, so an id's row is
// its distance from the partition's first id: a subtraction where
// EntityType.LocalOffset divides twice, on every row the workers touch.
type shardRef struct {
	shard *storage.Shard
	first int32 // firstID of the shard's partition
}

// firstID is the first entity id of partition p of type ent.
func firstID(ent graph.EntityType, p int) int32 { return int32(p * ent.PartSize()) }

func (s shardRef) row(id int32) []float32 { return s.shard.Row(int(id - s.first)) }
func (s shardRef) acc(id int32) *float32  { return &s.shard.Acc[id-s.first] }

type shardKey struct{ t, p int }

// bucketShardKeys returns every (entity type, partition) combination the
// bucket's relations can touch, deduplicated, using the precomputed
// per-relation type indices.
func (t *Trainer) bucketShardKeys(b partition.Bucket) []shardKey {
	keys := make([]shardKey, 0, 2*len(t.g.Schema.Relations))
	add := func(ti, part int) {
		if !t.g.Schema.Entities[ti].Partitioned() {
			part = 0
		}
		k := shardKey{ti, part}
		for _, have := range keys {
			if have == k {
				return
			}
		}
		keys = append(keys, k)
	}
	for r := range t.g.Schema.Relations {
		add(t.relSrc[r], b.P1)
		add(t.relDst[r], b.P2)
	}
	return keys
}

// discardPrefetched evicts shards that were hinted via Prefetch but never
// acquired, after an abort. A refs==0 cache entry can otherwise never be
// released, and on the distributed remote store a stale cached shard would
// mask updates other trainers make once the bucket lease is abandoned.
// Acquire-then-Release is best effort: if the prefetch itself failed, the
// entry is already gone and Acquire's error is ignored.
func (t *Trainer) discardPrefetched(keys []shardKey) {
	for _, k := range keys {
		if _, err := t.store.Acquire(k.t, k.p); err == nil {
			_ = t.store.Release(k.t, k.p)
		}
	}
}

// bucketQueue is one bucket's work list, which every worker of the bucket
// pulls from. build shuffles the bucket's edges and groups them by relation
// with one stable counting pass, so each relation's edges keep their shuffled
// order, and cuts each relation's run into chunks of at most ChunkSize edges
// (batches share a relation, §4.3 last paragraph). Workers claim the chunks
// front to back through one atomic cursor, so a worker that draws cheap
// chunks takes more of them, and every worker runs until the queue is spent.
// Relations come in schema order, so at Workers: 1 a fixed seed replays the
// identical chunk and RNG sequence. The queue belongs to the trainer and is
// rebuilt in place for every bucket.
type bucketQueue struct {
	perm   []int   // the shuffled offsets of the bucket's edges
	edges  []int   // the bucket's edge indices, grouped by relation
	start  []int   // start[rel] is where relation rel's run begins in edges
	at     []int   // the counting pass's write cursor per relation
	chunks []chunk // edges[lo:hi] of one relation each, in claim order
	next   atomic.Int64
}

type chunk struct{ rel, lo, hi int }

// build fills the queue with edges [lo, hi) of the trainer's bucket-sorted
// edge list, shuffled by the trainer's root generator.
func (q *bucketQueue) build(t *Trainer, lo, hi int) {
	n, c := hi-lo, t.cfg.ChunkSize
	q.perm = slices.Grow(q.perm[:0], n)[:n]
	t.root.Perm(q.perm)
	rels := t.edges.Rels[lo:hi]
	clear(q.start)
	for _, i := range q.perm {
		q.start[rels[i]+1]++
	}
	for rel := 1; rel < len(q.start); rel++ {
		q.start[rel] += q.start[rel-1]
	}
	copy(q.at, q.start)
	q.edges = slices.Grow(q.edges[:0], n)[:n]
	for _, i := range q.perm {
		rel := rels[i]
		q.edges[q.at[rel]] = lo + i
		q.at[rel]++
	}
	q.chunks = q.chunks[:0]
	for rel := 0; rel+1 < len(q.start); rel++ {
		for clo, end := q.start[rel], q.start[rel+1]; clo < end; clo += c {
			q.chunks = append(q.chunks, chunk{rel, clo, min(clo+c, end)})
		}
	}
	q.next.Store(0)
}

// claim hands out the next unclaimed chunk, or false once there is none.
func (q *bucketQueue) claim() (chunk, bool) {
	k := q.next.Add(1) - 1
	if k >= int64(len(q.chunks)) {
		return chunk{}, false
	}
	return q.chunks[k], true
}

// relBucket is what every chunk of one relation shares within a bucket:
// the shards its two sides read, their negative samplers and the relation's
// parameter halves. runBucket resolves it once per bucket, before any
// worker starts.
type relBucket struct {
	src, dst       shardRef
	srcSmp, dstSmp sampling.Sampler
	fwd, rev       []float32
}

// runBucket trains edges [lo, hi) of bucket b on the HOGWILD worker pool,
// using shards already acquired by the caller. Worker 0 runs on the calling
// goroutine.
func (t *Trainer) runBucket(b partition.Bucket, lo, hi int, shards map[shardKey]shardRef) (loss float64, edges int) {
	sp := t.startBucketSpan(b)
	defer sp.End()
	q := &t.queue
	q.build(t, lo, hi)
	for rel := range t.rels {
		if q.start[rel] == q.start[rel+1] {
			continue
		}
		sc := t.scorers[rel]
		rb := &t.rels[rel]
		rb.src = t.lookupRef(shards, t.relSrc[rel], b.P1)
		rb.dst = t.lookupRef(shards, t.relDst[rel], b.P2)
		rb.srcSmp = t.samplers.ForRelationSource(int32(rel), b.P1)
		rb.dstSmp = t.samplers.ForRelationDest(int32(rel), b.P2)
		rb.fwd, rb.rev = sc.SplitRelParams(t.relParams[rel])
	}

	workers := max(1, min(t.cfg.Workers, len(q.chunks)))
	for w := 0; w < workers; w++ {
		t.root.SplitInto(&t.workerStates[w].rng)
	}
	t.workersRunning.Add(workers - 1)
	for _, st := range t.workerStates[1:workers] {
		go func(st *workerState) {
			defer t.workersRunning.Done()
			st.loss = t.workerLoop(st, q)
		}(st)
	}
	st0 := t.workerStates[0]
	st0.loss = t.workerLoop(st0, q)
	t.workersRunning.Wait()

	for _, st := range t.workerStates[:workers] {
		loss += st.loss
	}
	t.tm.barrierWait.Add(barrierWait(t.workerStates[:workers]).Nanoseconds())
	n := hi - lo
	if n > 0 {
		t.tm.bucketLoss.Observe(loss / float64(n))
	}
	return loss, n
}

// barrierWait sums, over a bucket's workers, the time from when each found
// the chunk queue spent to when the last of them did: the bucket ends then,
// and until then the others wait at the barrier.
func barrierWait(workers []*workerState) time.Duration {
	var last time.Time
	for _, st := range workers {
		if st.done.After(last) {
			last = st.done
		}
	}
	var wait time.Duration
	for _, st := range workers {
		wait += last.Sub(st.done)
	}
	return wait
}

// workerState is one HOGWILD worker's reusable scratch. It persists across
// chunks, relations, buckets, and epochs, so the steady-state worker loop
// allocates nothing.
type workerState struct {
	ws *model.Workspace
	// grads[rel] holds relation rel's gradient buffers (operator parameter
	// counts differ between relations, so these cannot be shared).
	grads []*model.ChunkGrad
	// slots hold the ids of the chunk being scored and of the one claimed
	// after it, whose rows are prefetched meanwhile.
	slots [2]chunkSlot
	// srcBuf and dstBuf hold each side's gathered rows as one block, the
	// positives' then the uniform candidates', which ScoreChunk reads in
	// place.
	srcBuf []float32
	dstBuf []float32
	// fwdCopy/revCopy hold the per-chunk snapshot of the relation
	// parameters the chunk scores from (see workerLoop).
	fwdCopy []float32
	revCopy []float32
	// rng is the worker's generator for the current bucket, split from the
	// trainer's root in worker order; loss and done (when the worker found
	// the queue spent) are its results, read after the barrier.
	rng  rng.RNG
	loss float64
	done time.Time
}

// chunkSlot is one claimed chunk: its relation and the ids of its positives
// and uniform negatives, each side's in one block (srcIDs, dstIDs) laid out
// like its rows.
type chunkSlot struct {
	rel            int
	in             model.ChunkInput
	srcIDs, dstIDs []int32
}

func (t *Trainer) newWorkerState() *workerState {
	c, u, d := t.cfg.ChunkSize, t.cfg.UniformNegs, t.cfg.Dim
	st := &workerState{
		grads:  make([]*model.ChunkGrad, len(t.g.Schema.Relations)),
		srcBuf: make([]float32, (c+u)*d),
		dstBuf: make([]float32, (c+u)*d),
	}
	for i := range st.slots {
		st.slots[i].srcIDs = make([]int32, c+u)
		st.slots[i].dstIDs = make([]int32, c+u)
	}
	return st
}

// claimChunk claims the queue's next chunk into s: its relation, its
// positives' ids, and its uniform negatives, drawn source side first from
// the worker's generator. It reports false once the queue is spent.
//
//pbg:hotpath
func (t *Trainer) claimChunk(q *bucketQueue, s *chunkSlot, r *rng.RNG) bool {
	c, ok := q.claim()
	if !ok {
		return false
	}
	s.rel = c.rel
	in := &s.in
	n, u := c.hi-c.lo, t.cfg.UniformNegs
	in.SrcIDs, in.USrcIDs = s.srcIDs[:n], s.srcIDs[n:n+u]
	in.DstIDs, in.UDstIDs = s.dstIDs[:n], s.dstIDs[n:n+u]
	for k, ei := range q.edges[c.lo:c.hi] {
		in.SrcIDs[k] = t.edges.Srcs[ei]
		in.DstIDs[k] = t.edges.Dsts[ei]
	}
	rb := &t.rels[c.rel]
	sampling.SampleMany(rb.srcSmp, r, in.USrcIDs)
	sampling.SampleMany(rb.dstSmp, r, in.UDstIDs)
	return true
}

// prefetchChunk asks for the embedding rows a claimed chunk will gather, so
// that they arrive while the worker scores the chunk before it.
//
//pbg:hotpath
func (t *Trainer) prefetchChunk(s *chunkSlot) {
	rb := &t.rels[s.rel]
	prefetchRows(rb.src, s.in.SrcIDs)
	prefetchRows(rb.dst, s.in.DstIDs)
	prefetchRows(rb.src, s.in.USrcIDs)
	prefetchRows(rb.dst, s.in.UDstIDs)
}

//pbg:hotpath
func prefetchRows(ref shardRef, ids []int32) {
	for _, id := range ids {
		vec.Prefetch(ref.row(id))
	}
}

// workerLoop is one HOGWILD worker: it claims chunks from the bucket's queue
// until the queue is spent, one chunk ahead of the one it scores. The
// chunk after the current one is claimed, and its negatives drawn, before
// the current one is scored; its rows are prefetched then and gathered once
// the current chunk's updates have landed, so a worker's draws and the rows
// each chunk reads are those of claiming and scoring one chunk at a time.
//
//pbg:hotpath
func (t *Trainer) workerLoop(st *workerState, q *bucketQueue) float64 {
	c, u, d := t.cfg.ChunkSize, t.cfg.UniformNegs, t.cfg.Dim
	r := &st.rng

	// Score time and the negative counts accumulate in locals and land on
	// the shared counters once per bucket, so the per-chunk hot path stays
	// free of atomics; gather time is the rest of the worker's time.
	var scoreNs, negs, activeNegs int64
	var total float64
	start := time.Now()

	cur, next := &st.slots[0], &st.slots[1]
	ok := t.claimChunk(q, cur, r)
	for ok {
		nextOK := t.claimChunk(q, next, r)
		if nextOK {
			t.prefetchChunk(next)
		}
		rel := cur.rel
		sc := t.scorers[rel]
		if st.ws == nil {
			// Workspace shape depends only on (chunk, negatives, dim), so it
			// is shared across relations; gradient buffers are per relation
			// because operator parameter counts differ.
			st.ws = sc.NewWorkspace(c, u)
		}
		grad := st.grads[rel]
		if grad == nil {
			grad = sc.NewChunkGrad(c, u)
			st.grads[rel] = grad
		}
		rb := &t.rels[rel]
		in := &cur.in
		n := len(in.SrcIDs) * d
		in.Src = t.gather(st.srcBuf, rb.src, in.SrcIDs, d)
		in.Dst = t.gather(st.dstBuf, rb.dst, in.DstIDs, d)
		in.USrc = t.gather(st.srcBuf[n:], rb.src, in.USrcIDs, d)
		in.UDst = t.gather(st.dstBuf[n:], rb.dst, in.UDstIDs, d)
		in.RelWeight = t.g.Schema.Relations[rel].EffectiveWeight()
		in.RelFwd = rb.fwd
		in.RelRev = rb.rev
		if rb.fwd != nil {
			// The relation has parameters, and other workers and the
			// distributed parameter sync write its live block under relMu:
			// score from a snapshot taken under the lock (the updates
			// themselves still hit the live block).
			t.relMu[rel].Lock()
			st.fwdCopy = append(st.fwdCopy[:0], rb.fwd...)
			st.revCopy = append(st.revCopy[:0], rb.rev...)
			t.relMu[rel].Unlock()
			in.RelFwd = st.fwdCopy
			if rb.rev != nil {
				in.RelRev = st.revCopy
			}
		}

		s0 := time.Now()
		sc.ScoreChunk(st.ws, in, grad)
		scoreNs += time.Since(s0).Nanoseconds()
		total += grad.Loss
		negs += int64(grad.NegCount)
		activeNegs += int64(grad.ActiveNegs)

		// Scatter updates.
		t.applyRows(rb.src, in.SrcIDs, grad.Src.Data, d)
		t.applyRows(rb.dst, in.DstIDs, grad.Dst.Data, d)
		t.applyRows(rb.src, in.USrcIDs, grad.USrc.Data, d)
		t.applyRows(rb.dst, in.UDstIDs, grad.UDst.Data, d)
		if len(grad.RelFwd) > 0 {
			t.relMu[rel].Lock()
			t.relOptFwd[rel].Update(rb.fwd, grad.RelFwd)
			if rb.rev != nil {
				t.relOptRev[rel].Update(rb.rev, grad.RelRev)
			}
			t.relMu[rel].Unlock()
		}
		cur, next, ok = next, cur, nextOK
	}
	st.done = time.Now()
	t.tm.workerGather.Add(st.done.Sub(start).Nanoseconds() - scoreNs)
	t.tm.workerScore.Add(scoreNs)
	t.tm.negatives.Add(negs)
	t.tm.negativesActive.Add(activeNegs)
	return total
}

func (t *Trainer) lookupRef(shards map[shardKey]shardRef, typeIdx, part int) shardRef {
	if !t.g.Schema.Entities[typeIdx].Partitioned() {
		part = 0
	}
	ref, ok := shards[shardKey{typeIdx, part}]
	if !ok {
		panic(fmt.Sprintf("train: shard (%d,%d) not acquired", typeIdx, part))
	}
	return ref
}

// gather copies the embedding rows of ids into a matrix backed by buf. The
// copy is lock-free: a row another worker is updating may be read torn,
// the paper's benign HOGWILD race.
//
//pbg:hotpath
func (t *Trainer) gather(buf []float32, ref shardRef, ids []int32, d int) vec.Matrix {
	m := vec.MatrixFrom(buf[:len(ids)*d], len(ids), d)
	for k, id := range ids {
		copy(m.Row(k), ref.row(id))
	}
	return m
}

// applyRows applies per-row Adagrad updates for the gathered gradient block,
// lock-free: HOGWILD's benign races on float32 rows, as in the paper.
//
//pbg:hotpath
func (t *Trainer) applyRows(ref shardRef, ids []int32, grads []float32, d int) {
	for k, id := range ids {
		g := grads[k*d : (k+1)*d]
		t.rowOpt.Update(ref.row(id), g, ref.acc(id))
	}
}

// Package train implements PBG's single-machine training loop (§4): each
// epoch iterates over edge buckets in a configurable order (inside-out by
// default), swaps the two partitions of the current bucket in from the
// store, shuffles the bucket's edges, and trains them on a pool of HOGWILD
// workers with no synchronisation on the embedding rows (Recht et al. 2011),
// using the batched negative sampling of §4.3.
//
// The epoch executor is pipelined unless Config.PipelineOff is set: while
// one bucket trains, the shards the next buckets need prefetch on the
// store's background I/O pool and no-longer-needed shards write back
// asynchronously. Four Config knobs govern how far that pipeline may run
// ahead and how much memory it may hold:
//
//   - Lookahead is the initial prefetch depth — how many buckets ahead
//     shard hints are issued while the current bucket trains.
//   - MaxLookahead caps the adaptive controller (controller.go), which
//     moves the live depth within [0, MaxLookahead] between epochs:
//     widening while the measured IOWait share stays above 5% and the
//     projected window fits the budget, narrowing when the budget binds.
//   - MemBudgetBytes bounds the resident shard bytes: it is plumbed into
//     stores implementing SetMaxResidentBytes (storage.DiskStore, the
//     distributed checkout cache), bounds the controller's window
//     projections, and prices the partition buffer that the
//     "budget_aware" BucketOrder optimises against (order.go).
//   - PipelineOff restores the serial acquire/train/release baseline the
//     EpochStats.IOWait numbers are judged against.
//
// Each epoch reports an EpochStats: Loss/Edges/Duration for convergence
// tracking; PartitionIO (swap-ins this epoch) and IOWait vs Compute for the
// I/O-overlap split; Lookahead, LookaheadAction ("widen"/"narrow"/"hold")
// and ResidentHighWater for the controller's per-epoch decision trail; and
// PeakResident for the run-wide memory high-water the paper's Tables 3–4
// memory columns track.
package train

import (
	"fmt"
	"sync"
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
	// LR is the Adagrad learning rate for embeddings. Default 0.1.
	LR float32
	// RelationLR for operator parameters; defaults to LR.
	RelationLR float32
	// NegAlpha is the data-prevalence fraction α of §3.1. Default 0.5.
	NegAlpha float32
	// BatchSize B. Default 1000.
	BatchSize int
	// ChunkSize C: positives per chunk sharing negatives. Default 50.
	// ChunkSize 1 reproduces unbatched negative sampling (Figure 4).
	ChunkSize int
	// UniformNegs U: uniformly sampled candidates per side per chunk.
	// Default 50. Per-positive negatives ≈ 2·(C+U).
	UniformNegs int
	// Epochs to run when calling Train. Default 5.
	Epochs int
	// Workers is the number of HOGWILD goroutines. Default 1.
	Workers int
	// Hogwild true (default via HogwildOff=false) trains lock-free as in the
	// paper; setting HogwildOff uses striped row locks instead, which keeps
	// the race detector quiet at some throughput cost.
	HogwildOff bool
	// Reciprocal enables separate reverse relation parameters (the
	// 'reciprocal predicates' used for FB15k ComplEx, §5.4.1).
	Reciprocal bool
	// BucketOrder: "inside_out" (default), "sequential", "random",
	// "chained", or "budget_aware". The last optimises the bucket sequence
	// against the partition buffer MemBudgetBytes affords (Marius-style
	// buffer-aware ordering, minimising projected swaps and hence forced
	// evictions) — a greedy search on small grids, closed-form BETA
	// grouped/strided schedules past ~32×32 where the search turns
	// quadratic-slow (see partition.PlanBudgetAware); with no budget set
	// it degrades to inside_out.
	BucketOrder string
	// PipelineOff disables the pipelined epoch executor: buckets then swap
	// their partitions in and out serially (the pre-pipeline behaviour),
	// which is the baseline the EpochStats.IOWait numbers are judged
	// against. Default off (pipeline enabled).
	PipelineOff bool
	// Lookahead is the initial lookahead depth of the pipelined executor:
	// how many buckets ahead shard prefetches are issued while the current
	// bucket trains. Between epochs the adaptive controller moves the live
	// depth within [0, MaxLookahead], widening while measured IOWait stays
	// high and the projected resident bytes fit the budget, narrowing when
	// the budget binds. Default 1.
	Lookahead int
	// MaxLookahead caps the adaptive controller. Default: max(Lookahead, 4)
	// when MemBudgetBytes bounds the window, else Lookahead — without a
	// budget the controller only widens (growing the resident footprint)
	// when the caller opts in by raising MaxLookahead. Set MaxLookahead =
	// Lookahead to pin the depth.
	MaxLookahead int
	// MemBudgetBytes bounds the resident shard bytes during training: it is
	// plumbed into stores that support admission budgets (DiskStore, the
	// distributed remote store) and bounds the controller's lookahead
	// projections. 0 = unbounded (today's behaviour).
	MemBudgetBytes int64
	// Codec selects the on-disk shard encoding for stores that support one
	// (DiskStore via SetCodec): "fp32" (default), "fp16", or "int8" — see
	// storage.ParseCodec for accepted spellings. The codec also reprices
	// every budget consumer (admission, the lookahead controller's window
	// projections, budget_aware buffer slots), so a 2–4× smaller codec
	// widens the lookahead window and the partition buffer at the same
	// MemBudgetBytes. Adagrad state stays fp32 under every codec; fp16
	// loses embedding bits to rounding and int8 to per-row scaling, with
	// the MRR cost of each pinned by the servetest parity matrix.
	Codec string
	// StratumParts N > 1 splits each bucket's edges into N parts and sweeps
	// the buckets N times per epoch ('stratum losses', Gemulla et al. 2011;
	// §4.1 footnote 3).
	StratumParts int
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
	if c.RelationLR == 0 {
		c.RelationLR = c.LR
	}
	if c.NegAlpha == 0 {
		c.NegAlpha = 0.5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1000
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
		c.BucketOrder = partition.OrderInsideOut
	}
	if c.StratumParts == 0 {
		c.StratumParts = 1
	}
	if c.Lookahead == 0 {
		c.Lookahead = 1
	}
	if c.MaxLookahead == 0 {
		c.MaxLookahead = c.Lookahead
		// Widening trades resident memory for overlap, so the default only
		// turns it on when a budget bounds that trade; unbudgeted runs keep
		// the fixed depth (and its fixed footprint) unless the caller opts
		// in by raising MaxLookahead.
		if c.MemBudgetBytes > 0 && c.MaxLookahead < defaultMaxLookahead {
			c.MaxLookahead = defaultMaxLookahead
		}
	}
	if c.Lookahead > c.MaxLookahead {
		c.Lookahead = c.MaxLookahead
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
	// I/O at bucket transitions; with the pipelined executor most loads and
	// write-backs overlap training, so IOWait shrinks toward zero while the
	// serial (PipelineOff) baseline pays the full swap cost here.
	IOWait time.Duration
	// Compute is the time spent inside bucket training (HOGWILD workers).
	Compute time.Duration
	// Lookahead is the prefetch depth the pipelined executor used this
	// epoch (0 when the pipeline is off).
	Lookahead int
	// LookaheadAction is the adaptive controller's end-of-epoch decision
	// for the next epoch: "widen", "narrow", or "hold" ("" with the
	// pipeline off or after a failed epoch).
	LookaheadAction string
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
	// buffers, gather buffers, relation grouping); allocating it once per
	// trainer keeps the per-bucket hot path allocation free.
	workerStates []*workerState

	// Striped row locks for the non-HOGWILD mode.
	stripes []sync.Mutex

	root *rng.RNG

	epochsRun int
	peakBytes int64

	// lookahead is the live prefetch depth the adaptive controller manages
	// between epochs (see controller.go); cfg.Lookahead is only its initial
	// value. epochHighWater tracks ResidentBytes within the current epoch;
	// winBytes caches windowBytes projections per depth.
	lookahead      int
	epochHighWater int64
	winBytes       map[int]int64

	// codec is the parsed Config.Codec; every budget projection prices
	// shards under it, matching the store's own admission accounting.
	codec storage.Codec

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

// New prepares a trainer over the given training graph and store. The store
// decides the memory regime: MemStore keeps everything resident, DiskStore
// swaps partitions per §4.1.
func New(g *graph.Graph, store storage.Store, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("train: Dim must be positive")
	}
	codec, err := storage.ParseCodec(cfg.Codec)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	t := &Trainer{cfg: cfg, g: g, store: store, root: rng.New(cfg.Seed), codec: codec}
	t.obs = cfg.Obs
	if t.obs == nil {
		t.obs = obs.NewQuietHub()
	}
	t.tm = newTrainMetrics(t.obs.Reg)

	// Per-relation scorers (relations may use different operators).
	t.scorers = make([]*model.Scorer, len(g.Schema.Relations))
	t.relParams = make([][]float32, len(g.Schema.Relations))
	t.relOptFwd = make([]*optim.DenseAdagrad, len(g.Schema.Relations))
	t.relOptRev = make([]*optim.DenseAdagrad, len(g.Schema.Relations))
	t.relMu = make([]sync.Mutex, len(g.Schema.Relations))
	for r, rel := range g.Schema.Relations {
		sc, err := model.NewScorer(cfg.Dim, rel.Operator, cfg.Comparator, cfg.Loss, cfg.Margin, cfg.Reciprocal)
		if err != nil {
			return nil, fmt.Errorf("train: relation %q: %w", rel.Name, err)
		}
		t.scorers[r] = sc
		t.relParams[r] = make([]float32, sc.RelParamCount())
		sc.InitRelParams(t.relParams[r])
		half := sc.Op.ParamCount(cfg.Dim)
		t.relOptFwd[r] = optim.NewDenseAdagrad(cfg.RelationLR, half)
		if cfg.Reciprocal {
			t.relOptRev[r] = optim.NewDenseAdagrad(cfg.RelationLR, half)
		}
	}

	t.relSrc = make([]int, len(g.Schema.Relations))
	t.relDst = make([]int, len(g.Schema.Relations))
	for r, rel := range g.Schema.Relations {
		t.relSrc[r] = g.Schema.EntityTypeIndex(rel.SourceType)
		t.relDst[r] = g.Schema.EntityTypeIndex(rel.DestType)
	}

	degrees := graph.ComputeDegrees(g)
	t.samplers = sampling.NewSet(g.Schema, degrees, cfg.NegAlpha)
	t.rowOpt = optim.NewRowAdagrad(cfg.LR)

	t.workerStates = make([]*workerState, cfg.Workers)
	for w := range t.workerStates {
		t.workerStates[w] = t.newWorkerState()
	}

	// Bucket-sort a copy of the edges.
	t.nSrc, t.nDst = bucketDims(g.Schema)
	t.edges = g.Edges.Clone()
	t.ranges = graph.SortByBucket(g.Schema, t.edges, t.nSrc, t.nDst)
	order, err := t.buildOrder()
	if err != nil {
		return nil, err
	}
	t.buckets = order

	t.stripes = make([]sync.Mutex, 1024)
	t.winBytes = make(map[int]int64)

	// Plumb the shard codec into stores that encode one (DiskStore); the
	// codec must land before the budget so admission prices quantized bytes
	// from the first hint. Stores with no on-disk format (MemStore) have
	// nothing to encode — for them the codec takes effect at Checkpoint
	// time, when the shards first meet a disk.
	if codec != storage.CodecFP32 {
		if c, ok := store.(interface{ SetCodec(storage.Codec) }); ok {
			c.SetCodec(codec)
		}
	}
	// Plumb the memory budget into stores that enforce one (DiskStore, the
	// distributed remote store); others simply ignore it. Then pick the
	// initial lookahead the budget can actually afford.
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
	t.initLookahead()
	t.tm.lookahead.Set(int64(t.lookahead))
	return t, nil
}

// bucketDims returns the bucket grid dimensions implied by the schema.
func bucketDims(s *graph.Schema) (nSrc, nDst int) {
	nSrc, nDst = 1, 1
	for _, r := range s.Relations {
		if p := s.Entity(r.SourceType).NumPartitions; p > nSrc {
			nSrc = p
		}
		if p := s.Entity(r.DestType).NumPartitions; p > nDst {
			nDst = p
		}
	}
	return nSrc, nDst
}

// Buckets exposes the training bucket order (for tests and the distributed
// lock server).
func (t *Trainer) Buckets() []partition.Bucket { return t.buckets }

// Schema returns the graph schema the trainer was built from.
func (t *Trainer) Schema() *graph.Schema { return t.g.Schema }

// Codec reports the parsed shard codec of the run (Config.Codec);
// Model.Checkpoint encodes checkpoints under it.
func (t *Trainer) Codec() storage.Codec { return t.codec }

// PeakResidentBytes reports the largest model footprint held in memory so
// far (sampled while bucket shards are resident).
func (t *Trainer) PeakResidentBytes() int64 { return t.peakBytes }

// BucketEdgeCount returns the number of training edges in bucket b.
func (t *Trainer) BucketEdgeCount(b partition.Bucket) int {
	return t.ranges[b.Index(t.nDst)].Len()
}

// BucketDims returns the (source, destination) partition grid size.
func (t *Trainer) BucketDims() (nSrc, nDst int) { return t.nSrc, t.nDst }

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

// SetRelParams overwrites relation r's parameters (distributed sync).
func (t *Trainer) SetRelParams(r int, p []float32) { copy(t.relParams[r], p) }

// Scorer returns the scorer used for relation r.
func (t *Trainer) Scorer(r int) *model.Scorer { return t.scorers[r] }

// Store returns the backing embedding store.
func (t *Trainer) Store() storage.Store { return t.store }

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

// epochItem is one unit of epoch work: a stratum slice of one bucket.
type epochItem struct {
	b      partition.Bucket
	lo, hi int
}

// epochItems flattens the stratum × bucket iteration into the ordered work
// list the (pipelined) epoch executor runs and looks ahead over.
func (t *Trainer) epochItems() []epochItem {
	var items []epochItem
	for stratum := 0; stratum < t.cfg.StratumParts; stratum++ {
		for _, b := range t.buckets {
			rg := t.ranges[b.Index(t.nDst)]
			if rg.Empty() {
				continue
			}
			lo, hi := stratumSlice(rg, stratum, t.cfg.StratumParts)
			if hi <= lo {
				continue
			}
			items = append(items, epochItem{b: b, lo: lo, hi: hi})
		}
	}
	return items
}

// countSwapIns updates the PartitionIO stat the way partition.SwapCount
// does: partitions the previous bucket did not hold must be swapped in.
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

// TrainEpoch runs one pass over all buckets. Unless cfg.PipelineOff is set
// it uses the pipelined executor: while a bucket trains, the shards the next
// cfg.Lookahead buckets need are prefetched by the store's background I/O
// and no-longer-needed shards are written back asynchronously, so bucket
// transitions cost only the I/O that failed to overlap (reported as
// stats.IOWait).
func (t *Trainer) TrainEpoch() (EpochStats, error) {
	start := time.Now()
	stats := EpochStats{Epoch: t.epochsRun}
	t.epochHighWater = 0
	if !t.cfg.PipelineOff {
		stats.Lookahead = t.lookahead
	}
	t.epochSpan = t.obs.Trace.Start("train", fmt.Sprintf("epoch %d", t.epochsRun))
	ioBase, computeBase := t.tm.ioWait.Value(), t.tm.compute.Value()
	negBase, activeBase := t.tm.negatives.Value(), t.tm.negativesActive.Value()
	counted, _ := t.store.(interface{ IOStats() storage.IOStats })
	var ioStatsBase storage.IOStats
	if counted != nil {
		ioStatsBase = counted.IOStats()
	}
	items := t.epochItems()
	var err error
	if t.cfg.PipelineOff {
		err = t.runEpochSerial(items, &stats)
	} else {
		err = t.runEpochPipelined(items, &stats)
	}
	t.epochSpan.End()
	t.epochSpan = nil
	stats.IOWait = time.Duration(t.tm.ioWait.Value() - ioBase)
	stats.Compute = time.Duration(t.tm.compute.Value() - computeBase)
	stats.Negatives = t.tm.negatives.Value() - negBase
	stats.ActiveNegatives = t.tm.negativesActive.Value() - activeBase
	if counted != nil {
		io := counted.IOStats()
		stats.SwapIn, stats.SwapOut = io.Loads-ioStatsBase.Loads, io.Writes-ioStatsBase.Writes
	}
	stats.Duration = time.Since(start)
	stats.PeakResident = t.peakBytes
	stats.ResidentHighWater = t.epochHighWater
	t.tm.edges.Add(int64(stats.Edges))
	t.tm.swapIns.Add(int64(stats.PartitionIO))
	if err != nil {
		return stats, err
	}
	if !t.cfg.PipelineOff {
		t.adaptLookahead(&stats)
		t.tm.decisions[stats.LookaheadAction].Inc()
		t.tm.lookahead.Set(int64(t.lookahead))
	}
	t.epochsRun++
	return stats, nil
}

// runEpochSerial is the pre-pipeline baseline: each bucket acquires its
// shards one after another, trains, and synchronously releases them before
// the next bucket starts.
func (t *Trainer) runEpochSerial(items []epochItem, stats *EpochStats) error {
	r := t.NewResident()
	held := map[int]bool{}
	for _, it := range items {
		held = countSwapIns(it.b, held, stats)
		err := r.Advance(it.b, nil)
		var loss float64
		var edges int
		if err == nil {
			loss, edges, err = r.train(it.b, it.lo, it.hi)
		}
		// Release errors must surface: a store that writes on Release has
		// lost this bucket's training if the write failed.
		if rerr := r.ReleaseAll(); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		stats.Loss += loss
		stats.Edges += edges
		stats.BucketsActive++
	}
	return nil
}

// runEpochPipelined overlaps partition I/O with training (§4.1 made real):
// shards shared with the next bucket simply stay held (see Resident), and
// shards the next buckets need are prefetched while the current bucket
// trains.
func (t *Trainer) runEpochPipelined(items []epochItem, stats *EpochStats) error {
	r := t.NewResident()
	heldParts := map[int]bool{}
	for i, it := range items {
		heldParts = countSwapIns(it.b, heldParts, stats)
		if err := r.Advance(it.b, nil); err != nil {
			r.ReleaseAll()
			return err
		}
		// Hint the shards the next buckets will need; the store loads them
		// on its background pool while this bucket trains.
		for l := 1; l <= t.lookahead && i+l < len(items); l++ {
			r.hint(items[i+l].b)
		}
		loss, edges, err := r.train(it.b, it.lo, it.hi)
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
// proceed in parallel (the serial baseline acquires them one by one).
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
	if !t.cfg.PipelineOff {
		for _, k := range keys {
			if _, ok := r.held[k]; !ok {
				t.store.Prefetch(k.t, k.p)
				r.prefetched[k] = true
			}
		}
	}
	for _, k := range keys {
		if _, ok := r.held[k]; ok {
			continue
		}
		sh, err := t.store.Acquire(k.t, k.p)
		delete(r.prefetched, k) // consumed, or its entry died with the failed load
		if err != nil {
			return err
		}
		r.held[k] = shardRef{shard: sh, ent: t.g.Schema.Entities[k.t]}
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
	return r.train(b, rg.Lo, rg.Hi)
}

func (r *Resident) train(b partition.Bucket, lo, hi int) (loss float64, edges int, err error) {
	t0 := time.Now()
	loss, edges, err = r.t.runBucket(b, lo, hi, r.held)
	r.t.tm.compute.Add(time.Since(t0).Nanoseconds())
	return loss, edges, err
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

func stratumSlice(rg graph.BucketRange, k, n int) (lo, hi int) {
	size := rg.Len()
	lo = rg.Lo + k*size/n
	hi = rg.Lo + (k+1)*size/n
	return lo, hi
}

// shardRef resolves entity ids of one (type, partition) to rows of an
// acquired shard.
type shardRef struct {
	shard *storage.Shard
	ent   graph.EntityType
}

func (s shardRef) row(id int32) []float32 { return s.shard.Row(s.ent.LocalOffset(id)) }
func (s shardRef) acc(id int32) *float32  { return &s.shard.Acc[s.ent.LocalOffset(id)] }

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

// runBucket trains edges [lo, hi) of bucket b on the HOGWILD worker pool,
// using shards already acquired by the caller.
func (t *Trainer) runBucket(b partition.Bucket, lo, hi int, shards map[shardKey]shardRef) (loss float64, edges int, err error) {
	sp := t.startBucketSpan(b)
	defer sp.End()
	n := hi - lo
	perm := make([]int, n)
	t.root.Perm(perm)

	workers := t.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	losses := make([]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, r *rng.RNG) {
			defer wg.Done()
			wlo := w * n / workers
			whi := (w + 1) * n / workers
			losses[w], errs[w] = t.workerLoop(t.workerStates[w], b, shards, perm[wlo:whi], lo, r)
		}(w, t.root.Split())
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return 0, 0, errs[w]
		}
		loss += losses[w]
	}
	if n > 0 {
		t.tm.bucketLoss.Observe(loss / float64(n))
	}
	return loss, n, nil
}

// workerState is one HOGWILD worker's reusable scratch. It persists across
// chunks, relations, buckets, and epochs, so the steady-state worker loop
// allocates nothing.
type workerState struct {
	ws *model.Workspace
	// grads[rel] holds relation rel's gradient buffers (operator parameter
	// counts differ between relations, so these cannot be shared). Indexed
	// by relation so the worker loop walks relations in schema order.
	grads []*model.ChunkGrad
	// byRel groups the worker's edge indices by relation; the slices are
	// truncated and refilled each bucket. Relation-indexed (not a map) so
	// chunk processing order — and with it the negative-sampling RNG
	// stream — is deterministic for a fixed seed.
	byRel   [][]int
	inBuf   model.ChunkInput
	srcBuf  []float32
	dstBuf  []float32
	usrcBuf []float32
	udstBuf []float32
	// fwdCopy/revCopy hold the striped-lock mode's per-chunk snapshot of the
	// relation parameters (see workerLoop).
	fwdCopy []float32
	revCopy []float32
}

func (t *Trainer) newWorkerState() *workerState {
	c, u, d := t.cfg.ChunkSize, t.cfg.UniformNegs, t.cfg.Dim
	nrel := len(t.g.Schema.Relations)
	return &workerState{
		grads: make([]*model.ChunkGrad, nrel),
		byRel: make([][]int, nrel),
		inBuf: model.ChunkInput{
			SrcIDs: make([]int32, c), DstIDs: make([]int32, c),
			USrcIDs: make([]int32, u), UDstIDs: make([]int32, u),
		},
		srcBuf:  make([]float32, c*d),
		dstBuf:  make([]float32, c*d),
		usrcBuf: make([]float32, u*d),
		udstBuf: make([]float32, u*d),
	}
}

// workerLoop is one HOGWILD worker: it groups its edge indices by relation
// (batches share a relation, §4.3 last paragraph) and processes chunks.
// Relations are walked in schema order — byRel is relation-indexed, never a
// map — so a fixed seed replays the identical chunk and RNG sequence.
//
//pbg:hotpath
func (t *Trainer) workerLoop(st *workerState, b partition.Bucket, shards map[shardKey]shardRef, idx []int, base int, r *rng.RNG) (float64, error) {
	c := t.cfg.ChunkSize
	u := t.cfg.UniformNegs
	d := t.cfg.Dim

	byRel := st.byRel
	for rel := range byRel {
		byRel[rel] = byRel[rel][:0]
	}
	for _, i := range idx {
		rel := t.edges.Rels[base+i]
		byRel[rel] = append(byRel[rel], base+i)
	}

	in := &st.inBuf

	// Gather vs score time and the negative counts accumulate in locals and
	// land on the shared counters once per bucket, so the per-chunk hot path
	// stays free of atomics (the clock reads below are the only
	// instrumentation cost).
	var gatherNs, scoreNs, negs, activeNegs int64

	var total float64
	for rel := range byRel {
		list := byRel[rel]
		if len(list) == 0 {
			continue
		}
		sc := t.scorers[rel]
		if st.ws == nil {
			// Workspace shape depends only on (chunk, negatives, dim), so it
			// is shared across relations; gradient buffers are per relation
			// because operator parameter counts differ.
			st.ws = sc.NewWorkspace(c, u)
		}
		ws := st.ws
		grad := st.grads[rel]
		if grad == nil {
			grad = sc.NewChunkGrad(c, u)
			st.grads[rel] = grad
		}
		relCfg := t.g.Schema.Relations[rel]
		srcRef := t.lookupRef(shards, t.relSrc[rel], b.P1)
		dstRef := t.lookupRef(shards, t.relDst[rel], b.P2)
		srcSmp := t.samplers.ForRelationSource(int32(rel), b.P1)
		dstSmp := t.samplers.ForRelationDest(int32(rel), b.P2)
		fwd, rev := sc.SplitRelParams(t.relParams[rel])

		for chunkLo := 0; chunkLo < len(list); chunkLo += c {
			chunkHi := chunkLo + c
			if chunkHi > len(list) {
				chunkHi = len(list)
			}
			cc := chunkHi - chunkLo
			g0 := time.Now()
			// Gather.
			in.SrcIDs = st.inBuf.SrcIDs[:cc]
			in.DstIDs = st.inBuf.DstIDs[:cc]
			in.USrcIDs = st.inBuf.USrcIDs[:u]
			in.UDstIDs = st.inBuf.UDstIDs[:u]
			for k, ei := range list[chunkLo:chunkHi] {
				in.SrcIDs[k] = t.edges.Srcs[ei]
				in.DstIDs[k] = t.edges.Dsts[ei]
			}
			sampling.SampleMany(srcSmp, r, in.USrcIDs)
			sampling.SampleMany(dstSmp, r, in.UDstIDs)
			in.Src = t.gather(st.srcBuf, srcRef, in.SrcIDs, d)
			in.Dst = t.gather(st.dstBuf, dstRef, in.DstIDs, d)
			in.USrc = t.gather(st.usrcBuf, srcRef, in.USrcIDs, d)
			in.UDst = t.gather(st.udstBuf, dstRef, in.UDstIDs, d)
			in.RelWeight = relCfg.EffectiveWeight()
			in.RelFwd = fwd
			in.RelRev = rev
			if t.cfg.HogwildOff && (len(fwd) > 0 || len(rev) > 0) {
				// Striped-lock mode must not read parameters another worker
				// is updating under relMu: score from a snapshot taken under
				// the lock (the updates themselves still hit the live block).
				t.relMu[rel].Lock()
				st.fwdCopy = append(st.fwdCopy[:0], fwd...)
				st.revCopy = append(st.revCopy[:0], rev...)
				t.relMu[rel].Unlock()
				in.RelFwd = st.fwdCopy
				if rev != nil {
					in.RelRev = st.revCopy
				}
			}

			g1 := time.Now()
			gatherNs += g1.Sub(g0).Nanoseconds()
			sc.ScoreChunk(ws, in, grad)
			total += grad.Loss
			negs += int64(grad.NegCount)
			activeNegs += int64(grad.ActiveNegs)
			g2 := time.Now()
			scoreNs += g2.Sub(g1).Nanoseconds()

			// Scatter updates.
			t.applyRows(srcRef, in.SrcIDs, grad.Src.Data, d)
			t.applyRows(dstRef, in.DstIDs, grad.Dst.Data, d)
			t.applyRows(srcRef, in.USrcIDs, grad.USrc.Data, d)
			t.applyRows(dstRef, in.UDstIDs, grad.UDst.Data, d)
			if len(grad.RelFwd) > 0 {
				t.relMu[rel].Lock()
				t.relOptFwd[rel].Update(fwd, grad.RelFwd)
				if rev != nil {
					t.relOptRev[rel].Update(rev, grad.RelRev)
				}
				t.relMu[rel].Unlock()
			}
			gatherNs += time.Since(g2).Nanoseconds()
		}
	}
	t.tm.workerGather.Add(gatherNs)
	t.tm.workerScore.Add(scoreNs)
	t.tm.negatives.Add(negs)
	t.tm.negativesActive.Add(activeNegs)
	return total, nil
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

// gather copies the embedding rows of ids into a matrix backed by buf. In
// striped-lock (HogwildOff) mode each row is copied under its stripe so the
// read cannot race a concurrent applyRows update; in HOGWILD mode the copy
// is lock-free and any torn read is the paper's benign race.
//
//pbg:hotpath
func (t *Trainer) gather(buf []float32, ref shardRef, ids []int32, d int) vec.Matrix {
	m := vec.MatrixFrom(buf[:len(ids)*d], len(ids), d)
	if t.cfg.HogwildOff {
		for k, id := range ids {
			mu := &t.stripes[rowStripe(ref.shard.TypeIndex, id)]
			mu.Lock()
			copy(m.Row(k), ref.row(id))
			mu.Unlock()
		}
		return m
	}
	for k, id := range ids {
		copy(m.Row(k), ref.row(id))
	}
	return m
}

// applyRows applies per-row Adagrad updates for the gathered gradient block.
//
//pbg:hotpath
func (t *Trainer) applyRows(ref shardRef, ids []int32, grads []float32, d int) {
	for k, id := range ids {
		g := grads[k*d : (k+1)*d]
		if t.cfg.HogwildOff {
			mu := &t.stripes[rowStripe(ref.shard.TypeIndex, id)]
			mu.Lock()
			t.rowOpt.Update(ref.row(id), g, ref.acc(id))
			mu.Unlock()
		} else {
			// HOGWILD: benign races on float32 rows, as in the paper.
			t.rowOpt.Update(ref.row(id), g, ref.acc(id))
		}
	}
}

func rowStripe(typeIdx int, id int32) int {
	h := uint32(typeIdx)*2654435761 + uint32(id)*2246822519
	return int(h % 1024)
}

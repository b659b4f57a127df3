package train

import "pbg/internal/storage"

// The adaptive lookahead controller. Deeper lookahead trades resident
// memory for I/O–compute overlap (more buckets' shards prefetch while the
// current bucket trains), so the right depth depends on how I/O-bound the
// epoch actually is and how much memory the budget allows. Between epochs
// the controller widens the depth while the measured IOWait share stays
// above a threshold and the projected resident bytes of the wider window —
// shard shapes are known exactly from the schema — still fit inside
// Config.MemBudgetBytes, and narrows it when the budget binds (the
// projection no longer fits, or the store was forced over budget). The
// budget is the controller's only input besides the measurements: the
// depth starts at 1 and widens only under a budget, to at most
// budgetLookaheadCap. The per-epoch decision and resident high-water
// mark are reported in EpochStats so pbg-train can print them.

// lookaheadWidenIOWait is the IOWait share of (IOWait + Compute) above
// which the controller deems bucket transitions I/O bound and tries to
// widen the prefetch horizon.
const lookaheadWidenIOWait = 0.05

// budgetLookaheadCap caps the controller under a memory budget. Four
// buckets of prefetch is enough to hide one slow device behind compute
// without letting the window grow past a partition row. Without a budget
// the depth stays at 1: widening trades resident memory for overlap, and
// only a budget bounds that trade.
const budgetLookaheadCap = 4

// maxLookahead is the controller's cap for this run.
func (t *Trainer) maxLookahead() int {
	if t.cfg.MemBudgetBytes > 0 {
		return budgetLookaheadCap
	}
	return 1
}

// shardKeyBytes is the budget price of shard k — its fp32 size, or its
// quantized footprint under Config.Codec — priced through the same helper
// budget admission uses, so the controller's projections cannot drift from
// the store's accounting. A smaller codec therefore widens the depth the
// same budget affords, automatically.
func (t *Trainer) shardKeyBytes(k shardKey) int64 {
	return storage.ProjectedShardBytesCodec(t.g.Schema, t.cfg.Dim, k.t, k.p, t.codec)
}

// maxShardBytes is the largest single shard of the schema — the "one
// in-flight shard" allowance the budget math leaves for a load or
// write-back snapshot that is mid-flight while the window turns over.
func (t *Trainer) maxShardBytes() int64 {
	var max int64
	for ti := range t.g.Schema.Entities {
		if b := t.shardKeyBytes(shardKey{ti, 0}); b > max {
			max = b // partition 0 is never smaller than later partitions
		}
	}
	return max
}

// windowBytes projects the resident footprint of running with lookahead L:
// the largest total size, over every position in the epoch's work list, of
// the distinct shards the current item plus the next L items touch. The
// projection is exact because shard shapes are known from the schema —
// no epoch needs to be run to price a depth.
func (t *Trainer) windowBytes(L int) int64 {
	if v, ok := t.winBytes[L]; ok {
		return v
	}
	items := t.epochItems()
	var maxB int64
	seen := make(map[shardKey]bool)
	for i := range items {
		clear(seen)
		var b int64
		for j := i; j < len(items) && j <= i+L; j++ {
			for _, k := range t.bucketShardKeys(items[j]) {
				if !seen[k] {
					seen[k] = true
					b += t.shardKeyBytes(k)
				}
			}
		}
		if b > maxB {
			maxB = b
		}
	}
	t.winBytes[L] = maxB
	return maxB
}

// initLookahead picks the starting depth: 1, narrowed until the projected
// window (plus the in-flight allowance) fits the budget. With a budget so
// tight only one bucket's shards fit, this starts the executor at
// lookahead 0 — one bucket's working set — rather than issuing hints the
// store would shed.
func (t *Trainer) initLookahead() {
	t.lookahead = 1
	if budget := t.cfg.MemBudgetBytes; budget > 0 {
		allowance := t.maxShardBytes()
		for t.lookahead > 0 && t.windowBytes(t.lookahead)+allowance > budget {
			t.lookahead--
		}
	}
}

// Lookahead reports the live prefetch depth (tests, pbg-train).
func (t *Trainer) Lookahead() int { return t.lookahead }

// adaptLookahead is the between-epochs controller step: st holds the epoch
// just finished, and the depth chosen here applies from the next epoch.
// The decision lands in st.LookaheadAction.
func (t *Trainer) adaptLookahead(st *EpochStats) {
	budget := t.cfg.MemBudgetBytes
	allowance := t.maxShardBytes()
	if budget > 0 && t.lookahead > 0 &&
		(t.windowBytes(t.lookahead)+allowance > budget || st.ResidentHighWater > budget) {
		// The budget binds: the projection says the current window cannot
		// fit, or the store was actually forced over budget this epoch.
		t.lookahead--
		st.LookaheadAction = "narrow"
		return
	}
	busy := st.IOWait + st.Compute
	if busy > 0 && st.IOWait.Seconds()/busy.Seconds() > lookaheadWidenIOWait &&
		t.lookahead < t.maxLookahead() &&
		(budget == 0 || t.windowBytes(t.lookahead+1)+allowance <= budget) {
		t.lookahead++
		st.LookaheadAction = "widen"
		return
	}
	st.LookaheadAction = "hold"
}

// sampleResident records the store's resident bytes against both the
// run-wide peak (Tables 3–4 memory column) and the per-epoch high-water
// mark the controller and EpochStats report.
func (t *Trainer) sampleResident() {
	rb := t.store.ResidentBytes()
	if rb > t.peakBytes {
		t.peakBytes = rb
	}
	if rb > t.epochHighWater {
		t.epochHighWater = rb
	}
}

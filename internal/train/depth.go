package train

import "pbg/internal/storage"

// The prefetch depth. Deeper lookahead trades resident memory for I/O–
// compute overlap: while one bucket trains, the shards the next L buckets
// need load in the background. Shard shapes are known from the schema, so
// the resident footprint of every depth is priced exactly before the first
// epoch, and New picks the depth once — the deepest window the memory
// budget fits — for every epoch of the run.

// maxLookahead caps the depth under a memory budget. Four buckets of
// prefetch is enough to hide one slow device behind compute without letting
// the window grow past a partition row.
const maxLookahead = 4

// pickLookahead is the run's prefetch depth. Without a budget it is 1:
// only a budget bounds the memory a deeper window holds. Under a budget it
// is the deepest L ≤ maxLookahead whose projected window plus the one
// in-flight shard fits, and 0 — one bucket's working set, no hints the
// store would shed — when not even L = 1 fits.
func (t *Trainer) pickLookahead() int {
	budget := t.cfg.MemBudgetBytes
	if budget <= 0 {
		return 1
	}
	allowance := t.maxShardBytes()
	L := 0
	for L < maxLookahead && t.windowBytes(L+1)+allowance <= budget {
		L++
	}
	return L
}

// shardKeyBytes is the budget price of shard k — its decoded fp32 size —
// priced through the same helper budget admission uses, so the depth's
// projections cannot drift from the store's accounting.
func (t *Trainer) shardKeyBytes(k shardKey) int64 {
	return storage.ProjectedShardBytes(t.g.Schema, t.cfg.Dim, k.t, k.p)
}

// maxShardBytes is the largest single shard of the schema — the "one
// in-flight shard" allowance the budget math leaves for a load or
// write-back that is mid-flight while the window turns over.
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
	return maxB
}

// Lookahead reports the prefetch depth New picked (tests, pbg train).
func (t *Trainer) Lookahead() int { return t.lookahead }

// sampleResident records the store's resident bytes against both the
// run-wide peak (Tables 3–4 memory column) and the per-epoch high-water
// mark EpochStats reports.
func (t *Trainer) sampleResident() {
	rb := t.store.ResidentBytes()
	if rb > t.peakBytes {
		t.peakBytes = rb
	}
	if rb > t.epochHighWater {
		t.epochHighWater = rb
	}
}

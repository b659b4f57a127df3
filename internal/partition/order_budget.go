package partition

// Budget-aware bucket ordering (the scheduling half of the memory-budget
// story). PBG fixes the bucket order up front — inside-out minimises swaps
// for a machine that holds exactly the current bucket's two partitions —
// but a memory-budgeted shard cache (storage.DiskStore under
// SetMaxResidentBytes) can hold *several* partitions at once, and Marius
// (Mohoney et al., OSDI 2021) showed that choosing the order against that
// bounded partition buffer (their BETA ordering) removes most of the swap
// I/O the fixed order pays. This file provides the analytical cost model —
// SwapCostUnderBuffer simulates an LRU partition buffer of a given capacity
// — and OptimizeOrder, a greedy one-step-lookahead search that reorders a
// bucket sequence to minimise loads under that buffer while preserving the
// §4.1 initialisation invariant checked by CheckInvariant. A buffer of
// `slots` partitions holds each partition's shards across all partitioned
// entity types; slots <= 0 means unbounded, and a bucket touches at most
// two partitions, so values below 2 are treated as 2.

// numParts is one past the largest partition order touches: the length of
// the partition-indexed arrays the two searches below run on.
func numParts(order []Bucket) int {
	np := 0
	for _, b := range order {
		np = max(np, b.P1+1, b.P2+1)
	}
	return np
}

// distinctParts counts the partitions order touches: the loads an
// unbounded buffer pays, and the buffer size past which no order can force
// an eviction.
func distinctParts(order []Bucket) int {
	seen := make([]bool, numParts(order))
	n := 0
	for _, b := range order {
		for _, p := range [2]int{b.P1, b.P2} {
			if !seen[p] {
				seen[p] = true
				n++
			}
		}
	}
	return n
}

// lruBuffer is the simulated partition buffer of SwapCostUnderBuffer and
// OptimizeOrder. stamp[p] is partition p's last-use stamp, 0 while p is not
// held; held lists the held partitions, at most slots of them, in no
// particular order.
type lruBuffer struct {
	slots int
	clock int64
	stamp []int64
	held  []int
}

func newLRUBuffer(np, slots int) *lruBuffer {
	return &lruBuffer{slots: slots, stamp: make([]int64, np), held: make([]int, 0, slots+2)}
}

func (l *lruBuffer) has(p int) bool { return l.stamp[p] != 0 }

// loadsOf counts b's partitions the buffer does not hold.
func (l *lruBuffer) loadsOf(b Bucket) int {
	n := 0
	if !l.has(b.P1) {
		n++
	}
	if b.P2 != b.P1 && !l.has(b.P2) {
		n++
	}
	return n
}

// use simulates running bucket b: each missing partition is loaded, after
// evicting least-recently-used partitions b does not need until it fits,
// and both of b's partitions take the new stamp. It returns the loads.
func (l *lruBuffer) use(b Bucket) int {
	l.clock++
	loads := l.touch(b.P1, b)
	if b.P2 != b.P1 {
		loads += l.touch(b.P2, b)
	}
	return loads
}

func (l *lruBuffer) touch(p int, b Bucket) int {
	loads := 0
	if !l.has(p) {
		loads = 1
		for len(l.held) >= l.slots {
			i := lruVictim(l.held, l.stamp, b)
			if i < 0 {
				break // everything held is needed right now
			}
			l.stamp[l.held[i]] = 0
			last := len(l.held) - 1
			l.held[i] = l.held[last]
			l.held = l.held[:last]
		}
		l.held = append(l.held, p)
	}
	l.stamp[p] = l.clock
	return loads
}

// SwapCostUnderBuffer simulates executing the order on a machine whose
// partition buffer holds up to slots partitions, evicting least-recently-
// used partitions when a bucket needs room, and returns the number of
// partition loads. slots <= 0 means unbounded (each distinct partition
// loads exactly once — the compulsory minimum); slots below a bucket's own
// working set is clamped to it, so the count is always well defined.
//
// SwapCount is the special case of a buffer that retains only the current
// bucket's partitions; because LRU keeps strictly more state, for any
// slots >= 2 this never exceeds SwapCount(order). LRU is a stack algorithm,
// so the cost is also monotone non-increasing in slots (no Belady anomaly);
// both properties are pinned by tests.
//
// Two partitions tie on the last-use stamp exactly when their final
// touches came from the same bucket; the lower-numbered partition is then
// evicted, so the simulated cost is a deterministic function of the order.
func SwapCostUnderBuffer(order []Bucket, slots int) int {
	if slots <= 0 {
		return distinctParts(order)
	}
	buf := newLRUBuffer(numParts(order), max(slots, 2))
	loads := 0
	for _, b := range order {
		loads += buf.use(b)
	}
	return loads
}

// lruVictim returns the index in held of the least-recently-used partition
// the bucket does not need, breaking last-use-stamp ties by partition number
// so the simulation is deterministic; -1 if every held partition is in use.
func lruVictim(held []int, stamp []int64, b Bucket) int {
	victim, victimUse, at := -1, int64(1<<62), -1
	for i, q := range held {
		if q == b.P1 || q == b.P2 {
			continue
		}
		if use := stamp[q]; use < victimUse || (use == victimUse && q < victim) {
			victim, victimUse, at = q, use, i
		}
	}
	return at
}

// optimizeGainCap bounds how many minimal-load candidates OptimizeOrder
// evaluates with the one-step-lookahead gain heuristic per step, keeping the
// search near-quadratic in the bucket count on large grids.
const optimizeGainCap = 64

// OptimizeOrder reorders the given buckets to minimise partition loads
// under a buffer of `slots` partitions, returning a new slice (the
// input is not modified). The search is greedy with one step of lookahead:
// at each position it considers the not-yet-scheduled buckets that touch at
// least one previously scheduled partition (preserving the §4.1
// initialisation invariant — the result passes CheckInvariant whenever the
// input does), keeps those needing the fewest partition loads, and among
// them prefers the bucket whose post-load buffer contains the most
// remaining zero-cost buckets — which reproduces the blocked, buffer-filling
// sweeps of Marius' BETA ordering on grid bucket sets. Ties break by input
// position, so the result is deterministic and degrades to the input order
// when the buffer cannot distinguish candidates.
//
// When the buffer is unbounded for these buckets (slots <= 0, or every
// partition fits at once) there is nothing to optimise and a copy of the
// input is returned.
func OptimizeOrder(order []Bucket, slots int) []Bucket {
	if len(order) <= 2 || slots <= 0 || slots >= distinctParts(order) {
		return append([]Bucket(nil), order...)
	}
	slots = max(slots, 2)

	np := numParts(order)
	remaining := make([]Bucket, len(order))
	copy(remaining, order)
	pending := make([]bool, np*np) // bucket (P1, P2) at P1·np+P2
	for _, b := range order {
		pending[b.P1*np+b.P2] = true
	}
	buf := newLRUBuffer(np, slots)
	seen := make([]bool, np) // partitions touched by any scheduled bucket
	eligible := func(b Bucket) bool { return seen[b.P1] || seen[b.P2] }

	out := make([]Bucket, 0, len(order))
	take := func(b Bucket) {
		buf.use(b)
		seen[b.P1], seen[b.P2] = true, true
		pending[b.P1*np+b.P2] = false
		out = append(out, b)
		for i, r := range remaining {
			if r == b {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}

	// The first bucket is free to the invariant; keep the input's choice
	// (inside-out starts at (0,0)).
	take(remaining[0])

	// gainOf counts pending buckets (other than b) that would cost zero
	// loads with b's partitions resident: the payoff of bringing b's new
	// partitions in. The buffer holds at most `slots` partitions, so this
	// stays O(slots²) per candidate.
	parts := make([]int, 0, slots+4)
	gainOf := func(b Bucket) int {
		parts = append(parts[:0], buf.held...)
		if !buf.has(b.P1) {
			parts = append(parts, b.P1)
		}
		if b.P2 != b.P1 && !buf.has(b.P2) {
			parts = append(parts, b.P2)
		}
		gain := 0
		for _, p := range parts {
			for _, q := range parts {
				if c := (Bucket{p, q}); c != b && pending[p*np+q] {
					gain++
				}
			}
		}
		return gain
	}

	for len(remaining) > 0 {
		// Pass 1: the minimal load count over eligible candidates.
		minLoads := 3
		anyEligible := false
		for _, b := range remaining {
			if !eligible(b) {
				continue
			}
			anyEligible = true
			if l := buf.loadsOf(b); l < minLoads {
				minLoads = l
				if l == 0 {
					break
				}
			}
		}
		if !anyEligible {
			// The pending buckets share no partition with anything scheduled
			// (possible only for non-grid bucket sets); fall back to input
			// order, mirroring the invariant's own escape hatch.
			take(remaining[0])
			continue
		}
		// Pass 2: among minimal-load candidates, the best one-step gain.
		best := Bucket{-1, -1}
		bestGain := -1
		evaluated := 0
		for _, b := range remaining {
			if !eligible(b) || buf.loadsOf(b) != minLoads {
				continue
			}
			if minLoads == 0 {
				// Zero-cost buckets are all equally free; take the first in
				// input order (stable) without paying for gain evaluation.
				best = b
				break
			}
			if g := gainOf(b); g > bestGain {
				best, bestGain = b, g
			}
			if evaluated++; evaluated >= optimizeGainCap {
				break
			}
		}
		take(best)
	}
	return out
}

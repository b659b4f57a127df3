// Package partition implements §4.1 of the paper: the division of edges
// into buckets by (source partition, destination partition), the orderings
// in which buckets are trained — most importantly the 'inside-out' order of
// Figure 1, which guarantees every bucket after the first touches at least
// one previously-trained partition — and the scheduler the lock server uses
// to hand out buckets with pairwise-disjoint partitions in distributed mode.
package partition

import (
	"fmt"
	"sync"

	"pbg/internal/rng"
)

// Bucket identifies one block of the adjacency matrix: source partition P1,
// destination partition P2.
type Bucket struct {
	P1, P2 int
}

// Index returns the linear index of b given nDst destination partitions.
func (b Bucket) Index(nDst int) int { return b.P1*nDst + b.P2 }

// String renders the bucket like "(1,2)".
func (b Bucket) String() string { return fmt.Sprintf("(%d,%d)", b.P1, b.P2) }

// Parts returns the set of distinct partitions the bucket touches. Source
// and destination partitions index the same space when both sides of a
// relation share an entity type; for mixed types the trainer maps them to
// per-type storage, but the locking and ordering logic operates on the
// combined coordinates, exactly as in the paper's single-entity exposition.
func (b Bucket) Parts() []int {
	if b.P1 == b.P2 {
		return []int{b.P1}
	}
	return []int{b.P1, b.P2}
}

// Disjoint reports whether two buckets share no partition (and can therefore
// train concurrently, Figure 1 left).
func (b Bucket) Disjoint(o Bucket) bool {
	return b.P1 != o.P1 && b.P1 != o.P2 && b.P2 != o.P1 && b.P2 != o.P2
}

// Ordering names implemented by Order. See README.md in this package for
// worked swap-count comparisons of all five strategies.
const (
	OrderInsideOut  = "inside_out"
	OrderSequential = "sequential"
	OrderRandom     = "random"
	OrderChained    = "chained"
	// OrderBudgetAware optimises the bucket sequence against a bounded
	// partition buffer (Marius-style BETA ordering): see OrderForBuffer and
	// PlanBudgetAware, which picks the cheapest of the greedy search (small
	// grids only) and the closed-form grouped/strided schedules under the
	// SwapCostUnderBuffer model. Through plain Order — which has no buffer
	// size to optimise against — it degrades to inside_out, the best fixed
	// order.
	OrderBudgetAware = "budget_aware"
)

// Order returns the list of all nSrc×nDst buckets in the requested order.
// seed only affects "random". The "budget_aware" order needs a buffer
// capacity to optimise against and so degrades to inside_out here; use
// OrderForBuffer when the resident partition slot count is known.
func Order(name string, nSrc, nDst int, seed uint64) ([]Bucket, error) {
	return OrderForBuffer(name, nSrc, nDst, seed, 0)
}

// OrderForBuffer is Order parameterized by the partition buffer capacity:
// slots is how many partitions the training machine can hold resident at
// once (e.g. train.Config.MemBudgetBytes divided by the per-partition shard
// bytes). Only "budget_aware" consults it — PlanBudgetAware picks the
// cheapest of the greedy OptimizeOrder search (grids small enough to
// afford it) and the closed-form grouped/strided BETA schedules, projected
// under an LRU buffer of that size. With slots <= 0 (no budget) or a
// buffer that already holds every partition, budget_aware degrades to
// inside_out.
func OrderForBuffer(name string, nSrc, nDst int, seed uint64, slots int) ([]Bucket, error) {
	if nSrc <= 0 || nDst <= 0 {
		return nil, fmt.Errorf("partition: non-positive partition counts %d×%d", nSrc, nDst)
	}
	switch name {
	case "", OrderInsideOut:
		return insideOut(nSrc, nDst), nil
	case OrderBudgetAware:
		return PlanBudgetAware(nSrc, nDst, slots).Order, nil
	case OrderSequential:
		out := make([]Bucket, 0, nSrc*nDst)
		for i := 0; i < nSrc; i++ {
			for j := 0; j < nDst; j++ {
				out = append(out, Bucket{i, j})
			}
		}
		return out, nil
	case OrderRandom:
		out, _ := OrderForBuffer(OrderSequential, nSrc, nDst, 0, 0)
		r := rng.New(seed)
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	case OrderChained:
		return chained(nSrc, nDst), nil
	default:
		return nil, fmt.Errorf("partition: unknown ordering %q", name)
	}
}

// insideOut produces the Figure 1 (right) ordering: growing square shells
// from (0,0). Shell k contributes (0,k), (1,k), …, (k,k), (k,k−1), …, (k,0);
// consecutive buckets share a partition, so swaps are minimised, and every
// bucket after the first touches a previously-trained partition.
func insideOut(nSrc, nDst int) []Bucket {
	maxP := nSrc
	if nDst > maxP {
		maxP = nDst
	}
	out := make([]Bucket, 0, nSrc*nDst)
	add := func(b Bucket) {
		if b.P1 < nSrc && b.P2 < nDst {
			out = append(out, b)
		}
	}
	for k := 0; k < maxP; k++ {
		for i := 0; i <= k; i++ {
			add(Bucket{i, k})
		}
		for j := k - 1; j >= 0; j-- {
			add(Bucket{k, j})
		}
	}
	return out
}

// chained produces a boustrophedon walk: row by row, alternating direction,
// so consecutive buckets always share their source partition (within a row)
// or sit in adjacent rows sharing the destination partition at the turn.
func chained(nSrc, nDst int) []Bucket {
	out := make([]Bucket, 0, nSrc*nDst)
	for i := 0; i < nSrc; i++ {
		if i%2 == 0 {
			for j := 0; j < nDst; j++ {
				out = append(out, Bucket{i, j})
			}
		} else {
			for j := nDst - 1; j >= 0; j-- {
				out = append(out, Bucket{i, j})
			}
		}
	}
	return out
}

// CheckInvariant reports whether every bucket after the first touches at
// least one partition that appeared in an earlier bucket — the alignment
// condition of §4.1 that keeps all partitions in one embedding space.
func CheckInvariant(order []Bucket) bool {
	if len(order) <= 1 {
		return true
	}
	seen := map[int]bool{}
	for i, b := range order {
		if i > 0 && !seen[b.P1] && !seen[b.P2] {
			return false
		}
		seen[b.P1] = true
		seen[b.P2] = true
	}
	return true
}

// SwapCount simulates executing the order on a single machine that holds
// only the partitions of the current bucket in memory, and returns the
// number of partition loads from disk (the I/O the inside-out order
// minimises).
func SwapCount(order []Bucket) int {
	held := map[int]bool{}
	loads := 0
	for _, b := range order {
		need := map[int]bool{}
		for _, p := range b.Parts() {
			need[p] = true
			if !held[p] {
				loads++
			}
		}
		held = need
	}
	return loads
}

// Scheduler is the bucket-leasing state machine behind the lock server
// (§4.2): it hands out buckets whose partitions no other owner has locked,
// enforces the two-uninitialised-partitions rule, and prefers buckets that
// reuse a worker's currently held partitions to minimise communication.
//
// Partitions are locked by owner. The anonymous Acquire/Release/Abandon
// calls lock a bucket's two partitions for that bucket alone, so in-flight
// buckets are pairwise disjoint. A ranked owner (AcquireFor) keeps its locks
// from one bucket to the next, as PBG's lock server lets a trainer do: a
// partition the asking rank already holds does not block the grant, Commit
// marks a bucket done without touching its locks, Unlock gives a partition
// up, and AbandonRank returns everything a rank has.
//
// The order the scheduler is built over is the tie-breaker beneath that
// affinity preference: Acquire scans it front to back and keeps the first
// bucket of the best affinity score, so when the order came from
// OrderForBuffer("budget_aware", ...) trainers lease buckets in the
// optimized sequence whenever their held partitions do not dictate
// otherwise — affinity itself being the per-worker form of the same
// buffer-reuse objective the optimizer minimises globally.
type Scheduler struct {
	mu    sync.Mutex
	order []Bucket
	done  map[Bucket]bool
	// inFlight maps a leased bucket to its owner, owner a locked partition
	// to its: a rank, or anonymous.
	inFlight    map[Bucket]int
	owner       map[int]int
	initialized map[int]bool
	anyStarted  bool
}

// anonymous owns the locks of a bucket leased through Acquire: it never
// matches an asking owner, so such a bucket's partitions block every grant.
const anonymous = -1

// NewScheduler creates a scheduler over the given bucket order. If
// preInitialized is true every partition counts as initialised (used from
// the second epoch on).
func NewScheduler(order []Bucket, preInitialized bool) *Scheduler {
	s := &Scheduler{
		order:       append([]Bucket(nil), order...),
		done:        make(map[Bucket]bool, len(order)),
		inFlight:    make(map[Bucket]int),
		owner:       make(map[int]int),
		initialized: make(map[int]bool),
	}
	if preInitialized {
		for _, b := range order {
			s.initialized[b.P1] = true
			s.initialized[b.P2] = true
		}
		s.anyStarted = true
	}
	return s
}

// Reset starts a new epoch: all buckets become pending again, but the
// initialised set is retained.
func (s *Scheduler) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done = make(map[Bucket]bool, len(s.order))
	s.inFlight = make(map[Bucket]int)
	s.owner = make(map[int]int)
}

// Acquire leases the next available bucket. held lists partitions the
// caller currently has in memory (for affinity). It returns:
//
//	bucket, true, false  — lease granted
//	_, false, false      — nothing available right now (retry after a Release)
//	_, false, true       — all buckets done this epoch
func (s *Scheduler) Acquire(held []int) (Bucket, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	heldSet := map[int]bool{}
	for _, p := range held {
		heldSet[p] = true
	}
	return s.acquireLocked(anonymous, heldSet)
}

// AcquireFor is Acquire for a ranked owner that keeps its locks across
// buckets: the partitions rank has locked are its affinity set, they do not
// block the grant, and — rank having trained every bucket it was granted
// before asking for another — they count as initialised for it. The granted
// bucket's partitions are locked by rank until Unlock or AbandonRank.
func (s *Scheduler) AcquireFor(rank int) (Bucket, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acquireLocked(rank, s.ownedLocked(rank))
}

func (s *Scheduler) ownedLocked(rank int) map[int]bool {
	owned := map[int]bool{}
	for p, o := range s.owner {
		if o == rank {
			owned[p] = true
		}
	}
	return owned
}

func (s *Scheduler) acquireLocked(who int, held map[int]bool) (Bucket, bool, bool) {
	if len(s.done) == len(s.order) {
		return Bucket{}, false, true
	}
	mine := who != anonymous
	blocked := func(p int) bool {
		o, locked := s.owner[p]
		return locked && !(mine && o == who)
	}
	var best Bucket
	bestScore := -1
	for _, b := range s.order {
		if _, leased := s.inFlight[b]; leased || s.done[b] || blocked(b.P1) || blocked(b.P2) {
			continue
		}
		if s.anyStarted && !s.initialized[b.P1] && !s.initialized[b.P2] && !(mine && (held[b.P1] || held[b.P2])) {
			// Only the first bucket may touch two uninitialised partitions.
			continue
		}
		score := 0
		if held[b.P1] {
			score++
		}
		if held[b.P2] {
			score++
		}
		if score > bestScore {
			best, bestScore = b, score
		}
		if bestScore == 2 {
			break
		}
	}
	if bestScore < 0 {
		return Bucket{}, false, false
	}
	s.anyStarted = true
	s.inFlight[best] = who
	s.owner[best.P1] = who
	s.owner[best.P2] = who
	return best, true, false
}

// unlockLocked drops who's lock on p; a lock someone else holds stays.
func (s *Scheduler) unlockLocked(who, p int) {
	if o, ok := s.owner[p]; ok && o == who {
		delete(s.owner, p)
	}
}

// Release marks a leased bucket complete, unlocking its partitions and
// marking them initialised.
func (s *Scheduler) Release(b Bucket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	who := s.commitLocked(b)
	s.unlockLocked(who, b.P1)
	s.unlockLocked(who, b.P2)
}

// Commit marks a leased bucket complete and its partitions initialised, and
// leaves its owner's locks as they are: the owner may be carrying one of the
// partitions into its next bucket.
func (s *Scheduler) Commit(b Bucket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked(b)
}

func (s *Scheduler) commitLocked(b Bucket) (owner int) {
	who, ok := s.inFlight[b]
	if !ok {
		panic(fmt.Sprintf("partition: Release of non-leased bucket %v", b))
	}
	delete(s.inFlight, b)
	s.done[b] = true
	s.initialized[b.P1] = true
	s.initialized[b.P2] = true
	return who
}

// Unlock gives up rank's lock on each of parts, which a bucket it trained
// has left in its final state wherever partitions are kept — so they count
// as initialised from here on. Partitions rank does not hold are skipped.
func (s *Scheduler) Unlock(rank int, parts ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range parts {
		if o, ok := s.owner[p]; ok && o == rank {
			delete(s.owner, p)
			s.initialized[p] = true
		}
	}
}

// MarkDone records b as already completed this epoch without it ever having
// been leased — used when restoring a scheduler from a checkpoint cut. Its
// partitions count as initialised and established.
func (s *Scheduler) MarkDone(b Bucket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[b] = true
	s.initialized[b.P1] = true
	s.initialized[b.P2] = true
	s.anyStarted = true
}

// DoneBuckets lists the buckets completed this epoch, in order position, so
// checkpoint manifests are deterministic.
func (s *Scheduler) DoneBuckets() []Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Bucket
	for _, b := range s.order {
		if s.done[b] {
			out = append(out, b)
		}
	}
	return out
}

// Abandon returns a leased bucket to the pending pool without marking it
// done (e.g. a worker died); its partitions are NOT marked initialised.
func (s *Scheduler) Abandon(b Bucket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	who, ok := s.inFlight[b]
	if !ok {
		return
	}
	delete(s.inFlight, b)
	s.unlockLocked(who, b.P1)
	s.unlockLocked(who, b.P2)
	s.reopenFirstLocked()
}

// AbandonRank returns every bucket leased to rank to the pending pool and
// drops every lock rank holds, returning the buckets in order position.
func (s *Scheduler) AbandonRank(rank int) []Bucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Bucket
	for _, b := range s.order {
		if who, ok := s.inFlight[b]; ok && who == rank {
			delete(s.inFlight, b)
			out = append(out, b)
		}
	}
	for p := range s.ownedLocked(rank) {
		delete(s.owner, p)
	}
	s.reopenFirstLocked()
	return out
}

// reopenFirstLocked re-opens the first-bucket exception after an abandon
// that left nothing initialised and nothing running, so training can
// restart.
func (s *Scheduler) reopenFirstLocked() {
	if len(s.inFlight) == 0 && len(s.initialized) == 0 {
		s.anyStarted = false
	}
}

// Remaining returns the number of buckets not yet completed this epoch.
func (s *Scheduler) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order) - len(s.done)
}

// InFlight returns the number of currently leased buckets.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inFlight)
}

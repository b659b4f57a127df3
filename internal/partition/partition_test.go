package partition

import (
	"strings"
	"sync"
	"testing"

	"pbg/internal/rng"
)

// rowMajor lists the nSrc×nDst grid row by row: a valid order that no
// planner produces, for tests that need one.
func rowMajor(nSrc, nDst int) []Bucket {
	out := make([]Bucket, 0, nSrc*nDst)
	for i := 0; i < nSrc; i++ {
		for j := 0; j < nDst; j++ {
			out = append(out, Bucket{i, j})
		}
	}
	return out
}

// shuffled is the grid in a seeded random order.
func shuffled(nSrc, nDst int, seed uint64) []Bucket {
	out := rowMajor(nSrc, nDst)
	rng.New(seed).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestOrderCoversAllBuckets(t *testing.T) {
	for _, name := range []string{"", OrderInsideOut, OrderBudgetAware} {
		for _, dims := range [][2]int{{1, 1}, {3, 3}, {4, 1}, {1, 4}, {2, 5}} {
			for _, slots := range []int{0, 3} {
				order, err := OrderForBuffer(name, dims[0], dims[1], 7, slots)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckGrid(order, dims[0], dims[1]); err != nil {
					t.Fatalf("%q %v slots=%d: %v", name, dims, slots, err)
				}
			}
		}
	}
}

// TestCheckGrid pins the one check every order passes before training:
// the whole grid, each bucket once.
func TestCheckGrid(t *testing.T) {
	if err := CheckGrid(rowMajor(2, 3), 2, 3); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		order      []Bucket
		nSrc, nDst int
		want       string
	}{
		"short":     {rowMajor(2, 2), 4, 4, "has 4 buckets"},
		"past grid": {rowMajor(4, 4), 2, 2, "outside"},
		"negative":  {[]Bucket{{-1, 0}}, 1, 1, "outside"},
		"duplicate": {[]Bucket{{0, 0}, {0, 1}, {0, 1}, {1, 1}}, 2, 2, "twice"},
	} {
		err := CheckGrid(c.order, c.nSrc, c.nDst)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckGrid = %v, want an error mentioning %q", name, err, c.want)
		}
	}
	// A part of an order passes the in-grid half alone.
	if err := CheckInGrid(rowMajor(1, 2), 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestOrderUnknownName(t *testing.T) {
	if _, err := Order("spiral", 2, 2, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestOrderBadDims(t *testing.T) {
	if _, err := Order(OrderInsideOut, 0, 2, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestInsideOutStartsAtOrigin(t *testing.T) {
	order, _ := Order(OrderInsideOut, 4, 4, 0)
	if order[0] != (Bucket{0, 0}) {
		t.Fatalf("first bucket = %v, want (0,0)", order[0])
	}
}

func TestInsideOutSatisfiesInvariant(t *testing.T) {
	for p := 1; p <= 8; p++ {
		order, _ := Order(OrderInsideOut, p, p, 0)
		if !CheckInvariant(order) {
			t.Fatalf("inside-out violates invariant at P=%d: %v", p, order)
		}
	}
}

func TestInsideOutConsecutiveShare(t *testing.T) {
	// The stronger property that makes inside-out swap-efficient:
	// consecutive buckets share a partition.
	order, _ := Order(OrderInsideOut, 6, 6, 0)
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.P1 != b.P1 && a.P1 != b.P2 && a.P2 != b.P1 && a.P2 != b.P2 {
			t.Fatalf("buckets %d,%d (%v → %v) share nothing", i-1, i, a, b)
		}
	}
}

func TestCheckInvariantDetectsViolation(t *testing.T) {
	bad := []Bucket{{0, 0}, {2, 3}} // second touches two fresh partitions
	if CheckInvariant(bad) {
		t.Fatal("violation not detected")
	}
	good := []Bucket{{0, 0}, {0, 3}, {3, 2}}
	if !CheckInvariant(good) {
		t.Fatal("valid order rejected")
	}
}

// TestSwapCountInsideOutBeatsRandom is Figure 1's claim: inside-out makes
// fewer swaps than random orders of the same grid and satisfies the §4.1
// invariant, which a random order can violate.
func TestSwapCountInsideOutBeatsRandom(t *testing.T) {
	const p = 8
	io, _ := Order(OrderInsideOut, p, p, 0)
	if !CheckInvariant(io) {
		t.Fatal("inside-out violates the invariant")
	}
	// Average several random orders to avoid a lucky shuffle.
	randTotal, violations := 0, 0
	const tries = 5
	for s := uint64(0); s < tries; s++ {
		ro := shuffled(p, p, s)
		randTotal += SwapCount(ro)
		if !CheckInvariant(ro) {
			violations++
		}
	}
	ioSwaps := SwapCount(io)
	randAvg := randTotal / tries
	if ioSwaps >= randAvg {
		t.Fatalf("inside-out swaps %d not better than random avg %d", ioSwaps, randAvg)
	}
	if violations == 0 {
		t.Fatalf("none of %d random orders violates the invariant", tries)
	}
}

func TestSwapCountExact(t *testing.T) {
	// (0,0): load 0 → 1 load. (0,1): keep 0, load 1 → 1. (1,1): keep 1,
	// drop 0 → 1... wait (1,1) needs only partition 1, held {0,1} → 0 loads.
	order := []Bucket{{0, 0}, {0, 1}, {1, 1}}
	if got := SwapCount(order); got != 2 {
		t.Fatalf("SwapCount = %d, want 2", got)
	}
}

func TestBucketDisjoint(t *testing.T) {
	if !(Bucket{0, 1}).Disjoint(Bucket{2, 3}) {
		t.Fatal("disjoint buckets reported overlapping")
	}
	if (Bucket{0, 1}).Disjoint(Bucket{1, 2}) {
		t.Fatal("overlapping buckets reported disjoint")
	}
	if (Bucket{0, 1}).Disjoint(Bucket{2, 0}) {
		t.Fatal("cross overlap missed")
	}
}

func TestBucketParts(t *testing.T) {
	if got := (Bucket{2, 2}).Parts(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Parts = %v", got)
	}
	if got := (Bucket{1, 3}).Parts(); len(got) != 2 {
		t.Fatalf("Parts = %v", got)
	}
}

func TestSchedulerServesAllBucketsOnce(t *testing.T) {
	order, _ := Order(OrderInsideOut, 4, 4, 0)
	s := NewScheduler(order, false)
	served := map[Bucket]bool{}
	for {
		b, ok, done := s.Acquire(nil)
		if done {
			break
		}
		if !ok {
			t.Fatal("single-worker acquire should never stall")
		}
		if served[b] {
			t.Fatalf("bucket %v served twice", b)
		}
		served[b] = true
		s.Release(b)
	}
	if len(served) != 16 {
		t.Fatalf("served %d buckets, want 16", len(served))
	}
}

func TestSchedulerDisjointLeases(t *testing.T) {
	order, _ := Order(OrderInsideOut, 8, 8, 0)
	s := NewScheduler(order, true) // pre-initialised: max parallelism
	// Acquire as many concurrent leases as possible; they must be pairwise
	// disjoint and at least P/2 = 4 (the paper's parallelism bound for
	// off-diagonal buckets; diagonal buckets lock a single partition so the
	// count can exceed it).
	var leases []Bucket
	for {
		b, ok, _ := s.Acquire(nil)
		if !ok {
			break
		}
		leases = append(leases, b)
	}
	if len(leases) < 4 {
		t.Fatalf("only %d concurrent leases at P=8, want >= 4", len(leases))
	}
	locked := map[int]bool{}
	for _, b := range leases {
		for _, p := range b.Parts() {
			if locked[p] {
				t.Fatalf("partition %d leased twice in %v", p, leases)
			}
			locked[p] = true
		}
	}
}

func TestSchedulerUninitializedRule(t *testing.T) {
	order, _ := Order(OrderInsideOut, 4, 4, 0)
	s := NewScheduler(order, false)
	b1, ok, _ := s.Acquire(nil)
	if !ok {
		t.Fatal("first acquire failed")
	}
	if b1 != (Bucket{0, 0}) {
		t.Fatalf("first bucket %v, want (0,0)", b1)
	}
	// While (0,0) is in flight, no other bucket has an initialised
	// partition, so nothing else may start.
	if b2, ok2, _ := s.Acquire(nil); ok2 {
		t.Fatalf("second bucket %v granted while nothing initialised", b2)
	}
	s.Release(b1)
	// Now only buckets touching 0 qualify.
	b3, ok3, _ := s.Acquire(nil)
	if !ok3 {
		t.Fatal("acquire after first release failed")
	}
	if b3.P1 != 0 && b3.P2 != 0 {
		t.Fatalf("bucket %v does not touch initialised partition 0", b3)
	}
}

func TestSchedulerAffinity(t *testing.T) {
	order := rowMajor(4, 4)
	s := NewScheduler(order, true)
	// Holding partitions {2,3}, the scheduler should prefer (2,3)-ish
	// buckets over (0,0).
	b, ok, _ := s.Acquire([]int{2, 3})
	if !ok {
		t.Fatal("acquire failed")
	}
	score := 0
	if b.P1 == 2 || b.P1 == 3 {
		score++
	}
	if b.P2 == 2 || b.P2 == 3 {
		score++
	}
	if score < 2 {
		t.Fatalf("affinity ignored: got %v while holding {2,3}", b)
	}
}

func TestSchedulerResetKeepsInitialized(t *testing.T) {
	order, _ := Order(OrderInsideOut, 2, 2, 0)
	s := NewScheduler(order, false)
	for {
		b, ok, done := s.Acquire(nil)
		if done {
			break
		}
		if !ok {
			t.Fatal("stall")
		}
		s.Release(b)
	}
	s.Reset()
	// After reset, any bucket may start immediately (all initialised):
	// grab (1,1) equivalents without the (0,0)-first restriction.
	got := map[Bucket]bool{}
	b1, ok, _ := s.Acquire([]int{1})
	if !ok {
		t.Fatal("acquire after reset failed")
	}
	got[b1] = true
	if b1.P1 != 1 && b1.P2 != 1 {
		t.Fatalf("affinity+initialised should allow bucket touching 1, got %v", b1)
	}
}

func TestSchedulerAbandon(t *testing.T) {
	order, _ := Order(OrderInsideOut, 2, 2, 0)
	s := NewScheduler(order, false)
	b, _, _ := s.Acquire(nil)
	s.Abandon(b)
	if s.Remaining() != 4 {
		t.Fatalf("Remaining = %d after abandon, want 4", s.Remaining())
	}
	// The same bucket can be re-acquired.
	b2, ok, _ := s.Acquire(nil)
	if !ok || b2 != b {
		t.Fatalf("re-acquire after abandon got %v ok=%v, want %v", b2, ok, b)
	}
}

func TestSchedulerReleaseUnleasedPanics(t *testing.T) {
	order, _ := Order(OrderInsideOut, 2, 2, 0)
	s := NewScheduler(order, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Release(Bucket{1, 1})
}

func TestSchedulerConcurrentWorkers(t *testing.T) {
	// Hammer the scheduler from many goroutines; every bucket must be
	// served exactly once and concurrent leases must stay disjoint.
	order, _ := Order(OrderInsideOut, 8, 8, 0)
	s := NewScheduler(order, true)
	var mu sync.Mutex
	served := map[Bucket]int{}
	activeParts := map[int]int{}
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, ok, done := s.Acquire(nil)
				if done {
					return
				}
				if !ok {
					continue
				}
				mu.Lock()
				served[b]++
				for _, p := range b.Parts() {
					activeParts[p]++
					if activeParts[p] > 1 {
						fail <- "partition held twice: " + b.String()
					}
				}
				mu.Unlock()
				mu.Lock()
				for _, p := range b.Parts() {
					activeParts[p]--
				}
				mu.Unlock()
				s.Release(b)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	if len(served) != 64 {
		t.Fatalf("served %d buckets, want 64", len(served))
	}
	for b, n := range served {
		if n != 1 {
			t.Fatalf("bucket %v served %d times", b, n)
		}
	}
}

// TestSchedulerRankKeepsItsPartitions walks one rank through PBG's
// acquire-before-release: its own locks do not block its next grant, they
// do block everyone else, and a partition it gives up is free at once even
// though the buckets that touched it have not committed.
func TestSchedulerRankKeepsItsPartitions(t *testing.T) {
	order, _ := Order(OrderInsideOut, 3, 3, 0) // (0,0) (0,1) (1,1) (1,0) (0,2) …
	s := NewScheduler(order, true)
	want := func(rank int, b Bucket) {
		t.Helper()
		got, ok, _ := s.AcquireFor(rank)
		if !ok || got != b {
			t.Fatalf("rank %d granted %v (ok %v), want %v", rank, got, ok, b)
		}
	}
	want(0, Bucket{0, 0})
	want(0, Bucket{0, 1}) // over its own partition 0, nothing released
	want(0, Bucket{1, 1}) // both partitions its own beats one
	// Rank 1 can only have what touches neither 0 nor 1.
	want(1, Bucket{2, 2})
	if b, ok, _ := s.AcquireFor(1); ok {
		t.Fatalf("rank 1 granted %v over rank 0's partitions", b)
	}
	// Rank 0 stores partition 0: free for rank 1 now, with (0,0) and (0,1)
	// still in flight.
	s.Unlock(0, 0)
	want(1, Bucket{0, 2})
	if got := s.InFlight(); got != 5 {
		t.Fatalf("in flight = %d, want 5", got)
	}
	// Commit marks done and leaves the locks alone: rank 0 still has 1,
	// rank 1 keeps the 0 it was just given.
	s.Commit(Bucket{0, 0})
	if done := s.DoneBuckets(); len(done) != 1 || done[0] != (Bucket{0, 0}) {
		t.Fatalf("done = %v, want [(0,0)]", done)
	}
	if s.owner[1] != 0 || s.owner[0] != 1 || s.owner[2] != 1 {
		t.Fatalf("locks after Commit = %v, want 1→rank 0, 0 and 2→rank 1", s.owner)
	}
}

// TestSchedulerLeavesNoOwnerBehind: everything that ends a lease, or an
// epoch, ends its locks.
func TestSchedulerLeavesNoOwnerBehind(t *testing.T) {
	order, _ := Order(OrderInsideOut, 3, 3, 0)
	fill := func() *Scheduler {
		s := NewScheduler(order, true)
		s.AcquireFor(0)
		s.AcquireFor(0)
		s.AcquireFor(1)
		s.Acquire(nil)
		return s
	}
	check := func(name string, s *Scheduler, want int) {
		t.Helper()
		if len(s.owner) != want {
			t.Errorf("%s: %d partitions still locked (%v), want %d", name, len(s.owner), s.owner, want)
		}
	}
	s := fill()
	s.Reset()
	check("Reset", s, 0)
	if s.InFlight() != 0 {
		t.Errorf("Reset left %d buckets in flight", s.InFlight())
	}

	s = fill()
	gone := s.AbandonRank(0)
	if len(gone) != 2 {
		t.Errorf("AbandonRank(0) returned %v, want rank 0's two buckets", gone)
	}
	if len(s.ownedLocked(0)) != 0 {
		t.Errorf("AbandonRank(0) left rank 0 owning %v", s.ownedLocked(0))
	}
	s.AbandonRank(1)
	for b, who := range s.inFlight {
		if who != anonymous {
			t.Fatalf("bucket %v still in flight for rank %d", b, who)
		}
		s.Abandon(b)
	}
	check("Abandon", s, 0)

	// MarkDone never locks.
	s = NewScheduler(order, false)
	s.MarkDone(Bucket{0, 1})
	check("MarkDone", s, 0)
}

func TestBucketIndex(t *testing.T) {
	if (Bucket{2, 3}).Index(4) != 11 {
		t.Fatalf("Index = %d, want 11", (Bucket{2, 3}).Index(4))
	}
}

// InFlight returns the number of currently leased buckets.
func (s *Scheduler) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inFlight)
}

// Abandon returns one leased bucket to the pending pool without marking it
// done; its partitions are NOT marked initialised. AbandonRank is the
// lock server's whole-rank form.
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

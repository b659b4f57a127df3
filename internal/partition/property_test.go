package partition

import (
	"testing"
	"testing/quick"
)

// Property: every ordering covers all buckets exactly once for arbitrary
// grid shapes.
func TestOrderCoverageProperty(t *testing.T) {
	f := func(srcRaw, dstRaw uint8, seed uint64) bool {
		nSrc := int(srcRaw)%10 + 1
		nDst := int(dstRaw)%10 + 1
		for _, name := range []string{OrderInsideOut, OrderSequential, OrderRandom, OrderChained} {
			order, err := Order(name, nSrc, nDst, seed)
			if err != nil {
				return false
			}
			if len(order) != nSrc*nDst {
				return false
			}
			seen := map[Bucket]bool{}
			for _, b := range order {
				if b.P1 < 0 || b.P1 >= nSrc || b.P2 < 0 || b.P2 >= nDst || seen[b] {
					return false
				}
				seen[b] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: inside-out satisfies the §4.1 invariant on every square grid.
func TestInsideOutInvariantProperty(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%16 + 1
		order, err := Order(OrderInsideOut, p, p, 0)
		if err != nil {
			return false
		}
		return CheckInvariant(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scheduler never leases overlapping buckets, regardless of
// the acquire/release interleaving pattern driven by arbitrary byte input.
func TestSchedulerNeverOverlapsProperty(t *testing.T) {
	f := func(pRaw uint8, script []byte) bool {
		p := int(pRaw)%6 + 2
		order, _ := Order(OrderInsideOut, p, p, 0)
		s := NewScheduler(order, true)
		held := []Bucket{}
		locked := map[int]int{}
		for _, op := range script {
			if op%2 == 0 || len(held) == 0 {
				b, ok, done := s.Acquire(nil)
				if done {
					break
				}
				if !ok {
					continue
				}
				for _, part := range b.Parts() {
					locked[part]++
					if locked[part] > 1 {
						return false
					}
				}
				held = append(held, b)
			} else {
				b := held[len(held)-1]
				held = held[:len(held)-1]
				for _, part := range b.Parts() {
					locked[part]--
				}
				s.Release(b)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SwapCount is bounded below by the number of distinct partitions
// (each must be loaded at least once) and above by 2×buckets.
func TestSwapCountBoundsProperty(t *testing.T) {
	f := func(pRaw uint8, seed uint64) bool {
		p := int(pRaw)%8 + 1
		for _, name := range []string{OrderInsideOut, OrderSequential, OrderRandom, OrderChained} {
			order, _ := Order(name, p, p, seed)
			swaps := SwapCount(order)
			if swaps < p || swaps > 2*len(order) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranked owners keep their locks from one bucket to the next, and
// under any interleaving of AcquireFor, Unlock+Commit, AbandonRank and the
// anonymous calls the scheduler's lock table is the model's, owner for
// owner: no partition is ever locked by two owners, a rank is only granted
// buckets over partitions that are free or its own, a partition given up is
// free at once — before the buckets that touched it commit — and whatever
// ends a lease leaves no owner behind.
func TestSchedulerRankedOwnersProperty(t *testing.T) {
	const ranks = 3
	f := func(pRaw uint8, script []byte) bool {
		p := int(pRaw)%5 + 2
		order, _ := Order(OrderInsideOut, p, p, 0)
		s := NewScheduler(order, true)
		holds := map[int]int{}         // partition → owner (anonymous for Acquire's)
		inFlight := map[int][]Bucket{} // rank → its uncommitted buckets
		var anon []Bucket
		grant := func(who int, b Bucket) bool {
			for _, part := range b.Parts() {
				if o, locked := holds[part]; locked && (o != who || who == anonymous) {
					t.Logf("bucket %v granted to %d over partition %d held by %d", b, who, part, o)
					return false
				}
				holds[part] = who
			}
			return true
		}
		drop := func(who int, parts ...int) {
			for _, part := range parts {
				if holds[part] == who {
					delete(holds, part)
				}
			}
		}
		for _, op := range script {
			rank := int(op>>3) % ranks
			switch op % 8 {
			case 0, 1, 2:
				b, ok, done := s.AcquireFor(rank)
				if done {
					return true
				}
				if ok {
					if !grant(rank, b) {
						return false
					}
					inFlight[rank] = append(inFlight[rank], b)
				}
			case 3, 4:
				// The rank stores one partition: it is free at once, and the
				// buckets neither of whose partitions the rank still holds
				// commit.
				for part, o := range holds {
					if o == rank {
						s.Unlock(rank, part)
						delete(holds, part)
						break
					}
				}
				var keep []Bucket
				for _, b := range inFlight[rank] {
					o1, held1 := holds[b.P1]
					o2, held2 := holds[b.P2]
					if (held1 && o1 == rank) || (held2 && o2 == rank) {
						keep = append(keep, b)
					} else {
						s.Commit(b)
					}
				}
				inFlight[rank] = keep
			case 5:
				if got := s.AbandonRank(rank); len(got) != len(inFlight[rank]) {
					t.Logf("AbandonRank(%d) returned %v, model has %v", rank, got, inFlight[rank])
					return false
				}
				delete(inFlight, rank)
				for part := 0; part < p; part++ {
					drop(rank, part)
				}
			case 6:
				if b, ok, _ := s.Acquire(nil); ok {
					if !grant(anonymous, b) {
						return false
					}
					anon = append(anon, b)
				}
			case 7:
				if len(anon) == 0 {
					continue
				}
				b := anon[len(anon)-1]
				anon = anon[:len(anon)-1]
				drop(anonymous, b.Parts()...)
				if rank == 0 {
					s.Abandon(b)
				} else {
					s.Release(b)
				}
			}
			if len(s.owner) != len(holds) {
				t.Logf("scheduler locks %v, model %v", s.owner, holds)
				return false
			}
			for part, o := range holds {
				if got, ok := s.owner[part]; !ok || got != o {
					t.Logf("partition %d: scheduler owner %d (locked %v), model %d", part, got, ok, o)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
